"""Limits and identities of the benchmark's reference values (oracles.py).

Run with ``python -m pytest bench/test_oracles.py``. None of these tests
imports collrisk: they check the references on their own terms, so the
workload checks built on them do not rest on the library under test.
"""

import itertools
import math

import pytest
from scipy import integrate, optimize

import oracles

LAM, B, C = 1.0, 1.0, 1.25

KINDS = [
    ("exponential", (1.5,)),
    ("gamma", (2.5,)),
    ("point", (0.75,)),
    ("mixture", ((0.3, 0.7), (0.6, 2.5))),
    ("lattice", (0.25, (0.1, 0.0, 0.3, 0.2, 0.4))),
]


def test_prabhu_is_zero_at_time_zero():
    assert oracles.prabhu_ruin(LAM, B, C, 2.0, 0.0) == 0.0
    assert 0.0 <= oracles.prabhu_ruin(LAM, B, C, 2.0, 1e-6) < 1e-6


@pytest.mark.parametrize("u", [0.0, 2.0, 20.0])
def test_prabhu_tends_to_ultimate_ruin(u):
    ultimate = oracles.exponential_ruin(LAM, B, C, u)
    assert oracles.prabhu_ruin(LAM, B, C, u, 1e4) == pytest.approx(ultimate, rel=1e-9)
    assert oracles.prabhu_ruin(LAM, B, C, u, 50.0) < ultimate


def test_prabhu_scales_with_the_claim_rate():
    # Exp(2) claims are Exp(1) claims in half-size money units
    assert oracles.prabhu_ruin(LAM, 2.0, C, 1.0, 3.0) == pytest.approx(
        oracles.prabhu_ruin(LAM, 1.0, 2.0 * C, 2.0, 3.0), rel=1e-12)


def test_conditional_mean_tends_to_the_overshoot_corrected_mean():
    # untruncated E[T | T < inf] = (u + 1/(b - R)) * tbar for exponential claims
    r_adj = B - LAM / C
    tbar = 1.0 / (LAM * B / (B - r_adj) ** 2 - C)
    want = (20.0 + 1.0 / (B - r_adj)) * tbar
    assert oracles.conditional_mean_ruin_time(LAM, B, C, 20.0, 2000.0) == pytest.approx(
        want, rel=1e-4)
    assert oracles.conditional_mean_ruin_time(LAM, B, C, 20.0, 320.0) < want


def test_lattice_ruin_form_at_zero_is_the_upcrossing_probability():
    assert oracles.lattice_exponential_ruin(LAM, B, C, 0.01, 0.0) == LAM / (B * C)


def test_lattice_ruin_form_approaches_the_continuous_curve():
    u = 10.0
    exact = oracles.exponential_ruin(LAM, B, C, u)
    gaps = [oracles.lattice_exponential_ruin(LAM, B, C, d, u) / exact - 1.0
            for d in (0.04, 0.02, 0.01)]
    assert all(g > 0.0 for g in gaps)  # rounding up claims raises ruin
    assert gaps[0] / gaps[1] == pytest.approx(2.0, rel=0.05)
    assert gaps[1] / gaps[2] == pytest.approx(2.0, rel=0.05)


def test_kendall_tends_to_the_passage_probability():
    for c in (0.8, 1.25):  # negative and positive loading
        limit = oracles.exponential_hitting_limit(LAM, B, c, 2.0)
        assert oracles.kendall_hitting(LAM, B, c, 2.0, 3000.0) == pytest.approx(limit, rel=1e-8)
    assert oracles.kendall_hitting(LAM, B, 0.8, 2.0, 2.0 / 0.8) == 0.0


def test_compound_density_carries_the_mass_of_at_least_one_claim():
    s = 3.0
    mass, _ = integrate.quad(lambda y: oracles.compound_exponential_density(LAM, B, s, y),
                             0.0, math.inf, limit=200)
    assert mass == pytest.approx(1.0 - math.exp(-LAM * s), rel=1e-9)


def test_polya_aeppli_is_bounded_and_approaches_the_continuous_tail():
    t, x = 30.0, 2.0
    continuous = oracles.compound_exponential_tail(LAM * t, B, t * x)
    previous = None
    for d in (0.04, 0.02, 0.01):
        lattice = oracles.polya_aeppli_tail(LAM * t, B, d, round(t * x / d))
        assert continuous < lattice <= oracles.chernoff_geometric(LAM, B, d, t, x)
        if previous is not None:
            assert lattice - continuous < previous - continuous
        previous = lattice
    assert oracles.polya_aeppli_tail(LAM * t, B, 0.01, 0) == 1.0


def test_gamma_tail_with_unit_shape_is_the_exponential_tail():
    assert oracles.compound_gamma_tail(7.0, 1.0, 12.0) == pytest.approx(
        oracles.compound_exponential_tail(7.0, 1.0, 12.0), rel=1e-12)
    lo = oracles.compound_gamma_tail(7.0, 2.5, 30.0)
    hi = oracles.compound_gamma_tail(7.0, 2.5, 30.0, shift=0.01)
    assert lo < hi < lo * 1.05


def test_poisson_tail():
    assert oracles.poisson_tail(30.0, 0) == 1.0
    direct = math.fsum(math.exp(-30.0 + k * math.log(30.0) - math.lgamma(k + 1))
                       for k in range(90, 400))
    assert oracles.poisson_tail(30.0, 90) == pytest.approx(direct, rel=1e-10)


@pytest.mark.parametrize("kind,params", KINDS)
def test_cumulant_derivatives(kind, params):
    cu = oracles.Cumulant(1.3, kind, params)
    th, eps = 0.2, 1e-5
    assert cu.g(0.0) == 0.0
    assert cu.g1(th) == pytest.approx((cu.g(th + eps) - cu.g(th - eps)) / (2 * eps), rel=1e-7)
    assert cu.g2(th) == pytest.approx((cu.g1(th + eps) - cu.g1(th - eps)) / (2 * eps), rel=1e-7)


@pytest.mark.parametrize("kind,params", KINDS[:3])
def test_closed_form_entropy_is_the_legendre_transform(kind, params):
    cu = oracles.Cumulant(1.3, kind, params)
    x = 1.7 * cu.mean_rate
    top = min(cu.abscissa, 20.0) * (1.0 - 1e-9)
    best = optimize.minimize_scalar(lambda th: cu.g(th) - x * th, bounds=(0.0, top),
                                    method="bounded", options={"xatol": 1e-12})
    assert cu.entropy(x) == pytest.approx(-best.fun, rel=1e-8)


def test_exponential_entropy_vanishes_at_the_mean():
    h, tilt = oracles.entropy_exponential(LAM, B, LAM / B)
    assert h == 0.0 and tilt == 0.0


def test_portfolio_tails_match_enumeration():
    units, probs = [1, 2, 2, 5], [0.1, 0.02, 0.3, 0.05]
    xs = [0.5, 1.0, 2.25, 4.0]
    got = oracles.portfolio_tails(units, probs, 0.5, xs)
    for x in xs:
        exact = 0.0
        for hits in itertools.product((0, 1), repeat=len(units)):
            weight = math.prod(p if h else 1.0 - p for h, p in zip(hits, probs))
            if 0.5 * sum(h * k for h, k in zip(hits, units)) > x:
                exact += weight
        assert got[x][0] == pytest.approx(exact, rel=1e-12, abs=1e-16)
        assert abs(got[x][0] - got[x][1]) <= oracles.poisson_approximation_gap(probs)


def test_one_policy_gap_is_attained():
    # one policy, p = 0.5, sum at risk 1: the compound law puts mass on 2, 3, ...
    (exact, compound), = oracles.portfolio_tails([2], [0.5], 0.5, [1.5]).values()
    gap = oracles.poisson_approximation_gap([0.5])
    assert exact == 0.0
    assert compound == pytest.approx(gap, rel=1e-12)
    assert gap > 0.5**2 / 2.0


def test_compound_column_is_a_poisson_law():
    # three unit policies with p = 0.2: S ~ Poisson(3 lam) with lam = -log(0.8)
    lam = -math.log(0.8)
    got = oracles.portfolio_tails([1] * 3, [0.2] * 3, 1.0, [0.0, 1.0])
    assert got[0.0][1] == pytest.approx(1.0 - 0.8**3, rel=1e-12)  # zero matched exactly
    assert got[0.0][0] == pytest.approx(1.0 - 0.8**3, rel=1e-12)
    assert got[1.0][1] == pytest.approx(1.0 - math.exp(-3 * lam) * (1.0 + 3 * lam), rel=1e-12)
