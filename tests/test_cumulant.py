"""Cumulant/entropy pair, Chernoff and Esscher approximations, portfolios."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

from collrisk import (
    CompoundModel,
    DomainError,
    Exponential,
    Gamma,
    Lattice,
    MixtureOfExponentials,
    PointMass,
    Policy,
    Portfolio,
    RiskSystem,
    SimulationPlan,
    chernoff_bound,
    discretize,
    entropy,
    esscher_function,
    esscher_function_discrete,
    esscher_tail,
    esscher_tail_lattice,
    panjer,
    portfolio_exact_tail,
    portfolio_to_compound,
    simulate,
)
from collrisk.lattice import compound_poisson_tail, steps_to
from collrisk.rootfind import expand_upper

EXP_MODEL = CompoundModel(1.0, Exponential(1.0))
UNIT_MODEL = CompoundModel(1.0, PointMass(1.0))


# ---------------------------------------------------------------------------
# cumulant function
# ---------------------------------------------------------------------------


def test_g_exponential_closed_form():
    # lambda * xi / (1 - xi)
    assert EXP_MODEL.g(0.5) == pytest.approx(1.0, rel=1e-14)


def test_g_point_mass_closed_form():
    model = CompoundModel(2.0, PointMass(1.0))
    assert model.g(1.0) == pytest.approx(2.0 * (math.e - 1.0), rel=1e-13)


@pytest.mark.parametrize(
    "model",
    [
        EXP_MODEL,
        CompoundModel(2.0, PointMass(1.5)),
        CompoundModel(0.7, MixtureOfExponentials((0.5, 0.5), (1.0, 2.0))),
        CompoundModel(1.3, Gamma(2.0)),
    ],
)
def test_g_at_zero(model):
    assert abs(model.g(0.0)) <= 1e-14
    mu = model.severity.moment(1)
    nu = model.severity.moment(2)
    assert model.g_prime(0.0) == pytest.approx(model.rate * mu, rel=1e-12)
    assert model.g_second(0.0) == pytest.approx(model.rate * nu, rel=1e-12)


def test_tilted_model():
    tilted = EXP_MODEL.tilt_model(0.5)
    assert tilted.rate == pytest.approx(2.0, rel=1e-14)  # lambda * f(a)
    assert tilted.severity.rate == pytest.approx(0.5, rel=1e-14)
    # tilted cumulant g_a(xi) = g(a + xi) - g(a)
    for xi in (0.1, 0.3):
        assert tilted.g(xi) == pytest.approx(
            EXP_MODEL.g(0.5 + xi) - EXP_MODEL.g(0.5), rel=1e-12
        )
    # tilted mean rate equals g'(a)
    assert tilted.mean_rate == pytest.approx(EXP_MODEL.g_prime(0.5), rel=1e-12)


# ---------------------------------------------------------------------------
# entropy (Legendre transform)
# ---------------------------------------------------------------------------


def test_entropy_exponential_example():
    point = entropy(EXP_MODEL, 4.0)
    assert point.tilt == pytest.approx(0.5, rel=1e-12)
    assert point.h == pytest.approx(1.0, rel=1e-12)  # lambda*(sqrt(x/lambda)-1)^2


def test_entropy_at_mean_is_zero():
    for model in (EXP_MODEL, CompoundModel(2.0, PointMass(1.0))):
        point = entropy(model, model.mean_rate)
        assert point.tilt == 0.0
        assert point.h == 0.0


def test_entropy_gamma_closed_form():
    # h(x) = lambda*[x/l - (x/l)^{a/(a+1)} (a^{1/(a+1)} + a^{-a/(a+1)}) + 1]
    lam, a = 1.0, 2.0
    model = CompoundModel(lam, Gamma(a))
    for x in (3.0, 5.0, 9.0):
        z = x / lam
        expected = lam * (
            z - z ** (a / (a + 1)) * (a ** (1 / (a + 1)) + a ** (-a / (a + 1))) + 1
        )
        assert entropy(model, x).h == pytest.approx(expected, rel=1e-10)


def test_entropy_sign_and_positivity():
    for x in (0.5, 0.9, 1.1, 3.0):
        point = entropy(EXP_MODEL, x)
        assert point.h >= 0.0
        assert math.copysign(1, point.tilt) == math.copysign(1, x - 1.0)


def test_entropy_domain():
    with pytest.raises(DomainError):
        entropy(EXP_MODEL, 0.0)
    with pytest.raises(DomainError):
        entropy(EXP_MODEL, -1.0)


def test_entropy_names_the_level_past_a_finite_abscissa():
    # g' of Gamma claims stays finite below the abscissa 1, so 1e300 is out of reach
    with pytest.raises(DomainError, match="g' never reaches 1e\\+300 below the abscissa 1.0"):
        entropy(CompoundModel(1.0, Gamma(2.5)), 1e300)


def test_entropy_solves_a_lattice_law_with_empty_cells_without_warnings():
    # atoms 1/2 at 1 and at 1000, 998 empty cells between. The bracket probe
    # at xi = 1 overflows e^{1000 xi}: +inf is the right g' there, and no
    # empty cell adds 0*inf = nan. From the probe, Newton steps of about
    # 1/1000 would crawl down the exponential; bisection takes over instead.
    model = CompoundModel(1.0, Lattice(1.0, (0.5,) + (0.0,) * 998 + (0.5,)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert model.g_prime(1.0) == math.inf
        point = entropy(model, 750.75)
    assert point.tilt == pytest.approx(4.058e-4, rel=1e-3)
    assert point.h == pytest.approx(0.054200, rel=1e-4)
    assert model.g_prime(point.tilt) == pytest.approx(750.75, rel=1e-13)
    assert point.h == pytest.approx(750.75 * point.tilt - model.g(point.tilt), rel=1e-13)


def test_expand_upper_never_calls_f_at_a_finite_limit():
    def f(x):
        assert x < 1.0
        return -1.0

    assert math.isnan(expand_upper(f, 0.0, 1.0))


def test_legendre_round_trip():
    for model in (EXP_MODEL, CompoundModel(2.0, PointMass(1.0)), CompoundModel(1.0, Gamma(1.5))):
        hi = min(model.xi_bar, 5.0)
        for xi in np.linspace(0.05, 0.9, 10) * (0.9 * hi):
            x_xi = model.g_prime(xi)
            point = entropy(model, x_xi)
            assert abs(model.g(xi) - (x_xi * xi - point.h)) <= 1e-8


def test_entropy_derivatives():
    step = 1e-4
    for x in (1.5, 2.5, 4.0):
        point = entropy(EXP_MODEL, x)
        dh = (entropy(EXP_MODEL, x + step).h - entropy(EXP_MODEL, x - step).h) / (2 * step)
        assert dh == pytest.approx(point.tilt, abs=1e-6)
        d2h = (
            entropy(EXP_MODEL, x + step).h
            - 2 * point.h
            + entropy(EXP_MODEL, x - step).h
        ) / step**2
        assert d2h == pytest.approx(1.0 / EXP_MODEL.g_second(point.tilt), abs=1e-5)


# ---------------------------------------------------------------------------
# Chernoff bound
# ---------------------------------------------------------------------------


def test_chernoff_at_mean_is_one():
    bound = chernoff_bound(EXP_MODEL, 7.0, EXP_MODEL.mean_rate)
    assert bound.bound == 1.0
    assert bound.side == "upper-tail"


def test_chernoff_exponential_example():
    bound = chernoff_bound(EXP_MODEL, 10.0, 4.0)
    assert bound.bound == pytest.approx(math.exp(-10.0), rel=1e-10)


def test_chernoff_point_mass_example():
    # maximize x*xi - g(xi) on a grid as an independent oracle
    model = CompoundModel(1.0, PointMass(1.0))
    grid = np.linspace(0.0, 5.0, 200001)
    h_oracle = np.max(2.0 * grid - model.rate * np.expm1(grid))
    bound = chernoff_bound(model, 5.0, 2.0)
    assert bound.bound == pytest.approx(math.exp(-5.0 * h_oracle), rel=1e-7)
    assert bound.bound == pytest.approx(0.14493472568611, rel=1e-10)
    assert bound.side == "upper-tail"


def test_chernoff_lower_side():
    assert chernoff_bound(EXP_MODEL, 5.0, 0.5).side == "lower-tail"


def test_chernoff_dominates_exact_tails():
    # lattice model where the aggregate recursion is exact
    model = CompoundModel(1.2, Lattice(0.5, (0.3, 0.5, 0.2)))
    t = 7.0
    agg = panjer(model.rate * t, model.severity.as_distribution(), 120)
    mean = t * model.mean_rate
    for m in range(1, 120):
        tx = m * 0.5
        if tx <= mean:
            continue
        exact = agg.survival_from(m)
        assert exact <= chernoff_bound(model, t, tx / t).bound * (1 + 1e-12)


# ---------------------------------------------------------------------------
# Esscher functions
# ---------------------------------------------------------------------------


def test_esscher_function_values():
    assert esscher_function(0.0) == pytest.approx(0.5, abs=1e-15)
    # oracle: high-accuracy complementary error function (mpmath)
    import mpmath as mp

    mp.mp.dps = 30
    oracle = float(mp.e ** mp.mpf("0.5") * (1 - mp.ncdf(1)))
    assert esscher_function(1.0) == pytest.approx(oracle, rel=1e-13)
    assert esscher_function(1.0) == pytest.approx(0.26157829186512337, rel=1e-12)


def test_esscher_function_large_argument_stable():
    # asymptotic expansion (1/sqrt(2pi)) (1/s - 1/s^3 + 3/s^5 - ...)
    for s in (5.0, 10.0, 50.0):
        value = esscher_function(s)
        series = (1 / s - 1 / s**3 + 3 / s**5) / math.sqrt(2 * math.pi)
        assert value > 0.0
        assert abs(value - series) <= 16.0 / (math.sqrt(2 * math.pi) * s**7)


def test_esscher_function_discrete_small_b_limit():
    s = 0.7
    limit_constant = 1.0 / (math.sqrt(2 * math.pi) * (1 - math.exp(-s)))
    errors = []
    for b in (1e-2, 1e-3, 1e-4):
        errors.append(abs(esscher_function_discrete(s, b) / (b * limit_constant) - 1.0))
    assert errors[0] < 1e-3
    assert errors[1] < errors[0]
    assert errors[2] < errors[1]


def esscher_sum_exact(s, b):
    """E(s, b) as the correctly rounded sum of every term above 1e-40 of the first."""
    n = np.arange(int(2 * 92 / (s + math.hypot(s, b * math.sqrt(184)))) + 2)
    return math.fsum((np.exp(-s * n - 0.5 * (n * b) ** 2) * (b / math.sqrt(2 * math.pi))).tolist())


@settings(max_examples=200, deadline=None)
@example(s=1e-4, b=2.7e-5)  # 270,000 terms
@example(s=1e-13, b=4.5e-5)
@example(s=30.0, b=10.0)  # one term
@example(s=0.0033587192493677, b=0.0014060182749401893)  # chunks of 4,096 err by 2.2e-14
@given(s=st.floats(1e-13, 30.0), b=st.floats(1e-5, 10.0))
def test_esscher_function_discrete_leaves_out_under_1e16_of_its_sum(s, b):
    assert esscher_function_discrete(s, b) == pytest.approx(esscher_sum_exact(s, b), rel=1e-15,
                                                           abs=0.0)


def test_esscher_function_discrete_refuses_a_sum_past_the_cell_cap():
    with pytest.raises(DomainError, match="needs more than 10000000 terms"):
        esscher_function_discrete(0.0, 1e-10)


def test_esscher_function_domain():
    with pytest.raises(DomainError):
        esscher_function(-0.1)
    with pytest.raises(DomainError):
        esscher_function_discrete(1.0, 0.0)


# ---------------------------------------------------------------------------
# Esscher tail approximations
# ---------------------------------------------------------------------------


def test_esscher_tail_exponential_structure():
    t, x = 100.0, 1.5
    tail = esscher_tail(EXP_MODEL, t, x)
    assert tail.tilt == pytest.approx(1.0 - math.sqrt(2.0 / 3.0), rel=1e-12)
    assert tail.h == pytest.approx((math.sqrt(1.5) - 1.0) ** 2, rel=1e-12)
    assert tail.sigma == pytest.approx(math.sqrt(t * EXP_MODEL.g_second(tail.tilt)), rel=1e-12)
    # two prefactor forms agree within the next-order term of E(s)
    s = tail.tilt * tail.sigma
    assert abs(tail.value / tail.value_explicit - 1.0) <= 1.5 / s**2


def test_esscher_tail_against_fine_recursion():
    # comparator: aggregate recursion after severity discretization; the
    # span must be fine enough that the right-endpoint bias is below 1%
    t, x, d = 50.0, 1.5, 0.0025
    tail = esscher_tail(EXP_MODEL, t, x)
    lat = discretize(Exponential(1.0), d)
    m_star = int(math.ceil(t * x / d - 1e-9))
    agg = panjer(t, lat, m_star)
    ratio = tail.value / agg.tail(m_star - 1)
    assert abs(ratio - 1.0) <= 0.05


def test_esscher_tail_against_monte_carlo():
    t, x = 50.0, 1.5
    tail = esscher_tail(EXP_MODEL, t, x)
    plan = SimulationPlan(
        system=RiskSystem(EXP_MODEL, 10.0, 0.0),
        horizon=t,
        n_paths=100_000,
        seed=21,
        tail_probes=((t, x),),
    )
    est = simulate(plan).estimates[f"tail(t={t:g};x={x:g})"]
    rel_3se = 3.0 * est.std_error / est.value
    assert abs(tail.value / est.value - 1.0) <= rel_3se


@pytest.mark.parametrize("t,x,n_paths", [(50.0, 1.5, 100_000), (100.0, 1.3, 200_000), (200.0, 1.2, 200_000)])
def test_esscher_consistency_over_horizons(t, x, n_paths):
    tail = esscher_tail(EXP_MODEL, t, x)
    plan = SimulationPlan(
        system=RiskSystem(EXP_MODEL, 10.0, 0.0),
        horizon=t,
        n_paths=n_paths,
        seed=97,
        tail_probes=((t, x),),
    )
    est = simulate(plan).estimates[f"tail(t={t:g};x={x:g})"]
    assert abs(tail.value / est.value - 1.0) <= 3.0 * est.std_error / est.value


def test_esscher_tail_degenerate_flag():
    near = esscher_tail(EXP_MODEL, 10.0, 1.01)
    assert near.degenerate
    far = esscher_tail(EXP_MODEL, 100.0, 2.0)
    assert not far.degenerate


def test_esscher_tail_domain():
    with pytest.raises(DomainError):
        esscher_tail(EXP_MODEL, 10.0, 0.8)  # below the mean rate
    for x in (1.0 + 1e-13, 1.0 + 1e-300):  # at the mean rate to rounding: no positive tilt
        with pytest.raises(DomainError, match="must exceed the mean rate"):
            esscher_tail(EXP_MODEL, 10.0, x)
    assert esscher_tail(UNIT_MODEL, 10.0, 1.5).span_correction is not None
    with pytest.raises(DomainError, match="use esscher_tail"):
        esscher_tail_lattice(EXP_MODEL, 10.0, 1.5)


DENSITY_LAWS = (Exponential(1.0), Gamma(2.5), MixtureOfExponentials((0.4, 0.6), (0.5, 2.0)))


@st.composite
def lattice_laws(draw):
    """A point mass, or a lattice of 1 to 60 cells, at a random span."""
    span = draw(st.floats(0.05, 3.0))
    weights = draw(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=60))
    if draw(st.booleans()):
        return PointMass(span)
    weights[-1] += 0.01  # the top cell keeps mass, so the lattice has len(weights) cells
    return Lattice(span, tuple(w / math.fsum(weights) for w in weights))


def _esscher_outcome(fn, model, t, x):
    try:
        return fn(model, t, x)
    except DomainError as exc:
        return f"DomainError: {exc}"


@settings(max_examples=100, deadline=None)
@given(
    st.one_of(lattice_laws(), st.sampled_from(DENSITY_LAWS)),
    st.floats(0.1, 10.0),
    st.floats(0.5, 100.0),
    st.floats(0.0, 1.0, exclude_min=True),
)
def test_one_esscher_tail_for_every_claim_law(law, rate, t, u):
    model = CompoundModel(rate, law)
    x = model.mean_rate * (1.0 + 2.0 * u)  # in (mean, 3 mean]
    if law.lattice_span is None:
        with pytest.raises(DomainError, match="use esscher_tail"):
            esscher_tail_lattice(model, t, x)
    else:
        entry = _esscher_outcome(esscher_tail_lattice, model, t, x)
        assert _esscher_outcome(esscher_tail, model, t, x) == entry
    for below in (model.mean_rate, model.mean_rate * (1.0 - u)):
        with pytest.raises(DomainError):
            esscher_tail(model, t, below)


def test_esscher_tail_lattice_unit_example():
    t, x = 20.0, 1.5
    tail = esscher_tail_lattice(UNIT_MODEL, t, x)
    assert tail.tilt == pytest.approx(math.log(1.5), rel=1e-12)
    assert tail.h == pytest.approx(1.5 * math.log(1.5) - 0.5, rel=1e-12)
    assert tail.span_correction == pytest.approx(1.0 / 3.0, rel=1e-12)
    assert tail.sigma**2 == pytest.approx(30.0, rel=1e-12)
    assert tail.value_explicit == pytest.approx(
        math.exp(-t * tail.h) / (math.sqrt(2 * math.pi) * (1 / 3) * math.sqrt(30.0)),
        rel=1e-12,
    )
    # the discrete-Esscher-function form tracks the exact tail closely
    exact = stats.poisson.sf(int(t * x) - 1, t)
    assert abs(tail.value / exact - 1.0) <= 0.03


def test_esscher_tail_lattice_span_correction_limit():
    # A(d) = (1 - e^{-ad})/d -> a, and the lattice tilt itself -> the
    # continuous tilt, both at rate O(d)
    t, x = 30.0, 1.5
    a_cont = esscher_tail(EXP_MODEL, t, x).tilt
    for d in (0.1, 0.01):
        model = CompoundModel(1.0, Lattice(d, tuple(discretize(Exponential(1.0), d).masses[1:])))
        tail = esscher_tail_lattice(model, t, x)
        assert abs(tail.span_correction - tail.tilt) <= 0.6 * tail.tilt**2 * d
        assert abs(tail.tilt - a_cont) <= 0.5 * d


def test_span_correction_keeps_its_digits_near_the_mean():
    # A(d) = (1 - e^{-ad})/d against its series in ad, where 1 - e^{-ad} cancels;
    # far-apart cells keep each level well clear of the mean rate
    d, cells = 0.01, 10_000
    model = CompoundModel(1.0, Lattice(d, (0.5,) + (0.0,) * (cells - 2) + (0.5,)))
    for ad in np.geomspace(1e-14, 1e-4, 11):
        tail = esscher_tail(model, 10.0, model.g_prime(ad / d))
        u = tail.tilt * d
        assert u == pytest.approx(ad, rel=1e-6)
        series = tail.tilt * (1.0 - u / 2.0 + u**2 / 6.0 - u**3 / 24.0)
        assert tail.span_correction == pytest.approx(series, rel=1e-14, abs=0.0)


def test_esscher_reads_the_maximal_span():
    # masses 1/2 at 2 and at 4, declared on span 1 and on span 2: S(200) >= 900
    # is A + 2B >= 450 with A, B independent Poisson(100), summed over B
    t, x = 200.0, 4.5
    tails = [esscher_tail(CompoundModel(1.0, Lattice(d, masses)), t, x).value
             for d, masses in ((1.0, (0.0, 0.5, 0.0, 0.5)), (2.0, (0.5, 0.5)))]
    b = np.arange(0, 451)
    exact = math.fsum(stats.poisson.pmf(b, 100.0) * stats.poisson.sf(450 - 2 * b - 1, 100.0))
    assert tails[0] == pytest.approx(tails[1], rel=1e-12, abs=0.0)
    assert tails[0] == pytest.approx(exact, rel=0.01, abs=0.0)


@settings(max_examples=40, deadline=None)
@example(n=1, g=2, sparsity=0.0, factor=1.5, seed=0)
@example(n=8, g=5, sparsity=0.7, factor=2.5, seed=1)
@given(
    n=st.integers(1, 8),
    g=st.integers(2, 5),
    sparsity=st.floats(0.0, 0.7),
    factor=st.floats(1.2, 2.5),
    seed=st.integers(0, 2**32 - 1),
)
def test_a_spread_lattice_law_matches_its_compact_form(n, g, sparsity, factor, seed):
    # the compact law on cells j of span g/2 is the spread law on cells g*j of
    # span 1/2, with g - 1 empty cells between its atoms
    rng = np.random.default_rng(seed)
    f = rng.random(n) * (rng.random(n) >= sparsity)
    f[-1] += f.sum() == 0.0
    f /= f.sum()
    spread = np.zeros(g * n)
    spread[g - 1 :: g] = f
    compact_model = CompoundModel(1.5, Lattice(0.5 * g, f))
    spread_model = CompoundModel(1.5, Lattice(0.5, spread))
    t, x = 20.0, factor * compact_model.mean_rate
    compact_run, spread_run = [
        (entropy(model, x), chernoff_bound(model, t, x).bound, esscher_tail(model, t, x))
        for model in (compact_model, spread_model)
    ]
    (ce, cb, cs), (se, sb, ss) = compact_run, spread_run
    for got, want in ((se.tilt, ce.tilt), (se.h, ce.h), (sb, cb), (ss.value, cs.value),
                      (ss.value_explicit, cs.value_explicit)):
        assert got == pytest.approx(want, rel=1e-12, abs=0.0)
    # panjer on both lattices: every compact cell, and exact zeros between
    m = steps_to(t * x, 0.5 * g)
    compact_agg = panjer(1.5 * t, compact_model.severity.as_distribution(), m)
    spread_agg = panjer(1.5 * t, spread_model.severity.as_distribution(), g * m)
    np.testing.assert_allclose(spread_agg.masses[::g], compact_agg.masses, rtol=1e-12, atol=0.0)
    assert not np.delete(spread_agg.masses, np.s_[::g]).any()
    above = np.cumsum(compact_agg.masses[::-1])[::-1]  # positive-term tails from the masses
    np.testing.assert_allclose(np.cumsum(spread_agg.masses[::-1])[::-1][::g], above,
                               rtol=1e-12, atol=0.0)
    # the stored running-subtraction tails hold their absolute error only
    np.testing.assert_allclose(spread_agg.tails[::g], compact_agg.tails, rtol=0.0, atol=1e-14)
    # the tilted-FFT tail P(S >= t*x), within its stated 1e-10
    compact_tail = compound_poisson_tail(1.5 * t, compact_model.severity.as_distribution(),
                                         m - 1, ce.tilt)
    spread_tail = compound_poisson_tail(1.5 * t, spread_model.severity.as_distribution(),
                                        g * m - 1, se.tilt)
    assert spread_tail == pytest.approx(compact_tail, rel=1e-10, abs=0.0)


# ---------------------------------------------------------------------------
# individual model
# ---------------------------------------------------------------------------


def test_a_refused_portfolio_builds_its_compound_law_in_under_60_mb():
    # sums 20000.01, 0.01 and 2.5 share only the span 0.01: a 2,000,001-cell
    # severity, whose masses the law holds once and whose tails it never builds
    portfolio = Portfolio((Policy(20000.01, 0.1), Policy(0.01, 0.2), Policy(2.5, 0.05)))
    tracemalloc.start()
    try:
        model = portfolio_to_compound(portfolio, span=0.01)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert model.severity.masses.size == 2_000_001
    assert peak < 60e6


def test_portfolio_single_policy():
    p = 1.0 - math.exp(-1.0)
    model = portfolio_to_compound(Portfolio((Policy(1.0, p),)))
    assert model.rate == pytest.approx(1.0, rel=1e-12)
    assert model.severity.span == pytest.approx(1.0)
    assert model.severity.masses == (1.0,)


def test_portfolio_small_probability_intensity():
    model = portfolio_to_compound(Portfolio((Policy(1.0, 0.01),)))
    assert model.rate == pytest.approx(-math.log(0.99), rel=1e-12)
    assert model.rate == pytest.approx(0.010050335853501441, rel=1e-12)


def test_portfolio_merges_coincident_atoms():
    p = 0.3
    model = portfolio_to_compound(Portfolio((Policy(1.0, p), Policy(1.0, p))))
    assert model.rate == pytest.approx(-2.0 * math.log1p(-p), rel=1e-12)
    assert model.severity.masses[0] == pytest.approx(1.0, abs=1e-14)


def test_portfolio_span_inference_and_explicit():
    model = portfolio_to_compound(
        Portfolio((Policy(1.0, 0.1), Policy(2.5, 0.1), Policy(4.0, 0.1)))
    )
    assert model.severity.span == pytest.approx(0.5)
    snapped = portfolio_to_compound(Portfolio((Policy(1.3, 0.1),)), span=0.5)
    # right-endpoint rule: 1.3 snaps up to 1.5
    assert snapped.severity.masses[2] == pytest.approx(1.0)


def test_portfolio_exact_tail_values():
    assert portfolio_exact_tail(Portfolio((Policy(1.0, 0.25),)), 0.5) == pytest.approx(0.25)
    two = Portfolio((Policy(1.0, 0.5), Policy(1.0, 0.5)))
    assert portfolio_exact_tail(two, 1.5) == pytest.approx(0.25, rel=1e-12)
    ten = Portfolio(tuple(Policy(1.0, 0.1) for _ in range(10)))
    assert portfolio_exact_tail(ten, 2.5) == pytest.approx(
        float(stats.binom.sf(2, 10, 0.1)), rel=1e-10
    )


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.tuples(st.sampled_from([0.5, 1.0, 1.5, 2.0, 3.7]), st.floats(0.001, 0.6)),
             min_size=1, max_size=12),
    st.lists(st.floats(-1.0, 40.0), max_size=10),
)
def test_portfolio_exact_tail_at_many_levels_is_one_call_per_level(rows, levels):
    portfolio = Portfolio(tuple(Policy(x, p) for x, p in rows))
    levels += [x for x, _ in rows]  # levels on the support, where the 1e-12 slack decides
    tails = portfolio_exact_tail(portfolio, levels)
    assert tails == [portfolio_exact_tail(portfolio, x) for x in levels]
    assert not isinstance(portfolio_exact_tail(portfolio, levels[0]), list)  # one level, one value


def _enumerated_tails(portfolio, levels):
    """Reference only: P(L > x) by enumerating a dict of totals on a 1e-9 money grid."""
    dist = {0: 1.0}
    for pol in portfolio:
        shift, p = round(pol.sum_at_risk / 1e-9), pol.loss_probability
        new = {}
        for key, pr in dist.items():
            new[key] = new.get(key, 0.0) + pr * (1.0 - p)
            new[key + shift] = new.get(key + shift, 0.0) + pr * p
        dist = new
    return [sum(pr for key, pr in dist.items() if key * 1e-9 > x + 1e-12 * max(1.0, abs(x)))
            for x in levels]


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.tuples(st.sampled_from([0.5, 1.0, 1.5, 2.0, 3.7]), st.floats(0.001, 0.6)),
             min_size=1, max_size=20),
    st.lists(st.integers(-20, 1500), min_size=1, max_size=10),
)
def test_portfolio_exact_tail_matches_the_enumeration(rows, grid):
    portfolio = Portfolio(tuple(Policy(x, p) for x, p in rows))
    levels = [0.05 * k for k in grid] + [x for x, _ in rows]  # on and between support points
    got = portfolio_exact_tail(portfolio, levels)
    for a, b in zip(got, _enumerated_tails(portfolio, levels)):
        assert a == pytest.approx(b, rel=1e-14, abs=0.0)


def test_portfolio_exact_tail_has_no_size_cap():
    # 1,000 policies: the binomial law, down to a tail below 1e-60
    big = Portfolio(tuple(Policy(1.0, 0.01) for _ in range(1000)))
    levels = [0.0, 5.5, 10.0, 30.0, 100.0]
    tails = portfolio_exact_tail(big, levels)
    want = stats.binom.sf([0, 5, 10, 30, 100], 1000, 0.01)
    assert tails[-1] < 1e-60
    for got, expected in zip(tails, want):
        assert got == pytest.approx(float(expected), rel=1e-12)


@settings(max_examples=25, deadline=None)
@given(
    st.lists(st.tuples(st.sampled_from([0.5, 1.0, 1.5, 2.0, 3.7]), st.floats(0.001, 0.3)),
             min_size=1, max_size=300),
)
@example([(3.7, 0.3), (0.5, 0.01), (1.5, 0.1)] * 100)
def test_portfolio_exact_and_compound_within_the_approximation_bound(rows):
    portfolio = Portfolio(tuple(Policy(x, p) for x, p in rows))
    model = portfolio_to_compound(portfolio)
    span = model.severity.span
    top = round(sum(x for x, _ in rows) / span)
    agg = panjer(model.rate, model.severity.as_distribution(), top + 1)
    exact = portfolio_exact_tail(portfolio, [m * span for m in range(top + 1)])
    worst = max(abs(e - agg.tail(m)) for m, e in enumerate(exact))
    assert worst <= portfolio.approximation_bound + 1e-12


def test_compound_poisson_approximation_bound():
    # sup-norm distance bounded by half the sum of squared probabilities
    policies = tuple(Policy(x, 0.02) for x in (1.0, 1.0, 2.0, 2.0, 1.0) * 4)
    portfolio = Portfolio(policies)
    assert portfolio.sum_p_squared <= 0.01
    model = portfolio_to_compound(portfolio)
    agg = panjer(model.rate, model.severity.as_distribution(), 60)
    worst = 0.0
    for m in range(0, 45):
        x = m * model.severity.span
        exact = portfolio_exact_tail(portfolio, x)
        approx = agg.tail(m)
        worst = max(worst, abs(exact - approx))
    assert worst <= portfolio.sum_p_squared / 2.0 + 1e-9


@pytest.mark.parametrize("p", [1e-6, 0.3, 0.5, 0.9])
def test_approximation_bound_is_the_total_variation_sum(p):
    portfolio = Portfolio((Policy(1.0, p), Policy(2.0, p)))
    if p < 1e-3:  # the closed form cancels here; its leading term p^2/2 per policy does not
        expected, rel = p * p, 1e-6
    else:
        expected, rel = 2.0 * (p + (1.0 - p) * math.log1p(-p)), 1e-12
    assert portfolio.approximation_bound == pytest.approx(expected, rel=rel)
    assert portfolio.approximation_bound >= portfolio.sum_p_squared / 2.0
