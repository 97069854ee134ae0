"""Ruin analytics: recursion vs closed forms, adjustment coefficient,
finite-time formulas, bounds, normal limit, composite split."""

import math
import random

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
    GridError,
    Lattice,
    LoadingError,
    MixtureOfExponentials,
    PointMass,
    RiskSystem,
    RootBracketError,
    composite_split,
    compound_geometric,
    cramer_lundberg_approx,
    discretize,
    discretize_ladder,
    entropy,
    finite_time_bound,
    hitting_below,
    ladder,
    lundberg,
    lundberg_series,
    mixture_exact,
    non_ruin_zero,
    panjer,
    ruin_panjer,
    ruin_time_clt,
    seal,
)
from collrisk import cumulant as cumulant_module
from collrisk import ruin as ruin_module
from collrisk.lattice import steps_within
from collrisk.ruin import _crossing_sum

EXP_SYS = RiskSystem(CompoundModel(1.0, Exponential(1.0)), 1.25, 0.0)
UNIT_MODEL = CompoundModel(1.0, PointMass(1.0))


def closed_form_ruin(u):
    """r(u) = 0.8 exp(-0.2 u) for the unit-exponential system with c = 1.25."""
    return 0.8 * math.exp(-0.2 * u)


# ---------------------------------------------------------------------------
# ladder decomposition
# ---------------------------------------------------------------------------


def test_ladder_exponential():
    law = ladder(EXP_SYS)
    assert law.upcross_probability == pytest.approx(0.8, rel=1e-14)


def test_ladder_point_mass_uniform():
    law = ladder(RiskSystem(UNIT_MODEL, 2.0, 0.0))
    assert law.upcross_probability == pytest.approx(0.5, rel=1e-14)


def test_ladder_large_premium():
    law = ladder(RiskSystem(CompoundModel(1.0, Exponential(1.0)), 1e6, 0.0))
    assert law.upcross_probability == pytest.approx(1e-6, rel=1e-12)


def test_ladder_loading_error():
    with pytest.raises(LoadingError) as info:
        ladder(RiskSystem(CompoundModel(1.0, Exponential(1.0)), 0.9, 0.0))
    assert info.value.ruin_probability == 1.0


# ---------------------------------------------------------------------------
# exact recursion for r(u)
# ---------------------------------------------------------------------------


def test_ruin_panjer_exponential_closed_form():
    curve = ruin_panjer(EXP_SYS, 0.01, 10.0)
    for u in (1.0, 2.0, 5.0, 10.0):
        assert curve.value(u) == pytest.approx(closed_form_ruin(u), rel=0.01)


def test_ruin_panjer_at_zero_is_upcross_probability():
    curve = ruin_panjer(EXP_SYS, 0.01, 5.0)
    assert curve.value(0.0) == pytest.approx(0.8, abs=1e-12)


def test_ruin_panjer_monotone_in_unit_interval():
    curve = ruin_panjer(EXP_SYS, 0.05, 20.0)
    values = curve.values
    assert np.all(values >= -1e-15)
    assert np.all(values <= 1.0 + 1e-12)
    assert np.all(np.diff(values) <= 1e-15)


def test_ruin_panjer_at_zero_capital_alone():
    alone = ruin_panjer(EXP_SYS, 0.01, 0.0)
    assert alone.value(0.0) == ruin_panjer(EXP_SYS, 0.01, 5.0).value(0.0)
    assert alone.value(0.0) == pytest.approx(0.8, abs=1e-12)
    with pytest.raises(DomainError, match="capital must be nonnegative, got -0.5"):
        ruin_panjer(EXP_SYS, 0.01, -0.5)


def test_ruin_panjer_grid_indexing():
    curve = ruin_panjer(EXP_SYS, 0.01, 6.0)
    # u = 5 sits on the grid despite 5/0.01 not being float-exact
    n = int(round(5.0 / 0.01))
    assert curve.value(5.0) == curve.values[n]
    assert curve.grid[n] == pytest.approx(5.0, rel=1e-12)


def test_ruin_panjer_reads_the_compound_geometric_tails():
    curve = ruin_panjer(EXP_SYS, 0.01, 250.0)
    dist = compound_geometric(0.8, discretize_ladder(Exponential(1.0), 0.01), 25_001)
    assert np.array_equal(curve.values, np.maximum(dist.tails, 0.0))
    assert np.array_equal(curve.grid, np.arange(25_002) * 0.01)
    assert curve.value(250.0) == curve.values[25_000]
    with pytest.raises(DomainError, match="beyond the computed grid"):
        curve.value(250.02)


def test_ruin_panjer_loading_error():
    with pytest.raises(LoadingError):
        ruin_panjer(RiskSystem(CompoundModel(1.0, Exponential(1.0)), 1.0, 0.0), 0.01, 5.0)


def test_lundberg_domination_of_recursion():
    d = 0.05
    curve = ruin_panjer(EXP_SYS, d, 20.0)
    sol = lundberg(EXP_SYS)
    bound = np.exp(-sol.R * curve.grid) * (1.0 + 5.0 * d)
    assert np.all(curve.values <= bound)


# ---------------------------------------------------------------------------
# adjustment coefficient
# ---------------------------------------------------------------------------


def test_lundberg_exponential_exact():
    sol = lundberg(EXP_SYS)
    assert sol.R == pytest.approx(0.2, rel=1e-10)
    assert sol.constant == pytest.approx(0.8, rel=1e-10)
    assert sol.time_scale == pytest.approx(3.2, rel=1e-10)
    assert sol.sigma_sq == pytest.approx(3.90625, rel=1e-10)
    assert sol.positive_loading


def test_lundberg_root_identity():
    for sys in (
        EXP_SYS,
        RiskSystem(CompoundModel(2.0, Gamma(1.5)), 4.0, 0.0),
        RiskSystem(CompoundModel(1.0, PointMass(1.0)), 1.4, 0.0),
    ):
        sol = lundberg(sys)
        lhs = sys.model.g(sol.R)
        assert abs(lhs - sys.premium_rate * sol.R) <= 1e-12 * max(
            1.0, abs(sys.premium_rate * sol.R)
        )
        assert sys.model.g_prime(sol.R) > sys.premium_rate  # slope condition


def test_lundberg_negative_branch():
    sol = lundberg(RiskSystem(CompoundModel(1.0, Exponential(1.0)), 0.8, 0.0))
    assert not sol.positive_loading
    assert sol.R == pytest.approx(-0.25, rel=1e-10)
    assert sol.time_scale > 0
    assert sol.constant > 0


# premium rates at lambda*mu = 1 to rounding, where the root equation is tangent at zero
TANGENT_RATES = (1.0 - 5e-15, 1.0, 1.0 + 5e-15)
TANGENT_MESSAGE = "^premium rate equals the mean loss rate: the root equation is tangent at zero$"


def test_lundberg_tangent_case():
    for c in TANGENT_RATES:
        with pytest.raises(LoadingError, match=TANGENT_MESSAGE):
            lundberg(RiskSystem(CompoundModel(1.0, Exponential(1.0)), c, 0.0))


def test_tilted_mean_rate_at_R():
    sol = lundberg(EXP_SYS)
    tilted = EXP_SYS.model.tilt_model(sol.R)
    assert tilted.mean_rate == pytest.approx(EXP_SYS.model.g_prime(sol.R), rel=1e-10)


# ---------------------------------------------------------------------------
# asymptotic approximation
# ---------------------------------------------------------------------------


def test_cramer_lundberg_values():
    cl = cramer_lundberg_approx(EXP_SYS, 10.0)
    assert cl.value == pytest.approx(0.8 * math.exp(-2.0), rel=1e-10)
    assert cl.bound == pytest.approx(math.exp(-2.0), rel=1e-10)
    zero = cramer_lundberg_approx(EXP_SYS, 0.0)
    assert zero.value == pytest.approx(0.8, rel=1e-10)
    assert zero.bound == 1.0


def test_cramer_lundberg_ratio_tends_to_one():
    # against the exact mixture solution the asymptotic ratio approaches 1
    # from below as u grows (the subdominant decay terms die off); this also
    # cross-checks the two independent root-finders
    sys = RiskSystem(
        CompoundModel(1.0, MixtureOfExponentials((0.5, 1 / 3, 1 / 6), (1.0, 2.0, 4.0))),
        0.9,
        0.0,
    )
    exact_roots = mixture_exact(sys, 1.0)
    sol = lundberg(sys)
    assert sol.R == pytest.approx(exact_roots.decay_rates[0], rel=1e-10)
    gaps = []
    for u in (2.0, 5.0, 10.0):
        ratio = cramer_lundberg_approx(sys, u).value / mixture_exact(sys, u).value
        gaps.append(abs(ratio - 1.0))
    assert gaps[0] > gaps[1] > gaps[2]
    assert gaps[2] < 1e-3


def test_lundberg_series_exponential():
    series = lundberg_series(1.0, 2.0, 6.0, 0.25)
    assert series.R1 == pytest.approx(0.25, rel=1e-14)
    assert series.R2 == pytest.approx(0.1875, rel=1e-14)
    tiny = lundberg_series(1.0, 2.0, 6.0, 1e-9)
    assert tiny.R1 == pytest.approx(0.0, abs=1e-8)
    assert tiny.C1 == pytest.approx(1.0, abs=1e-8)


def test_lundberg_series_third_order_accuracy():
    # |R2 - R| = O(rho^3): the log-log slope across rho must reach ~3
    gaps = []
    rhos = (0.05, 0.1, 0.2)
    for rho in rhos:
        c = 1.0 + rho  # lambda = mu = 1
        sol = lundberg(RiskSystem(CompoundModel(1.0, Exponential(1.0)), c, 0.0))
        series = lundberg_series(1.0, 2.0, 6.0, rho)
        gaps.append(abs(series.R2 - sol.R))
    slope = (math.log(gaps[-1]) - math.log(gaps[0])) / (
        math.log(rhos[-1]) - math.log(rhos[0])
    )
    assert slope >= 2.7


# ---------------------------------------------------------------------------
# exact mixture solution
# ---------------------------------------------------------------------------


def test_mixture_exact_collapses_to_exponential():
    sys = RiskSystem(
        CompoundModel(1.0, MixtureOfExponentials((1.0,), (1.0,))), 1.25, 0.0
    )
    result = mixture_exact(sys, 5.0)
    assert result.decay_rates[0] == pytest.approx(0.2, rel=1e-12)
    assert result.value == pytest.approx(closed_form_ruin(5.0), rel=1e-12)
    # an Exponential severity is accepted directly
    direct = mixture_exact(EXP_SYS, 5.0)
    assert direct.value == pytest.approx(result.value, rel=1e-12)


MIX3 = RiskSystem(
    CompoundModel(1.0, MixtureOfExponentials((0.5, 1 / 3, 1 / 6), (1.0, 2.0, 4.0))),
    0.9,
    0.0,
)


def test_mixture_exact_interlacing_and_total():
    result = mixture_exact(MIX3, 2.0)
    r1, r2, r3 = result.decay_rates
    assert 0.0 < r1 < 1.0 < r2 < 2.0 < r3 < 4.0
    r = MIX3.model.mean_rate / MIX3.premium_rate
    assert sum(result.constants) == pytest.approx(r, abs=1e-8)


def test_mixture_exact_matches_recursion():
    curve = ruin_panjer(MIX3, 0.005, 6.0)
    for u in (2.0, 5.0):
        assert curve.value(u) == pytest.approx(mixture_exact(MIX3, u).value, rel=0.01)


def test_mixture_dominant_term():
    ratios = []
    for u in (1.0, 5.0, 20.0):
        result = mixture_exact(MIX3, u)
        ratios.append(result.dominant / result.value)
    assert ratios[0] < ratios[1] < ratios[2]
    assert ratios[-1] == pytest.approx(1.0, abs=1e-6)


def test_mixture_coincident_rates_fail_cleanly():
    severity = MixtureOfExponentials((0.5, 0.5), (1.0, float(np.nextafter(1.0, 2.0))))
    sys = RiskSystem(CompoundModel(1.0, severity), 1.5, 0.0)
    with pytest.raises(RootBracketError):
        mixture_exact(sys, 1.0)


# ---------------------------------------------------------------------------
# finite-time formulas
# ---------------------------------------------------------------------------


def test_non_ruin_zero_point_mass():
    sys = RiskSystem(UNIT_MODEL, 2.0, 0.0)
    agg = panjer(1.0, discretize(PointMass(1.0), 0.1), 30)
    value = non_ruin_zero(sys, 1.0, agg)
    assert value == pytest.approx(1.5 * math.exp(-1.0), rel=1e-12)


def test_non_ruin_zero_rare_claims():
    sys = RiskSystem(CompoundModel(0.01, PointMass(1.0)), 2.0, 0.0)
    agg = panjer(0.01, discretize(PointMass(1.0), 0.1), 30)
    assert non_ruin_zero(sys, 1.0, agg) >= 0.99


def test_non_ruin_zero_monotone_in_time():
    sys = RiskSystem(UNIT_MODEL, 2.0, 0.0)
    lat = discretize(PointMass(1.0), 0.1)
    previous = 0.0
    for t in (0.5, 1.0, 2.0, 4.0):
        agg = panjer(1.0 * t, lat, int(2.0 * t / 0.1) + 1)
        ruined = 1.0 - non_ruin_zero(sys, t, agg)
        assert ruined >= previous - 1e-12
        previous = ruined


def test_non_ruin_zero_grid_error():
    sys = RiskSystem(UNIT_MODEL, 2.0, 0.0)
    agg = panjer(1.0, discretize(PointMass(1.0), 1.0), 5)
    with pytest.raises(GridError):
        non_ruin_zero(sys, 1.0, agg)  # c*t/d = 2 cells only


def test_seal_zero_capital_consistency():
    sys = RiskSystem(UNIT_MODEL, 2.0, 0.0)
    t, d = 2.0, 0.1
    result = seal(sys, t, d=d)
    agg = panjer(1.0 * t, discretize(PointMass(1.0), d), int(2.0 * t / d))
    assert result.value == pytest.approx(1.0 - non_ruin_zero(sys, t, agg), abs=1e-12)


def test_seal_large_capital_vanishes():
    sys = RiskSystem(UNIT_MODEL, 2.0, 10.0)
    assert seal(sys, 2.0, d=0.25).value < 1e-4


def test_seal_monotone():
    values_t = [
        seal(RiskSystem(UNIT_MODEL, 2.0, 1.0), t, d=0.25).value for t in (2.0, 3.0, 4.0)
    ]
    assert values_t[0] < values_t[1] < values_t[2]
    values_u = [
        seal(RiskSystem(UNIT_MODEL, 2.0, u), 2.0, d=0.25).value for u in (0.0, 1.0, 2.0)
    ]
    assert values_u[0] > values_u[1] > values_u[2]


def test_seal_returns_its_horizon_aggregate():
    # u + c*t = 5.06 lies between the cells 50 and 51 of span 0.1
    t, d = 2.03, 0.1
    result = seal(RiskSystem(UNIT_MODEL, 2.0, 1.0), t, d=d)
    agg = panjer(t, discretize(PointMass(1.0), d), 51)
    assert result.aggregate.masses.tobytes() == agg.masses.tobytes()
    assert result.beyond == agg.tail(50)


def test_finite_time_sums_refuse_more_cells_than_the_cap():
    # far above the cap: nothing is allocated
    with pytest.raises(GridError, match="exceed the cap"):
        seal(EXP_SYS, 1e12, d=0.01)
    with pytest.raises(GridError, match="exceed the cap"):
        hitting_below(EXP_SYS, 1.0, t=1e13, d=0.01)
    with pytest.raises(GridError, match="exceed the cap"):
        _crossing_sum(discretize(Exponential(1.0), 0.01), np.array([10**12]), np.ones(1),
                      np.ones(1))
    with pytest.raises(GridError, match="exceed the cap"):
        ruin_panjer(EXP_SYS, 0.01, 1e12)


def test_seal_grid_errors():
    with pytest.raises(GridError):
        seal(RiskSystem(UNIT_MODEL, 2.0, 0.13), 2.0, d=0.25)  # u off the lattice
    with pytest.raises(GridError):
        seal(RiskSystem(UNIT_MODEL, 2.0, 1.0), 2.0, d=1.0)  # c*t/d < 10


def test_seal_exponential_severity_discretized():
    # continuous severities run through the same exact lattice machinery
    sys = RiskSystem(CompoundModel(1.0, Exponential(1.0)), 1.25, 1.0)
    result = seal(sys, 4.0, d=0.1)
    assert 0.0 < result.value < 1.0
    assert result.value == pytest.approx(result.beyond + result.crossings, rel=1e-14)
    # bounded by the infinite-horizon probability of the discretized model
    assert result.value <= ruin_panjer(sys, 0.1, 2.0).value(1.0) + 1e-12


# ---------------------------------------------------------------------------
# the streamed finite-time pass against the per-level recursions
# ---------------------------------------------------------------------------


def _severity_masses(system, d):
    exact = system.model.severity.as_distribution()
    return exact if exact is not None else discretize(system.model.severity, d)


def _ballot(masses, d, ct):
    n = np.arange(min(steps_within(ct, d), masses.size - 1) + 1)
    return float(np.dot(np.maximum(1.0 - n * d / ct, 0.0), masses[n]))


def reference_seal(system, t, d):
    """(crossings, value) by one aggregate recursion per level and per remaining time."""
    u, c, lam = system.initial_capital, system.premium_rate, system.model.rate
    sev = _severity_masses(system, d)
    top = steps_within(u + c * t, d)
    crossings = 0.0
    for m in range(int(round(u / d)) + 1, top + 1):
        s_m = (m * d - u) / c
        mass = float(panjer(lam * s_m, sev, m).masses[m])
        remaining = t - s_m
        if remaining * c / d < 0.5:
            survive = math.exp(-lam * remaining) if remaining > 0 else 1.0
        else:
            n_rem = steps_within(c * remaining, d)
            survive = _ballot(panjer(lam * remaining, sev, max(n_rem, 1)).masses, d, c * remaining)
        crossings += mass * survive
    return crossings, panjer(lam * t, sev, max(top, 1)).tail(top) + crossings


def reference_hitting(system, u, t, d):
    c, lam = system.premium_rate, system.model.rate
    sev = _severity_masses(system, d)
    total = math.exp(-lam * u / c)
    for m in range(1, steps_within(c * t - u, d) + 1):
        s_m = (m * d + u) / c
        total += (u / (c * s_m)) * float(panjer(lam * s_m, sev, m).masses[m])
    return min(total, 1.0)


EXP_MODEL = CompoundModel(1.0, Exponential(1.0))


@pytest.mark.parametrize(
    "model, c, u, t, d",
    [
        (EXP_MODEL, 1.25, 2.0, 4.0, 0.01),  # the benchmark's two seal points
        (EXP_MODEL, 1.25, 0.0, 8.0, 0.02),
        (EXP_MODEL, 1.25, 20.0, 8.0, 0.02),  # deep capital, value 1.2e-4
        *[(EXP_MODEL, c, u, t, 0.1) for c in (1.25, 0.8) for u in (0.0, 1.0, 3.0)
          for t in (2.0, 4.0, 9.95)],
        (CompoundModel(2.0, Gamma(2.5)), 6.0, 1.5, 3.0, 0.05),
        (CompoundModel(0.5, Lattice(0.5, (0.2, 0.5, 0.3))), 1.25, 1.0, 4.0, 0.5),
        (UNIT_MODEL, 2.0, 1.0, 2.0, 0.25),
        (CompoundModel(40.0, PointMass(1.0)), 50.0, 2.0, 1.0, 1.0),  # lambda*t near top
        (EXP_MODEL, 1.25, 0.5, 4.0 - 4e-11, 0.1),  # c*t just short of a lattice point
    ],
)
def test_seal_matches_the_per_level_recursions(model, c, u, t, d):
    system = RiskSystem(model, c, u)
    result = seal(system, t, d=d)
    crossings, value = reference_seal(system, t, d)
    assert result.crossings == pytest.approx(crossings, rel=1e-13, abs=0.0)
    assert result.value == pytest.approx(value, rel=1e-13, abs=0.0)


@pytest.mark.parametrize(
    "model, c, u, t, d",
    [
        (EXP_MODEL, 0.8, 2.0, 6.0, 0.01),  # the benchmark's two hitting points
        (EXP_MODEL, 0.8, 1.0, 10.0, 0.02),
        *[(EXP_MODEL, c, u, t, 0.1) for c in (1.25, 0.8) for u in (0.5, 3.0)
          for t in (4.0, 12.05)],
        (CompoundModel(0.5, Lattice(0.5, (0.2, 0.5, 0.3))), 0.5, 1.0, 6.0, 0.5),
    ],
)
def test_hitting_by_matches_the_per_level_recursions(model, c, u, t, d):
    result = hitting_below(RiskSystem(model, c, 0.0), u, t=t, d=d)
    assert result.value_by_t == pytest.approx(
        reference_hitting(RiskSystem(model, c, 0.0), u, t, d), rel=1e-13, abs=0.0
    )


@pytest.mark.parametrize("u, t", [(0.0, 6.0), (3.0, 6.0), (2.0, 12.5)])
def test_seal_crossings_on_unit_claims_are_poisson_masses(u, t):
    # with claims of 1 on span 1 the aggregate at m is N = m claims: a Poisson mass
    lam, c = 1.0, 2.0
    system = RiskSystem(CompoundModel(lam, PointMass(1.0)), c, u)
    expected = 0.0
    for m in range(int(u) + 1, steps_within(u + c * t, 1.0) + 1):
        s_m = (m - u) / c
        r = t - s_m
        n = np.arange(steps_within(c * r, 1.0) + 1)
        weights = np.maximum(1.0 - n / (c * r), 0.0) if r > 0 else (n == 0) * 1.0
        survive = float(np.dot(weights, stats.poisson.pmf(n, lam * r)))
        expected += stats.poisson.pmf(m, lam * s_m) * survive
    assert seal(system, t, d=1.0).crossings == pytest.approx(expected, rel=1e-13, abs=0.0)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.floats(0.01, 1.0), min_size=1, max_size=5),
    st.integers(0, 3),
    st.integers(1, 40),
    st.floats(0.0, 30.0),
    st.booleans(),
    st.integers(0, 40),
    st.randoms(use_true_random=False),
)
# a subnormal largest mean, where scipy's pdtrc(0, mu) underflows to 0
@example([1.0], 0, 1, 1.1e-309, False, 0, random.Random(0))
def test_crossing_sum_stopped_early_is_bounded(sev, gap, top, mu_max, with_survival, last, rnd):
    # claims start at cell gap + 1, so powers beyond top // (gap + 1) miss cells 0..top
    f = Lattice(1.0, (0.0,) * gap + tuple(np.asarray(sev) / sum(sev))).as_distribution()
    exact_at = top // (gap + 1)
    levels = np.arange(1, top + 1)
    draw = np.array([rnd.random() for _ in range(4 * top)]).reshape(4, top)
    means, weights = mu_max * draw[0], draw[1]
    survival = None
    if with_survival:
        n = (draw[2] * (top + 1)).astype(int).clip(0, top)
        survival = (mu_max * draw[3], n, draw[2] / np.maximum(n, 1))
    full = _crossing_sum(f, levels, means, weights, survival, last=top)
    assert full[1:] == (0.0, exact_at)
    value, bound, k = _crossing_sum(f, levels, means, weights, survival, last=last)
    assert k == min(last, exact_at)
    assert value <= full[0] * (1.0 + 1e-12)
    assert full[0] - value <= bound + 1e-12 * full[0]
    if k + 1 >= mu_max or k == exact_at:
        assert math.isfinite(bound)
    stopped, stop_bound, _ = _crossing_sum(f, levels, means, weights, survival)
    assert stop_bound <= 2.0**-53 * stopped
    assert abs(full[0] - stopped) <= stop_bound + 1e-12 * full[0]


def test_crossing_sum_bound_is_tight_on_unit_claims():
    # claims of one cell and one mean: the sum is P(1 <= N <= top) and the part
    # left after power K is P(K < N <= top), within a factor 2 of B_K
    unit, top, mu = Lattice(1.0, (1.0,)).as_distribution(), 60, 10.0
    levels = np.arange(1, top + 1)
    for last in range(9, 41):
        value, bound, k = _crossing_sum(unit, levels, np.full(top, mu), np.ones(top), last=last)
        gap = stats.poisson.sf(last, mu) - stats.poisson.sf(top, mu)
        expected = stats.poisson.cdf(last, mu) - math.exp(-mu)
        assert (k, value) == (last, pytest.approx(expected, rel=1e-12, abs=0.0))
        assert gap <= bound <= 2.0 * gap * (1.0 + 1e-9)


# ---------------------------------------------------------------------------
# hitting the level below
# ---------------------------------------------------------------------------


def test_hitting_below_certain_under_positive_loading():
    result = hitting_below(EXP_SYS, 3.0)
    assert result.value == 1.0
    assert result.root is None


def test_hitting_below_negative_loading_closed_form():
    sys = RiskSystem(CompoundModel(1.0, Exponential(1.0)), 0.8, 0.0)
    result = hitting_below(sys, 4.0)
    assert result.root == pytest.approx(-0.25, rel=1e-10)
    assert result.value == pytest.approx(math.exp(-1.0), rel=1e-10)


def test_hitting_below_before_drift_reaches():
    result = hitting_below(EXP_SYS, 4.0, t=2.0, d=0.25)  # u/c = 3.2 > 2
    assert result.value_by_t == 0.0


def test_hitting_below_at_drift_reach_time():
    # at t = u/c exactly the no-claim path has just reached -u
    sys = RiskSystem(CompoundModel(1.0, Exponential(1.0)), 0.8, 0.0)
    no_claim = math.exp(-1.0 * 2.0 / 0.8)
    at = hitting_below(sys, 2.0, t=2.5, d=0.01).value_by_t
    after = hitting_below(sys, 2.0, t=2.5 * (1.0 + 1e-12), d=0.01).value_by_t
    assert at == pytest.approx(no_claim, rel=1e-12)
    assert at == after


@pytest.mark.parametrize("t", [-3.0, math.nan])
def test_hitting_below_rejects_bad_horizon(t):
    sys = RiskSystem(CompoundModel(1.0, Exponential(1.0)), 0.8, 0.0)
    with pytest.raises(DomainError, match="horizon must be positive"):
        hitting_below(sys, 2.0, t=t, d=0.01)


def test_lattice_severity_fixes_the_span():
    sys = RiskSystem(CompoundModel(1.0, Lattice(0.5, (0.2, 0.5, 0.3))), 1.25, 1.0)
    with pytest.raises(GridError):
        seal(sys, 4.0, d=0.25)
    with pytest.raises(GridError):
        hitting_below(sys, 1.0, t=4.0, d=0.25)
    assert seal(sys, 4.0) == seal(sys, 4.0, d=0.5)
    assert hitting_below(sys, 1.0, t=4.0) == hitting_below(sys, 1.0, t=4.0, d=0.5)


def test_hitting_below_finite_time_convergence():
    # the finite-horizon sum must increase to the discretized model's own
    # infinite-horizon value exp(R_d * u)
    u, d, c = 4.0, 0.1, 0.8
    sys = RiskSystem(CompoundModel(1.0, Exponential(1.0)), c, 0.0)
    lat_sev = Lattice(d, tuple(discretize(Exponential(1.0), d).masses[1:]))
    sol_d = lundberg(RiskSystem(CompoundModel(1.0, lat_sev), c, 0.0))
    limit_d = math.exp(sol_d.R * u)
    values = [hitting_below(sys, u, t=t, d=d).value_by_t for t in (30.0, 60.0, 120.0)]
    assert values[0] < values[1] < values[2] <= limit_d + 1e-9
    assert values[2] == pytest.approx(limit_d, rel=0.01)


def test_hitting_below_loading_equality():
    for c in TANGENT_RATES:
        with pytest.raises(LoadingError, match=TANGENT_MESSAGE):
            hitting_below(RiskSystem(CompoundModel(1.0, Exponential(1.0)), c, 0.0), 1.0)


# ---------------------------------------------------------------------------
# exponential bounds and the ruin-time normal limit
# ---------------------------------------------------------------------------


def test_finite_time_bound_at_time_scale():
    bound = finite_time_bound(EXP_SYS, 5.0, 3.2)
    assert bound.exponent == pytest.approx(0.2, rel=1e-9)
    assert bound.exponent_at_scale == pytest.approx(0.2, rel=1e-9)


def test_finite_time_bound_convexity():
    h2 = finite_time_bound(EXP_SYS, 5.0, 2.0).exponent
    h_scale = finite_time_bound(EXP_SYS, 5.0, 3.2).exponent
    h5 = finite_time_bound(EXP_SYS, 5.0, 5.0).exponent
    assert h_scale < min(h2, h5)
    # midpoint convexity plus a dense-grid minimum equal to R
    grid = np.linspace(1.2, 8.0, 141)
    values = [finite_time_bound(EXP_SYS, 5.0, float(t)).exponent for t in grid]
    for i in range(0, len(grid) - 2, 2):
        assert values[i + 1] < 0.5 * (values[i] + values[i + 2]) + 1e-12
    assert min(values) >= 0.2 - 1e-8
    assert min(values) == pytest.approx(0.2, abs=1e-4)


def test_finite_time_bound_sides():
    assert finite_time_bound(EXP_SYS, 5.0, 2.0).side == "early"
    assert finite_time_bound(EXP_SYS, 5.0, 4.0).side == "late"


def test_finite_time_bound_negative_branch():
    sys = RiskSystem(CompoundModel(1.0, Exponential(1.0)), 0.8, 0.0)
    bound = finite_time_bound(sys, 4.0, 2.0)
    assert bound.side == "early"
    assert bound.exponent > 0
    assert bound.exponent_at_scale == pytest.approx(0.25, rel=1e-9)  # |R|
    with pytest.raises(DomainError):
        finite_time_bound(sys, 4.0, 1.2)  # t <= 1/c


def test_ruin_time_clt_values():
    result = ruin_time_clt(EXP_SYS, 10.0, 40.0)
    assert result.probability == pytest.approx(0.8 * math.exp(-2.0), rel=1e-12)
    assert result.mean == pytest.approx(32.0, rel=1e-10)
    assert result.variance == pytest.approx(1280.0, rel=1e-10)


def test_ruin_time_clt_loading():
    with pytest.raises(LoadingError):
        ruin_time_clt(RiskSystem(CompoundModel(1.0, Exponential(1.0)), 0.9, 0.0), 5.0, 0.0)


# ---------------------------------------------------------------------------
# composite systems
# ---------------------------------------------------------------------------


def test_composite_twin_exponential():
    unit = CompoundModel(1.0, Exponential(1.0))
    split = composite_split(unit, unit, 0.2, 16.0)
    assert split.premium_split[0] == pytest.approx(1.25, rel=1e-12)
    assert split.capital_split[0] == pytest.approx(5.0, rel=1e-12)
    assert split.pooled_premium == pytest.approx(2.5, rel=1e-12)
    assert split.pooled_capital == pytest.approx(10.0, rel=1e-12)
    assert split.pooled_value == pytest.approx(0.8 * math.exp(-2.0), rel=1e-12)
    assert split.product_value == pytest.approx(0.64 * math.exp(-2.0), rel=1e-12)
    assert split.constant_ratio == pytest.approx(0.8, abs=1e-12)


def test_composite_degenerate_unit():
    # a vanishing unit keeps its scale-free constant C2, so the pooled
    # estimate (not the product) recovers the single-unit value
    unit = CompoundModel(1.0, Exponential(1.0))
    tiny = CompoundModel(1e-9, Exponential(1.0))
    split = composite_split(unit, tiny, 0.2, 16.0)
    assert split.premium_split[1] == pytest.approx(0.0, abs=1e-8)
    assert split.capital_split[1] == pytest.approx(0.0, abs=1e-8)
    single = cramer_lundberg_approx(RiskSystem(unit, 1.25, 0.0), split.capital_split[0])
    assert split.pooled_value == pytest.approx(single.value, rel=1e-6)
    assert split.product_value == pytest.approx(
        split.constants[1] * single.value, rel=1e-6
    )


def test_composite_constant_comparability():
    pairs = [
        (CompoundModel(1.0, Exponential(1.0)), CompoundModel(0.5, Gamma(2.0))),
        (CompoundModel(2.0, Exponential(2.0)), CompoundModel(1.0, PointMass(0.7))),
        (
            CompoundModel(1.0, MixtureOfExponentials((0.5, 0.5), (1.0, 3.0))),
            CompoundModel(1.0, Exponential(1.5)),
        ),
    ]
    for model_a, model_b in pairs:
        split = composite_split(model_a, model_b, 0.3, 10.0)
        lo, hi = sorted(split.constants)
        assert lo - 1e-12 <= split.constant_ratio <= hi + 1e-12


def test_composite_domain():
    unit = CompoundModel(1.0, Exponential(1.0))
    with pytest.raises(DomainError):
        composite_split(unit, CompoundModel(1.0, Exponential(0.3)), 0.4, 10.0)
    with pytest.raises(DomainError):
        composite_split(unit, unit, -0.1, 10.0)


# ---------------------------------------------------------------------------
# roots held on the model
# ---------------------------------------------------------------------------

CLAIM_KINDS = [
    Exponential(1.0),
    Gamma(2.5),
    PointMass(1.0),
    MixtureOfExponentials((0.4, 0.6), (0.5, 2.0)),
    Lattice(0.5, (0.3, 0.5, 0.2)),
]


def _roots_of(model):
    """entropy on both sides of the mean, lundberg and, for exponential kinds,
    mixture_exact at two capitals."""
    mean = model.mean_rate
    system = RiskSystem(model, 1.25 * mean)
    found = [entropy(model, 1.5 * mean), entropy(model, 0.5 * mean), lundberg(system)]
    if model.severity.as_mixture() is not None:
        found += [mixture_exact(system, 0.0), mixture_exact(system, 7.0)]
    return found


@pytest.mark.parametrize("severity", CLAIM_KINDS, ids=lambda s: type(s).__name__)
def test_memoized_roots_match_a_fresh_model_bit_for_bit(severity):
    model = CompoundModel(1.0, severity)
    first = _roots_of(model)
    again = _roots_of(model)
    assert all(a is b for a, b in zip(first[:3], again[:3]))  # the stored objects
    fresh = _roots_of(CompoundModel(1.0, severity))
    assert [repr(a) for a in again] == [repr(b) for b in fresh]  # repr round-trips floats

    twin = CompoundModel(1.0, severity)
    assert model._roots and not twin._roots
    assert model == twin
    assert hash(model) == hash(twin)
    assert repr(model) == repr(twin)


def test_failed_solves_are_not_stored():
    model = CompoundModel(1.0, Gamma(2.5))
    for _ in range(2):
        with pytest.raises(LoadingError):
            lundberg(RiskSystem(model, model.mean_rate))
        with pytest.raises(DomainError, match="exponential or mixture severity"):
            mixture_exact(RiskSystem(model, 1.25 * model.mean_rate), 1.0)
        with pytest.raises(DomainError, match="level must be positive"):
            entropy(model, 0.0)
    assert model._roots == {}


def _record_newton(monkeypatch):
    """Every safeguarded_newton call of lundberg, entropy and the mixture roots,
    as its (f, fprime); the solves themselves run unchanged."""
    calls = []
    solve = ruin_module.safeguarded_newton

    def recorded(f, fprime, *args, **kwargs):
        calls.append((f, fprime))
        return solve(f, fprime, *args, **kwargs)

    for module in (ruin_module, cumulant_module):
        monkeypatch.setattr(module, "safeguarded_newton", recorded)
    return calls


# Newton solves of the adjustment coefficient and one tilt, by claim kind: exponential
# claims give both in closed form, Gamma and point-mass claims the tilt only
NEWTON_SOLVES = {"Exponential": 0, "Gamma": 1, "PointMass": 1, "MixtureOfExponentials": 2,
                 "Lattice": 2}


@pytest.mark.parametrize("loading", [1.25, 0.8], ids=["positive", "negative"])
@pytest.mark.parametrize("severity", CLAIM_KINDS, ids=lambda s: type(s).__name__)
def test_finite_time_bound_reads_the_scale_exponent_from_the_root(monkeypatch, severity, loading):
    # H(tbar) = |R|: the level at the time scale is g'(R), whose tilt is R itself
    calls = _record_newton(monkeypatch)
    model = CompoundModel(1.3, severity)
    system = RiskSystem(model, loading * model.mean_rate)
    bound = finite_time_bound(system, 3.0, 2.0 / system.premium_rate)
    # two roots computed: the adjustment coefficient and the entropy at c +- 1/t
    assert [key[0] for key in model._roots] == ["lundberg", "entropy"]
    assert len(calls) == NEWTON_SOLVES[type(severity).__name__]
    assert bound.exponent_at_scale == pytest.approx(abs(bound.R), rel=1e-14)
    assert bound.exponent >= abs(bound.R) * (1.0 - 1e-12)  # the minimum of H is at tbar


def test_one_component_mixture_decays_at_the_exponential_rate():
    # a one-component weight a rounding below one is stored as one: R = b - lambda/c
    mix = MixtureOfExponentials((0.9999999999999999,), (2.0,))
    system = RiskSystem(CompoundModel(1.5, mix), 1.25)
    exponential = RiskSystem(CompoundModel(1.5, Exponential(2.0)), 1.25)
    assert mixture_exact(system, 1.0).decay_rates == (2.0 - 1.5 / 1.25,)
    assert mixture_exact(system, 3.0).value == mixture_exact(exponential, 3.0).value


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 4), st.floats(0.3, 1.5), st.floats(0.3, 3.0), st.floats(1.05, 3.0),
       st.floats(0.0, 1.0), st.integers(0, 2**32 - 1))
def test_mixture_root_functions_match_the_np_sum_expressions_bit_for_bit(
    n, base, lam, loading, frac, seed
):
    rnd = np.random.default_rng(seed)
    weights = rnd.dirichlet(np.ones(n))
    rates = base + np.cumsum(np.concatenate([[0.0], rnd.uniform(0.2, 2.0, n - 1)]))
    mix = MixtureOfExponentials(tuple(weights), tuple(rates))
    model = CompoundModel(lam, mix)
    system = RiskSystem(model, loading * model.mean_rate)
    with pytest.MonkeyPatch.context() as patch:
        calls = _record_newton(patch)
        result = mixture_exact(system, 1.0)
    assert len(calls) == (n if n > 1 else 0)  # one solve per decay rate, none for one
    if n == 1:  # the closed form b - lambda*w/c; at w = 1 the exponential law's R bit for bit
        assert result.decay_rates == (rates[0] - lam * mix.weights[0] / system.premium_rate,)
        exponential = RiskSystem(CompoundModel(lam, Exponential(rates[0])), system.premium_rate)
        assert mixture_exact(exponential, 1.0).decay_rates == (lundberg(exponential).R,)
    # the closures' old np.sum expressions, evaluated inside each root's interval
    w, b, c = np.asarray(mix.weights), np.asarray(mix.rates), system.premium_rate
    edges = np.concatenate([[0.0], b])
    for i, (psi, psi_prime) in enumerate(calls):
        xi = float(edges[i] + frac * (edges[i + 1] - edges[i]))
        if xi in b:
            continue  # a pole
        assert psi(xi) == float(lam * np.sum(w / (b - xi))) - c
        assert psi_prime(xi) == float(lam * np.sum(w / (b - xi) ** 2))
    r = model.mean_rate / c
    gp_extended = [float(lam * np.sum(w * b / (b - root) ** 2)) for root in result.decay_rates]
    assert result.constants == tuple(c * (1.0 - r) / (gp - c) for gp in gp_extended)
