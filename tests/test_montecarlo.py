"""Simulation oracle: determinism, distributional checks, and an exact
replay of the vectorized engine against a slow per-path reference."""

import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

from collrisk import (
    BudgetError,
    CompoundModel,
    DomainError,
    Exponential,
    Gamma,
    InsufficientRuinsError,
    Lattice,
    MixtureOfExponentials,
    PointMass,
    RiskSystem,
    SimulationPlan,
    ruin_time_samples,
    ruin_times_text,
    simulate,
)
from collrisk import montecarlo
from collrisk.montecarlo import _cursor, estimate_key, severity_sampler
from collrisk.severity import exponential_draws

EXP_SYS = RiskSystem(CompoundModel(1.0, Exponential(1.0)), 1.25, 0.0)
UNIT_SYS = RiskSystem(CompoundModel(1.0, PointMass(1.0)), 2.0, 0.0)
# one severity of each kind, each with a premium rate 1.25 times its mean claim
SEVERITIES = {
    "exponential": Exponential(1.0),
    "gamma": Gamma(2.5),
    "point": PointMass(1.0),
    "lattice": Lattice(0.25, (0.1, 0.2, 0.3, 0.25, 0.15)),
    "mixture": MixtureOfExponentials((0.4, 0.6), (0.5, 2.0)),
}


def loaded_system(severity):
    return RiskSystem(CompoundModel(1.0, severity), 1.25 * severity.mean, 0.0)


# ---------------------------------------------------------------------------
# determinism
# ---------------------------------------------------------------------------


def make_plan(**kw):
    base = dict(
        system=EXP_SYS,
        horizon=40.0,
        n_paths=20_000,
        seed=5,
        tail_probes=((10.0, 1.5),),
        ruin_levels=(2.0,),
        hitting_levels=(1.0,),
        collect_ruin_times=2.0,
    )
    base.update(kw)
    return SimulationPlan(**base)


def test_same_seed_reproduces_bitwise():
    r1, r2 = simulate(make_plan()), simulate(make_plan())
    assert r1.estimates == r2.estimates
    assert np.array_equal(r1.ruin_times, r2.ruin_times)
    assert r1.diagnostics == r2.diagnostics


def test_worker_count_does_not_change_results():
    r1 = simulate(make_plan(workers=1))
    r8 = simulate(make_plan(workers=8))
    assert r1.estimates == r8.estimates
    assert np.array_equal(r1.ruin_times, r8.ruin_times)


def test_worker_count_does_not_change_gamma_results():
    # Gamma claims come from a rejection sampler, so the raw draws per claim
    # vary; each chunk's own stream keeps the estimates bit-identical
    system = RiskSystem(CompoundModel(1.0, Gamma(2.5)), 3.0, 0.0)
    plan = make_plan(system=system, n_paths=8_000, chunk_paths=1_000, collect_ruin_times=None,
                     tail_probes=((10.0, 3.0),), ruin_levels=(4.0,))
    r1 = simulate(plan)
    r4 = simulate(replace(plan, workers=4))
    assert r1.estimates == r4.estimates


def test_different_seeds_differ():
    assert simulate(make_plan()).estimates != simulate(make_plan(seed=6)).estimates


@pytest.mark.parametrize("seed", [-1, -3, 2**64, 2**70])
def test_plan_refuses_a_seed_outside_the_key_range(seed):
    with pytest.raises(DomainError, match=rf"seed must lie in \[0, 2\*\*64\), got {seed}"):
        make_plan(seed=seed)


def test_seeds_past_2_to_the_63_have_their_own_streams():
    # a key list holding such a seed is a float64 array, under which nearby seeds share a stream
    small = dict(n_paths=2_000, horizon=10.0)
    results = [simulate(make_plan(seed=s, **small)) for s in (2**63, 2**63 + 5, 2**64 - 1, 0)]
    streams = {tuple(est.value for est in r.estimates.values()) for r in results}
    assert len(streams) == 4


# ---------------------------------------------------------------------------
# slow per-path reference of the vectorized engine
# ---------------------------------------------------------------------------


def whole_chunk_draws(seed, chunk_id, n_paths, lam_t, sampler):
    """Every draw of one chunk from one generator, in the stream order the
    engine reaches through its cursors: one Poisson count per path, one
    uniform per inner gap (all paths' gaps in path order), one per closing
    gap, then all the claims in one sampler call."""
    key = np.array([seed, chunk_id], dtype=np.uint64)
    rng = np.random.Generator(np.random.Philox(key=key))
    counts = rng.poisson(lam_t, n_paths)
    gaps = exponential_draws(rng, int(counts.sum()))
    closing = exponential_draws(rng, n_paths)
    return counts, gaps, closing, sampler(rng, gaps.size)


def reference_paths(plan):
    """Replay the whole-chunk draw schedule of the plan's one chunk and split
    it into paths, so that the estimators can be evaluated with loops. The
    arrival times follow the engine's arithmetic for a chunk taken as one
    block, which gives the same bits as any block size."""
    sys = plan.system
    counts, gaps, closing, x_ev = whole_chunk_draws(
        plan.seed, 0, plan.n_paths, sys.model.rate * plan.horizon,
        severity_sampler(sys.model.severity),
    )
    cum = np.cumsum(np.concatenate([[0.0], gaps]))
    starts = np.cumsum(counts) - counts
    denom = cum[starts + counts] - cum[starts] + closing
    paths = []
    for start, n, d in zip(starts, counts, denom):
        times = plan.horizon * (cum[start + 1 : start + n + 1] - cum[start]) / d
        paths.append((times, x_ev[start : start + n].copy()))
    return paths


def slow_first_ruin(times, sizes, c, u):
    s = 0.0
    for t, x in zip(times, sizes):
        s += x
        if s - c * t > u:
            return t
    return math.inf


def slow_first_hit(times, sizes, c, u, horizon):
    # crossing of -u happens while drifting between jumps
    s_prev, t_prev = 0.0, 0.0
    for t, x in zip(times, sizes):
        cross = (s_prev + u) / c
        if t_prev < cross <= t:
            return cross
        s_prev += x
        t_prev = t
    cross = (s_prev + u) / c
    if t_prev < cross <= horizon:
        return cross
    return math.inf


def engine_probes(m):
    """The reference test's plans, with every level in units of the claim mean m."""
    return [
        # make_plan's one probe of each kind; the collected level is its ruin level
        dict(
            tail_probes=((10.0, 1.5 * m),),
            ruin_levels=(2.0 * m,),
            hitting_levels=(m,),
            collect_ruin_times=2.0 * m,
        ),
        # several of each, a level of each kind that no path reaches, and a
        # collected level equal to the second ruin level
        dict(
            tail_probes=((10.0, 1.5 * m), (5.0, 0.5 * m), (30.0, 50.0 * m)),
            ruin_levels=(2.0 * m, 0.5 * m, 1e3 * m, 4.0 * m),
            hitting_levels=(m, 1e3 * m, 4.0 * m),
            collect_ruin_times=0.5 * m,
        ),
    ]


# the five claim laws at loading 0.25, and one law with negative loading, under
# which ruin at every level is certain in the long run
ENGINE_SYSTEMS = {
    **{name: loaded_system(severity) for name, severity in SEVERITIES.items()},
    "negative-loading": RiskSystem(CompoundModel(1.0, Exponential(1.0)), 0.8, 0.0),
}


@pytest.mark.parametrize("system", ENGINE_SYSTEMS.values(), ids=ENGINE_SYSTEMS.keys())
def test_vectorized_engine_matches_reference(system):
    m = system.model.severity.mean
    unreached = {
        estimate_key("tail", t=30.0, x=50.0 * m),
        estimate_key("ruin", u=1e3 * m),
        estimate_key("hitting", u=1e3 * m),
    }
    for probes in engine_probes(m):
        plan = make_plan(system=system, n_paths=400, horizon=30.0, chunk_paths=400, **probes)
        result = simulate(plan)
        paths = reference_paths(plan)
        c, n = plan.system.premium_rate, plan.n_paths
        names = []

        for t, x in plan.tail_probes:
            tail_hits = sum(
                1 for times, sizes in paths if sizes[times <= t].sum() >= t * x
            )
            names.append(estimate_key("tail", t=t, x=x))
            assert result.estimates[names[-1]].value == tail_hits / n

        for u in plan.ruin_levels:
            ruin_times = [
                slow_first_ruin(times, sizes, c, u) for times, sizes in paths
            ]
            finite = [rt for rt in ruin_times if math.isfinite(rt)]
            names.append(estimate_key("ruin", u=u))
            assert result.estimates[names[-1]].value == len(finite) / n
            if u == plan.collect_ruin_times:
                assert np.array_equal(result.ruin_times, np.array(finite))

        for uh in plan.hitting_levels:
            hits = [
                slow_first_hit(times, sizes, c, uh, plan.horizon) for times, sizes in paths
            ]
            n_hits = sum(1 for h in hits if math.isfinite(h))
            names.append(estimate_key("hitting", u=uh))
            assert result.estimates[names[-1]].value == n_hits / n

        # the collected level keeps its ruin level's place
        assert list(result.estimates) == names
        for name in names:
            assert (result.estimates[name].value == 0.0) == (name in unreached), name


@pytest.mark.parametrize("horizon", [0.5, 30.0], ids=["mostly-empty", "long"])
def test_block_size_does_not_change_any_bit(monkeypatch, horizon):
    # one path per block, the default, and one block per chunk; at horizon
    # 0.5 about 61% of the paths have no claim, so many one-path blocks are
    # empty, and at horizon 30 the default splits each full chunk in four
    for name, severity in SEVERITIES.items():
        plan = make_plan(
            system=loaded_system(severity),
            horizon=horizon, n_paths=3_000, seed=47, chunk_paths=1_300,
            tail_probes=((horizon / 3, 1.0), (horizon, 1.5)), ruin_levels=(0.1, 2.0),
            hitting_levels=(0.2, 1.0), collect_ruin_times=0.5,
        )
        runs = []
        for block_events in (1, montecarlo.BLOCK_EVENTS, 10**9):
            monkeypatch.setattr(montecarlo, "BLOCK_EVENTS", block_events)
            result = simulate(plan)
            runs.append((result.estimates, result.ruin_times.tobytes(), result.diagnostics))
        monkeypatch.undo()  # the next law reads the default BLOCK_EVENTS again
        assert runs[0] == runs[1] == runs[2], name
        assert result.ruin_times.size > 0, name
        assert result.estimates["hitting(u=0.2)"].value > 0.0, name


@pytest.mark.parametrize("u", [0.0, 2.0, 8.0])
def test_first_breach_gather_and_full_scan_agree_bit_for_bit(monkeypatch, u):
    # the collected level's ruin times from the ruined paths' gathered events
    # and from a scan of every event, at ruin frequencies from 0.8 down
    for name, severity in SEVERITIES.items():
        plan = make_plan(system=loaded_system(severity), horizon=30.0, n_paths=3_000, seed=61,
                         chunk_paths=1_000, tail_probes=(), ruin_levels=(), hitting_levels=(),
                         collect_ruin_times=u * severity.mean)
        runs = []
        for dense in (0.0, 1.0):  # scan whenever a path is ruined; gather always
            monkeypatch.setattr(montecarlo, "DENSE_RUIN", dense)
            runs.append(simulate(plan).ruin_times.tobytes())
        assert runs[0] == runs[1] and len(runs[0]) > 0, name


def traced_peak(plan):
    """The result of ``simulate(plan)`` and the peak of its traced allocations."""
    tracemalloc.start()
    try:
        result = simulate(plan)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak


def test_chunk_memory_does_not_grow_with_its_events():
    # one chunk of 6,250 paths at horizon 32 (about 2e5 events) and at
    # horizon 320 (about 2e6): the draws exist one block at a time, so the
    # peak is the per-path outputs plus one block, whatever the event count
    for name, severity in SEVERITIES.items():
        peaks = []
        for horizon in (32.0, 320.0):
            plan = make_plan(
                system=loaded_system(severity),
                horizon=horizon, n_paths=6_250, seed=53,
                tail_probes=((horizon / 3, 1.0),), ruin_levels=(5.0,), hitting_levels=(5.0,),
                collect_ruin_times=10.0,
            )
            result, peak = traced_peak(plan)
            assert result.diagnostics["chunk_paths"] >= plan.n_paths, name
            peaks.append(peak)
        assert result.diagnostics["events"] > 1.9e6, name
        assert peaks[1] <= 1.05 * peaks[0], (name, peaks)


def test_chunk_memory_does_not_grow_with_the_hitting_levels():
    # one 2e6-event chunk with 1 and with 64 hitting levels: one per-path
    # trough answers every level, so the peak is the same
    peaks = []
    for n_levels in (1, 64):
        plan = make_plan(
            horizon=320.0, n_paths=6_250, seed=59, tail_probes=(), ruin_levels=(),
            hitting_levels=tuple(float(u) for u in range(1, n_levels + 1)),
            collect_ruin_times=None,
        )
        result, peak = traced_peak(plan)
        assert result.diagnostics["chunk_paths"] >= plan.n_paths
        assert len(result.estimates) == n_levels
        peaks.append(peak)
    assert peaks[1] <= 1.05 * peaks[0], peaks


def test_a_ruin_level_costs_no_more_memory_than_a_tail_probe():
    # one 2e6-event chunk, once with one tail probe before the horizon and
    # once with one ruin level: each block's arrays are dropped before the
    # next block is drawn, and the excess is built in place, so the scans
    # peak alike. A probe at the horizon draws no arrival times and peaks lower.
    none = dict(tail_probes=(), ruin_levels=(), hitting_levels=(), collect_ruin_times=None)
    for name, severity in SEVERITIES.items():
        peaks = []
        for probes in (dict(tail_probes=((160.0, 1.0),)), dict(ruin_levels=(5.0,)),
                       dict(tail_probes=((320.0, 1.0),))):
            plan = make_plan(system=loaded_system(severity), horizon=320.0, n_paths=6_250,
                             seed=53, **{**none, **probes})
            result, peak = traced_peak(plan)
            assert result.diagnostics["chunk_paths"] >= plan.n_paths, name
            peaks.append(peak)
        assert peaks[1] <= 1.02 * peaks[0], (name, peaks)
        assert peaks[2] < peaks[0], (name, peaks)


def test_ruin_at_jump_and_hitting_between_jumps():
    plan = make_plan(n_paths=600, horizon=30.0, chunk_paths=600)
    result = simulate(plan)
    paths = reference_paths(plan)
    c = plan.system.premium_rate
    u = plan.collect_ruin_times

    reported = list(result.ruin_times)
    k = 0
    for times, sizes in paths:
        rt = slow_first_ruin(times, sizes, c, u)
        if not math.isfinite(rt):
            continue
        t_reported = reported[k]
        k += 1
        # every ruin time coincides with a jump epoch
        assert np.any(times == t_reported)
        # and the surplus is strictly above u right after that jump
        s = sizes[times <= t_reported].sum()
        assert s - c * t_reported > u
    assert k == len(reported)

    for times, sizes in paths[:200]:
        hit = slow_first_hit(times, sizes, c, 1.0, plan.horizon)
        if not math.isfinite(hit):
            continue
        assert not np.any(times == hit)  # strictly between jumps
        s_before = sizes[times < hit].sum()
        assert abs(s_before - c * hit + 1.0) <= 1e-9  # U(T) = -u exactly


# ---------------------------------------------------------------------------
# distributional checks
# ---------------------------------------------------------------------------


def test_poisson_counts():
    # a chunk's path counts at rate 1 and horizon 7 are draws of N(7), and
    # the engine's chunk holds as many events as they add up to
    lam_t, n_paths = 7.0, 100_000
    counts = whole_chunk_draws(17, 0, n_paths, lam_t, severity_sampler(Exponential(1.0)))[0]
    mean_se = math.sqrt(lam_t / n_paths)
    var_se = math.sqrt((2 * lam_t**2 + lam_t) / n_paths)
    assert abs(counts.mean() - lam_t) <= 3 * mean_se
    assert abs(counts.var(ddof=1) - lam_t) <= 3 * var_se
    plan = SimulationPlan(EXP_SYS, lam_t, n_paths, 17, chunk_paths=n_paths)
    assert simulate(plan).diagnostics["events"] == counts.sum()


@given(
    seed=st.integers(0, 2**64 - 1),
    lam_t=st.floats(0.05, 60.0),
    n_paths=st.integers(1, 40),
    words=st.integers(0, 5_000),
)
@settings(max_examples=60, deadline=None)
# the Poisson draws leave the stream at buffer positions 2, 1, 3 and 4 of a Philox block
@example(seed=5, lam_t=3.0, n_paths=1, words=0)
@example(seed=5, lam_t=3.0, n_paths=2, words=1)
@example(seed=5, lam_t=3.0, n_paths=3, words=6)
@example(seed=5, lam_t=3.0, n_paths=7, words=3)
@example(seed=2**64 - 1, lam_t=30.0, n_paths=40, words=4_999)
def test_cursor_draws_what_the_sequential_stream_draws(seed, lam_t, n_paths, words):
    bit_generator = np.random.Philox(key=np.array([seed, 3], dtype=np.uint64))
    rng = np.random.Generator(bit_generator)
    rng.poisson(lam_t, n_paths)
    assert bit_generator.state["has_uint32"] == 0  # whole words only
    cursor = _cursor(bit_generator, words)
    # the cursor leaves the stream it was opened on where it was
    sequential = rng.random(words + 9)[words:]
    assert cursor.random(9).tobytes() == sequential.tobytes()


@pytest.mark.parametrize("split", [(0, 7), (1, 1), (3, 5), (250, 1), (1_000, 333)])
@pytest.mark.parametrize("severity", [*SEVERITIES.values(), Gamma(0.5)],
                         ids=[*SEVERITIES.keys(), "gamma-shape0.5"])
def test_sample_in_two_calls_is_one_call(severity, split):
    a, b = split
    key = np.array([123, 0], dtype=np.uint64)
    once = severity.sample(np.random.Generator(np.random.Philox(key=key)), a + b)
    rng = np.random.Generator(np.random.Philox(key=key))
    twice = np.concatenate([severity.sample(rng, a), severity.sample(rng, b)])
    assert twice.tobytes() == once.tobytes()


def test_point_mass_tail_probe():
    plan = SimulationPlan(
        system=UNIT_SYS,
        horizon=1.0,
        n_paths=100_000,
        seed=19,
        tail_probes=((1.0, 1.0),),
    )
    est = simulate(plan).estimates["tail(t=1;x=1)"]
    expected = 1.0 - math.exp(-1.0)
    assert abs(est.value - expected) <= 3 * est.std_error


def test_exponential_ruin_frequency():
    plan = SimulationPlan(
        system=EXP_SYS,
        horizon=500.0,
        n_paths=20_000,
        seed=23,
        ruin_levels=(5.0,),
    )
    est = simulate(plan).estimates["ruin(u=5)"]
    assert abs(est.value - 0.8 * math.exp(-1.0)) <= 3 * est.std_error


def test_far_barrier_never_ruins():
    plan = SimulationPlan(
        system=RiskSystem(CompoundModel(1.0, Exponential(1.0)), 1.25, 0.0),
        horizon=10.0,
        n_paths=5_000,
        seed=29,
        ruin_levels=(1e3,),
    )
    assert simulate(plan).estimates["ruin(u=1000)"].value == 0.0


@pytest.mark.parametrize(
    "severity,mean",
    [
        (Gamma(2.0), 2.0),
        (MixtureOfExponentials((0.5, 0.5), (1.0, 2.0)), 0.75),
        (Lattice(0.5, (0.2, 0.3, 0.5)), 0.5 * (0.2 + 0.6 + 1.5)),
    ],
)
def test_severity_samplers_unbiased(severity, mean):
    rng = np.random.Generator(np.random.Philox(key=[123, 0]))
    draws = severity_sampler(severity)(rng, 40_000)
    se = draws.std(ddof=1) / math.sqrt(draws.size)
    assert abs(draws.mean() - mean) <= 3.5 * se


@pytest.mark.parametrize(
    "severity",
    [Gamma(0.5), Gamma(1.0), Gamma(2.5), Gamma(4.0), Gamma(2.5).tilt(0.3)],
    ids=["shape0.5", "shape1", "shape2.5", "shape4", "tilted"],
)
def test_gamma_sampler_matches_its_survival_function(severity):
    # Kolmogorov-Smirnov against 1 - sf; seeded, so the verdict is fixed.
    # Threshold: p-value above 1e-3, i.e. sqrt(n) * D below about 1.95.
    rng = np.random.Generator(np.random.Philox(key=[31, 0]))
    draws = severity_sampler(severity)(rng, 20_000)
    result = stats.kstest(draws, lambda x: 1.0 - np.array([severity.sf(v) for v in x]))
    assert result.pvalue > 1e-3


def test_lattice_sampler_frequencies():
    severity = Lattice(0.5, (0.2, 0.3, 0.5))
    rng = np.random.Generator(np.random.Philox(key=[7, 7]))
    draws = severity_sampler(severity)(rng, 60_000)
    for point, mass in [(0.5, 0.2), (1.0, 0.3), (1.5, 0.5)]:
        freq = np.mean(draws == point)
        se = math.sqrt(mass * (1 - mass) / draws.size)
        assert abs(freq - mass) <= 3.5 * se


@pytest.mark.parametrize(
    "severity,first_draws",
    [
        (Exponential(1.5), [
            0.4851663141167238, 0.13539754797292897, 0.15954684822743706,
            0.1571222342324115, 0.300464801800098, 0.07493054922086588,
            1.7370221211541443, 0.41256011959961375,
        ]),
        (Gamma(2.5), [
            1.8286922671240844, 4.484591380680802, 3.0673522177390975,
            1.0417263001489692, 0.4203131960052482, 1.3729820731079727,
            2.9517119147500743, 0.7665634030203592,
        ]),
        (PointMass(1.25), [1.25] * 8),
        (MixtureOfExponentials((0.4, 0.6), (0.5, 2.0)), [
            0.10154816097969672, 0.4713667026972345, 0.22479164766259765,
            0.3094200896997103, 0.016534826319046396, 2.573534607486171,
            0.8314822188770195, 0.21891128328051002,
        ]),
        (Lattice(0.25, (0.1, 0.05, 0.4, 0.15, 0.3)), [
            0.75, 0.75, 0.5, 0.5, 1.25, 0.75, 0.75, 0.75,
        ]),
    ],
    ids=["exponential", "gamma", "point", "mixture", "lattice"],
)
def test_severity_sample_stream_is_pinned(severity, first_draws):
    # recorded values: any change to a draw rule changes every simulation
    rng = np.random.Generator(np.random.Philox(key=[123, 0]))
    assert severity.sample(rng, 8).tolist() == first_draws


# ---------------------------------------------------------------------------
# conditional ruin-time study
# ---------------------------------------------------------------------------


def test_ruin_time_study_moments():
    # u = 5 is pre-asymptotic: the overshoot shifts the mean up by O(tbar)
    # and the horizon truncation clips the long tail, so only coarse
    # agreement with u*tbar is meaningful here (the sharp check lives in the
    # acceptance suite at u = 20)
    plan = SimulationPlan(
        system=EXP_SYS,
        horizon=320.0,
        n_paths=40_000,
        seed=31,
        collect_ruin_times=5.0,
    )
    study = ruin_time_samples(plan)
    assert study.expected_mean == pytest.approx(16.0, rel=1e-10)
    assert study.expected_variance == pytest.approx(640.0, rel=1e-10)
    # observed at this seed: mean 19.8 (= u*tbar plus ~tbar of overshoot),
    # variance 733
    assert abs(study.mean - study.expected_mean) <= 0.3 * study.expected_mean
    assert abs(study.variance - study.expected_variance) <= 0.25 * study.expected_variance
    assert study.pre_asymptotic  # R*u = 1 < 2 flags the normal regime


def test_ruin_time_study_flags_small_capital():
    plan = SimulationPlan(
        system=EXP_SYS,
        horizon=10.0,
        n_paths=2_000,
        seed=37,
        collect_ruin_times=0.5,
    )
    study = ruin_time_samples(plan)
    assert study.pre_asymptotic


def test_ruin_time_study_needs_ruins():
    plan = SimulationPlan(
        system=EXP_SYS,
        horizon=320.0,
        n_paths=1_000,
        seed=41,
        collect_ruin_times=20.0,
    )
    with pytest.raises(InsufficientRuinsError):
        ruin_time_samples(plan)


def test_ruin_time_study_horizon_precondition():
    plan = SimulationPlan(
        system=EXP_SYS,
        horizon=100.0,
        n_paths=1_000,
        seed=43,
        collect_ruin_times=20.0,
    )
    with pytest.raises(DomainError):
        ruin_time_samples(plan)


# ---------------------------------------------------------------------------
# guardrails and text output
# ---------------------------------------------------------------------------


def test_event_budget():
    plan = SimulationPlan(
        system=EXP_SYS,
        horizon=100.0,
        n_paths=100_000_000,  # 1e10 expected events, past the 2e9 budget
        seed=1,
    )
    with pytest.raises(BudgetError):
        simulate(plan)


def test_plan_validation():
    with pytest.raises(DomainError):
        SimulationPlan(system=EXP_SYS, horizon=0.0, n_paths=10, seed=1)
    with pytest.raises(DomainError):
        SimulationPlan(system=EXP_SYS, horizon=1.0, n_paths=0, seed=1)
    for chunk_paths in (0, -5):
        with pytest.raises(DomainError, match=f"chunk_paths must be >= 1, got {chunk_paths}"):
            SimulationPlan(system=EXP_SYS, horizon=1.0, n_paths=10, seed=1, chunk_paths=chunk_paths)


@pytest.mark.parametrize(
    "field,value,message",
    [
        ("tail_probes", ((20.0, 1.0),), r"tail_probes times must lie in \(0, 10\], got 20"),
        ("tail_probes", ((0.0, 1.0),), r"tail_probes times must lie in \(0, 10\], got 0"),
        ("ruin_levels", (2.0, -1.0), "ruin_levels must be >= 0, got -1"),
        ("collect_ruin_times", -1.0, "collect_ruin_times must be >= 0, got -1"),
        ("hitting_levels", (0.0,), "hitting_levels must be positive, got 0"),
        ("hitting_levels", (1.0, -1.0), "hitting_levels must be positive, got -1"),
    ],
    ids=["tail-past-horizon", "tail-at-zero", "ruin-negative", "collected-negative",
         "hitting-zero", "hitting-negative"],
)
def test_plan_refuses_levels_outside_their_analytic_domains(field, value, message):
    # the domains of ruin_panjer and hitting_below: a tail probe past the
    # horizon would count only the loss up to it, ruin below 0 is certain at
    # time 0, and U starts at 0, so passage to 0 or above is immediate
    with pytest.raises(DomainError, match=message):
        make_plan(horizon=10.0, **{field: value})


def test_plan_accepts_the_edges_of_those_domains():
    plan = make_plan(horizon=10.0, n_paths=500, tail_probes=((10.0, 1.0),),
                     ruin_levels=(0.0,), hitting_levels=(1e-9,), collect_ruin_times=0.0)
    assert len(simulate(plan).estimates) == 3


def test_levels_that_agree_to_six_digits_get_their_own_estimates():
    plan = make_plan(n_paths=2_000, ruin_levels=(2.0, 2.0000001),
                     hitting_levels=(1.0, 1.0000001), collect_ruin_times=None)
    assert list(simulate(plan).estimates) == [
        "tail(t=10;x=1.5)", "ruin(u=2)", "ruin(u=2.0000001)", "hitting(u=1)",
        "hitting(u=1.0000001)",
    ]


def test_estimates_shape():
    plan = SimulationPlan(
        system=UNIT_SYS,
        horizon=1.0,
        n_paths=2_000,
        seed=3,
        tail_probes=((1.0, 1.0),),
        ruin_levels=(0.5,),
    )
    result = simulate(plan)
    assert result.seed == 3
    assert list(result.estimates) == ["tail(t=1;x=1)", "ruin(u=0.5)"]
    for est in result.estimates.values():
        assert 0.0 <= est.value <= 1.0
        assert est.std_error >= 0.0
        assert est.n_effective == 2_000


def test_estimates_are_pinned():
    # recorded before tail, ruin and hitting counts shared one count vector:
    # any change to the stream, the scan or the reduction order shows here
    plan = make_plan(
        horizon=30.0, n_paths=3_000, seed=13, chunk_paths=700,
        tail_probes=((10.0, 1.5), (5.0, 0.5)), ruin_levels=(2.0, 0.5, 50.0),
        hitting_levels=(1.0, 4.0), collect_ruin_times=0.5,
    )
    # paths counted and the standard error at 12 digits, out of 3,000
    pinned = {
        "tail(t=10;x=1.5)": (419, "0.00632982241828"),
        "tail(t=5;x=0.5)": (2365, "0.0074592119497"),
        "ruin(u=2)": (1466, "0.0091278853675"),
        "ruin(u=0.5)": (2149, "0.00823139608998"),
        "ruin(u=50)": (0, "0"),
        "hitting(u=1)": (2933, "0.00269826093176"),
        "hitting(u=4)": (2609, "0.00614774620868"),
    }
    estimates = simulate(plan).estimates
    assert {name: (est.value, f"{est.std_error:.12g}", est.n_effective)
            for name, est in estimates.items()} == {
        name: (hits / 3000, se, 3000) for name, (hits, se) in pinned.items()
    }


def test_ruin_times_text_round_trip():
    times = np.array([1.25, 3.75, 10.123456789012345])
    text = ruin_times_text(times)
    back = np.array([float(tok) for tok in text.split()])
    assert np.array_equal(back, times)
