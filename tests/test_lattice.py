"""Lattice recursions against brute-force convolution oracles."""

import ast
import math
import re
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats
from scipy.linalg import solve_triangular, toeplitz

from collrisk import (
    CompoundModel,
    DomainError,
    Exponential,
    GridError,
    Lattice,
    LatticeDistribution,
    PointMass,
    RiskSystem,
    RuinCurve,
    UnderflowWarning,
    compound_geometric,
    discretize,
    lattice_masses,
    panjer,
    ruin_panjer,
    suggest_truncation,
)
from collrisk import lattice as lattice_module
from collrisk.lattice import MAX_CELLS, _recurse, first_step, step_at, steps_within


def convolution_mixture(rate, f, n_out, n_terms=40):
    """Direct evaluation of the aggregate law as a truncated Poisson mixture
    of explicit severity convolutions. Independent of the recursion."""
    out = np.zeros(n_out + 1)
    power = np.zeros(1)
    power[0] = 1.0  # f^{0*} = delta at zero
    weight = math.exp(-rate)
    for n in range(n_terms + 1):
        upto = min(len(power), n_out + 1)
        out[:upto] += weight * power[:upto]
        power = np.convolve(power, f)
        weight *= rate / (n + 1)
    return out


def geometric_series(r, k, n_out, n_terms=50):
    """(1-r) * sum_m r^m k^{m*}, truncated; the defining series."""
    out = np.zeros(n_out + 1)
    power = np.zeros(1)
    power[0] = 1.0
    weight = 1.0 - r
    for _ in range(n_terms + 1):
        upto = min(len(power), n_out + 1)
        out[:upto] += weight * power[:upto]
        power = np.convolve(power, k)
        weight *= r
    return out


def lattice(d, masses):
    return LatticeDistribution(d, np.asarray(masses, dtype=float))


def cell_rule(coef, steps, seed, log_seed):
    """The recursion one cell at a time, rescaling after any cell past 1e280."""
    work, log_scale = np.zeros(steps.size + 1), log_seed
    work[0] = seed
    for n in range(1, steps.size + 1):
        m = min(n, coef.size - 1)
        work[n] = steps[n - 1] * np.dot(coef[1 : m + 1], work[n - 1 :: -1][:m])
        if work[n] > 1e280:
            work[: n + 1] *= math.exp(-600.0)
            log_scale += 600.0
    # converted as the kernel converts: exp(log w + log_scale) costs about
    # |ln w| ulps, so it is taken only where exp(log_scale) underflows
    if log_scale > -700.0:
        return work * math.exp(log_scale)
    with np.errstate(divide="ignore"):
        return np.exp(np.log(work) + log_scale)


def renewal_tails(r, k, n_out):
    """T_n = r*(Kbar_n + k_1 T_{n-1} + ... + k_n T_0) one cell at a time: positive terms only."""
    kbar = np.zeros(n_out + 1)
    upper = np.cumsum(k[:0:-1])[::-1]  # Kbar_n = sum_{j>n} k_j
    kbar[: min(upper.size, n_out + 1)] = upper[: n_out + 1]
    tails = np.zeros(n_out + 1)
    for n in range(n_out + 1):
        m = min(n, k.size - 1)
        tails[n] = r * (kbar[n] + np.dot(k[1 : m + 1], tails[n - 1 :: -1][:m]))
    return tails


def assert_matches_cell_rule(masses, reference, rel):
    """Relative agreement on every reference mass of at least 1e-290."""
    shown = reference >= 1e-290
    assert np.all(np.isfinite(masses))
    assert np.all(np.abs(masses[shown] - reference[shown]) <= rel * reference[shown])


# ---------------------------------------------------------------------------
# aggregate recursion
# ---------------------------------------------------------------------------


def test_panjer_degenerate_severity_is_poisson():
    agg = panjer(1.0, lattice(1.0, [0.0, 1.0]), 10)
    for n in range(8):
        assert agg.masses[n] == pytest.approx(
            stats.poisson.pmf(n, 1.0), rel=1e-12
        )


def test_panjer_hand_unrolled():
    agg = panjer(1.0, lattice(1.0, [0.0, 0.5, 0.5]), 10)
    g0 = math.exp(-1.0)
    g1 = 0.5 * g0
    g2 = 0.5 * (0.5 * g1 + 2 * 0.5 * g0)
    assert agg.masses[0] == pytest.approx(g0, rel=1e-14)
    assert agg.masses[1] == pytest.approx(g1, rel=1e-14)
    assert agg.masses[2] == pytest.approx(g2, rel=1e-14)


@pytest.mark.parametrize(
    "rate,f",
    [
        (1.0, [0.0, 1.0]),
        (2.5, [0.0, 0.3, 0.4, 0.3]),
        (5.0, [0.0, 0.1, 0.2, 0.3, 0.4]),
        (0.3, [0.0, 0.7, 0.0, 0.0, 0.3]),
    ],
)
def test_panjer_matches_brute_force(rate, f):
    n_out = 60
    agg = panjer(rate, lattice(0.5, f), n_out)
    oracle = convolution_mixture(rate, np.asarray(f), n_out)
    assert 0.5 * np.abs(agg.masses - oracle).sum() <= 1e-10  # total variation


def test_panjer_telescoping_and_monotone_tails():
    agg = panjer(3.0, lattice(1.0, [0.0, 0.25, 0.5, 0.25]), 40)
    assert agg.masses.sum() + agg.remainder == pytest.approx(1.0, abs=1e-12)
    assert np.all(agg.masses >= 0)
    assert np.all(np.diff(agg.tails) <= 1e-15)
    assert np.all(agg.tails >= -1e-15)


def test_panjer_moment_identities():
    rate, f = 2.0, np.array([0.0, 0.2, 0.5, 0.3])
    d = 0.25
    agg = panjer(rate, lattice(d, f), 200)
    sev_mean = np.dot(np.arange(4), f) * d
    sev_second = np.dot(np.arange(4) ** 2, f) * d**2
    assert agg.mean() == pytest.approx(rate * sev_mean, rel=1e-10)
    assert agg.variance() == pytest.approx(rate * sev_second, rel=1e-10)


def test_panjer_underflow_scaled():
    rate = 800.0
    with pytest.warns(UnderflowWarning):
        agg = panjer(rate, lattice(1.0, [0.0, 1.0]), 1100)
    assert agg.masses[:10].sum() == 0.0  # true values below 1e-300
    assert agg.masses[800] == pytest.approx(stats.poisson.pmf(800, 800), rel=1e-9)
    assert agg.mean() == pytest.approx(800.0, rel=1e-6)
    assert agg.masses.sum() == pytest.approx(1.0, abs=1e-9)


def test_panjer_input_validation():
    with pytest.raises(DomainError):
        panjer(1.0, lattice(1.0, [0.1, 0.9]), 10)  # mass at zero
    with pytest.raises(DomainError):
        panjer(-1.0, lattice(1.0, [0.0, 1.0]), 10)
    with pytest.raises(DomainError):
        panjer(1.0, lattice(1.0, [0.0, 1.0]), 0)
    for empty in ([0.0], [0.0, 0.0]):  # no claim-size mass to renormalize
        with pytest.raises(DomainError):
            panjer(1.0, lattice(1.0, empty), 10)


def test_recursions_refuse_more_cells_than_the_cap():
    # far above the cap: nothing is allocated
    with pytest.raises(GridError, match=f"{10**12} lattice cells exceed the cap of {MAX_CELLS}"):
        panjer(1.0, lattice(1.0, [0.0, 1.0]), 10**12)
    with pytest.raises(GridError, match="exceed the cap"):
        compound_geometric(0.5, lattice(1.0, [0.0, 1.0]), 10**12)


def test_panjer_renormalizes_with_log(caplog):
    f = lattice(1.0, [0.0, 0.9995])  # truncation residue
    with caplog.at_level("WARNING", logger="collrisk.lattice"):
        agg = panjer(1.0, f, 10)
    assert any("renormalizing" in rec.message for rec in caplog.records)
    assert agg.masses[0] == pytest.approx(math.exp(-1.0), rel=1e-12)


# ---------------------------------------------------------------------------
# compound geometric recursion
# ---------------------------------------------------------------------------


def test_compound_geometric_geometric_ladder():
    # geometric ladder masses k_n = (1-p) p^{n-1} give the closed form
    # l_n = (1-r) r (1-p) q^{n-1} with q = p + r(1-p)
    r, p = 0.5, 0.5
    n = 30
    k = np.zeros(n + 1)
    k[1:] = (1 - p) * p ** np.arange(n)
    k[-1] += p**n  # fold the geometric tail so masses sum to one
    cg = compound_geometric(r, lattice(1.0, k), 10)
    assert cg.masses[0] == pytest.approx(0.5, abs=1e-15)
    assert cg.masses[1] == pytest.approx(0.125, rel=1e-12)
    assert cg.masses[2] == pytest.approx(0.09375, rel=1e-12)
    q = p + r * (1 - p)
    for m in range(1, 9):
        assert cg.masses[m] == pytest.approx(
            (1 - r) * r * (1 - p) * q ** (m - 1), rel=1e-10
        )


def test_compound_geometric_vanishing_upcrossing():
    k = lattice(1.0, [0.0, 0.6, 0.4])
    cg = compound_geometric(1e-8, k, 5)
    assert cg.masses[0] == pytest.approx(1.0, abs=2e-8)
    assert cg.masses[1] == pytest.approx(1e-8 * 0.6, rel=1e-6)


@pytest.mark.parametrize(
    "r,k",
    [
        (0.5, [0.0, 1.0]),
        (0.8, [0.0, 0.5, 0.5]),
        (0.3, [0.0, 0.2, 0.3, 0.5]),
    ],
)
def test_compound_geometric_matches_series(r, k):
    n_out = 60
    cg = compound_geometric(r, lattice(1.0, k), n_out)
    oracle = geometric_series(r, np.asarray(k), n_out)
    assert 0.5 * np.abs(cg.masses - oracle).sum() <= 1e-10


def test_compound_geometric_upper_tails():
    cg = compound_geometric(0.6, lattice(1.0, [0.0, 0.5, 0.5]), 100)
    l = cg.masses
    assert cg.survival_from(0) == 1.0
    for n in range(1, 100):
        assert cg.survival_from(n) == pytest.approx(1.0 - l[:n].sum(), abs=1e-13)
    # mass accumulates to one for finite-support ladders
    partial = np.cumsum(l)
    assert np.all(np.diff(partial) >= 0)
    assert partial[40] < partial[80] < partial[100]
    assert l.sum() == pytest.approx(1.0, abs=1e-9)
    assert np.all(np.diff(np.concatenate(([1.0], cg.tails))) <= 1e-15)


def test_compound_geometric_domain():
    k = lattice(1.0, [0.0, 1.0])
    for bad in (0.0, 1.0, 1.5, -0.2):
        with pytest.raises(DomainError):
            compound_geometric(bad, k, 5)


# ---------------------------------------------------------------------------
# blocked kernel against the cell rule
# ---------------------------------------------------------------------------


def kernel_args(n_coef, n_out, panjer_shape, rate, r, sparsity, seed):
    """``_recurse`` arguments for random coefficients of either recursion."""
    rng = np.random.default_rng(seed)
    f = rng.random(n_coef + 1) * (rng.random(n_coef + 1) >= sparsity)
    f[0] = 0.0
    f[-1] += f.sum() == 0.0
    f /= f.sum()
    if panjer_shape:  # n*g_n = rate * sum_x x*f_x*g_{n-x}
        return (np.arange(f.size) * f, rate / np.arange(1, n_out + 1), 1.0, -rate)
    return (f, np.full(n_out, r), 1.0 - r, 0.0)  # l_n = r * sum_x k_x*l_{n-x}


def check_kernel(n_coef, n_out, panjer_shape, rate, r, sparsity, seed):
    args = kernel_args(n_coef, n_out, panjer_shape, rate, r, sparsity, seed)
    masses, _ = _recurse(*args)
    # from rate 700 on, both sides return exp(log w + log_scale); rounding log w
    # (about 650) to its ulp costs up to 1.1e-13 relative, so the gate widens there
    scaled = panjer_shape and rate >= 700.0
    assert_matches_cell_rule(masses, cell_rule(*args), 1e-12 if scaled else 1e-13)


@settings(max_examples=80, deadline=None)
# the cell rule's old exp(log w) conversion was 1.04e-13 off the exact values here
@example(n_coef=1, n_out=122, panjer_shape=True, rate=0.6646178628241777, r=0.5,
         sparsity=0.0, seed=0)
@given(
    n_coef=st.integers(1, 299),
    n_out=st.integers(1, 400),
    panjer_shape=st.booleans(),
    rate=st.floats(0.01, 3000.0),
    r=st.floats(0.01, 0.99),
    sparsity=st.floats(0.0, 0.95),
    seed=st.integers(0, 2**32 - 1),
)
def test_kernel_matches_cell_rule(n_coef, n_out, panjer_shape, rate, r, sparsity, seed):
    check_kernel(n_coef, n_out, panjer_shape, rate, r, sparsity, seed)


@pytest.mark.parametrize("panjer_shape", [True, False], ids=["panjer", "geometric"])
@pytest.mark.parametrize("n_out", [1, 63, 64, 65, 197])
@pytest.mark.parametrize("n_coef", [1, 5, 64, 299])
def test_kernel_matches_cell_rule_at_block_edges(n_coef, n_out, panjer_shape):
    check_kernel(n_coef, n_out, panjer_shape, rate=4.0, r=0.7, sparsity=0.3, seed=n_out)


def solve_triangular_recurse(coef, steps, seed, log_seed):
    """``_recurse`` with each block solved by ``scipy.linalg.solve_triangular``.

    The same blocks, halving and rescales, with a fresh block matrix
    -a[:, None] * T per block and scipy's checked wrapper around LAPACK:
    the reference for the bits of the direct LAPACK call.
    """
    n_out, n_coef = steps.size, coef.size - 1
    work = np.zeros(n_coef + n_out + 1)
    work[n_coef] = seed
    log_scale, rescales = log_seed, 0
    size = min(lattice_module._BLOCK, n_out)
    col = np.zeros(size)
    col[: min(size, coef.size)] = coef[:size]
    coupling = toeplitz(col, np.zeros(size))
    history = coef[:0:-1]
    n = 1
    while n <= n_out:
        b = min(size, n_out + 1 - n)
        while True:
            a_blk = steps[n - 1 : n - 1 + b]
            h = np.correlate(work[n : n + n_coef + b - 1], history, "valid")
            w = solve_triangular(-a_blk[:, None] * coupling[:b, :b], a_blk * h,
                                 lower=True, unit_diagonal=True, check_finite=False)
            if b == 1 or w.max() <= lattice_module._RESCALE_AT:
                break
            b //= 2
        n += b
        work[n_coef + n - b : n_coef + n] = w
        if w[-1] > lattice_module._RESCALE_AT:
            work[: n_coef + n] *= math.exp(-lattice_module._RESCALE_LOG)
            log_scale += lattice_module._RESCALE_LOG
            rescales += 1
    work = work[n_coef:]
    if log_scale > -700.0:
        return work * math.exp(log_scale), rescales
    with np.errstate(divide="ignore"):
        scaled = np.where(work > 0.0, np.exp(np.log(np.maximum(work, 1e-320)) + log_scale), 0.0)
    return scaled, rescales


@settings(max_examples=80, deadline=None)
@example(n_coef=1, n_out=400, panjer_shape=True, rate=3000.0, r=0.5, sparsity=0.0, seed=0)
@example(n_coef=3, n_out=400, panjer_shape=True, rate=3000.0, r=0.5, sparsity=0.3, seed=1)
@example(n_coef=300, n_out=1, panjer_shape=False, rate=1.0, r=0.99, sparsity=0.0, seed=2)
@given(
    n_coef=st.integers(1, 300),
    n_out=st.integers(1, 400),
    panjer_shape=st.booleans(),
    rate=st.floats(0.01, 3000.0),
    r=st.floats(0.01, 0.99),
    sparsity=st.floats(0.0, 0.95),
    seed=st.integers(0, 2**32 - 1),
)
def test_kernel_bits_are_the_solve_triangular_bits(
    n_coef, n_out, panjer_shape, rate, r, sparsity, seed
):
    args = kernel_args(n_coef, n_out, panjer_shape, rate, r, sparsity, seed)
    masses, rescales = _recurse(*args)
    ref_masses, ref_rescales = solve_triangular_recurse(*args)
    assert np.array_equal(masses, ref_masses)
    assert rescales == ref_rescales


def test_kernel_raises_when_lapack_reports_a_failure(monkeypatch):
    monkeypatch.setattr(lattice_module, "_TRTRS", lambda a, b, **flags: (b.copy(), 1))
    with pytest.raises(np.linalg.LinAlgError, match="info 1"):
        panjer(0.5, lattice(1.0, [0.0, 0.5, 0.5]), 10)


@pytest.mark.parametrize("n_out", [1, 63, 64, 65, 1000])
def test_kernel_makes_one_lapack_call_per_block(monkeypatch, n_out):
    calls = []
    trtrs = lattice_module._TRTRS

    def counted(a, b, **flags):
        calls.append(b.size)
        return trtrs(a, b, **flags)

    monkeypatch.setattr(lattice_module, "_TRTRS", counted)
    agg = panjer(3.0, lattice(1.0, [0.0, 0.2, 0.3, 0.5]), n_out)
    assert agg.rescales == 0
    assert len(calls) == math.ceil(n_out / 64)


@pytest.fixture(scope="module")
def bench_severity():
    sev = discretize(Exponential(1.0), 0.01)
    assert sev.size == 2304 and abs(sev.masses.sum() - 1.0) <= 1e-15  # used unrenormalized
    return sev


def test_panjer_bench_shape_matches_cell_rule(bench_severity):
    rate, n_out = 50.0, 10_000
    f = bench_severity.masses
    reference = cell_rule(np.arange(f.size) * f, rate / np.arange(1, n_out + 1), 1.0, -rate)
    assert_matches_cell_rule(panjer(rate, bench_severity, n_out).masses, reference, 1e-13)


def test_compound_geometric_bench_shape_matches_cell_rule(bench_severity):
    # the transform's tails hold 1e-10 of the positive-term renewal; a mass is the
    # difference of two tails about 1 - e^-0.002 apart, so its tolerance is 1e-8
    r, n_out = 0.8, 25_000
    reference = cell_rule(bench_severity.masses, np.full(n_out, r), 1.0 - r, 0.0)
    cg = compound_geometric(r, bench_severity, n_out)
    assert cg.masses.size == 25_001
    assert_matches_cell_rule(cg.masses, reference, 1e-8)
    assert_matches_cell_rule(cg.tails, renewal_tails(r, bench_severity.masses, n_out), 1e-10)


@settings(max_examples=80, deadline=None)
@example(n_coef=1, n_out=400, r=0.02, sparsity=0.0, seed=0)
@example(n_coef=30, n_out=400, r=0.98, sparsity=0.0, seed=1)
@example(n_coef=12, n_out=300, r=0.5, sparsity=0.9, seed=2)
@given(
    n_coef=st.integers(1, 30),
    n_out=st.integers(1, 400),
    r=st.floats(0.02, 0.98),
    sparsity=st.floats(0.0, 0.9),
    seed=st.integers(0, 2**32 - 1),
)
def test_ruin_curve_on_random_ladders_matches_the_renewal(n_coef, n_out, r, sparsity, seed):
    k = kernel_args(n_coef, n_out, False, 1.0, r, sparsity, seed)[0]
    values = RuinCurve(compound_geometric(r, lattice(1.0, k), n_out)).values
    assert np.all(np.diff(values) <= 0.0)
    assert values.min() >= 0.0 and values.max() <= r
    reference = renewal_tails(r, k, n_out)
    shown = reference >= 1e-250
    assert np.all(np.abs(values[shown] - reference[shown]) <= 1e-10 * reference[shown])


def test_panjer_scaled_point_mass_keeps_every_block_finite():
    # at rate 5000 one 64-cell block grows past the double range unless it is split
    rate = 5000.0
    with pytest.warns(UnderflowWarning):
        agg = panjer(rate, lattice(1.0, [0.0, 1.0]), 10_000)
    assert np.all(np.isfinite(agg.masses))
    sd = math.sqrt(rate)
    near = np.arange(int(rate - 3 * sd), int(rate + 3 * sd) + 1)
    np.testing.assert_allclose(agg.masses[near], stats.poisson.pmf(near, rate), rtol=1e-9)
    assert agg.masses.sum() == pytest.approx(1.0, abs=1e-9)
    # the work climbs from e^0 to about e^5000, 600 e-folds per rescale
    assert rate / 600.0 - 1.0 <= agg.rescales <= rate / 600.0 + 1.0


def test_no_rescale_while_the_seed_is_representable():
    for rate in (1.0, 50.0, 600.0):
        assert panjer(rate, lattice(1.0, [0.0, 0.5, 0.5]), 2000).rescales == 0
    assert compound_geometric(0.8, lattice(1.0, [0.0, 0.5, 0.5]), 5000).rescales == 0
    assert lattice(1.0, [0.5, 0.5]).rescales == 0


# ---------------------------------------------------------------------------
# panjer on the law's maximal span
# ---------------------------------------------------------------------------


def spread(f, g):
    """Masses f_0..f_N moved to cells 0, g, ..., N*g, with zeros between."""
    out = np.zeros(g * (len(f) - 1) + 1)
    out[::g] = f
    return out


def declared_span_panjer(rate, f, n_out):
    """The recursion over every declared cell, as ``panjer`` ran it before compression."""
    return _recurse(np.arange(f.size) * f, rate / np.arange(1, n_out + 1), 1.0, -rate)[0]


@settings(max_examples=60, deadline=None)
@given(
    n_sev=st.integers(1, 30),
    g=st.integers(2, 7),
    n_out=st.integers(1, 600),
    rate=st.floats(0.01, 600.0),
    sparsity=st.floats(0.0, 0.8),
    seed=st.integers(0, 2**32 - 1),
)
def test_panjer_on_a_spread_law_is_the_compact_law_spread(n_sev, g, n_out, rate, sparsity, seed):
    rng = np.random.default_rng(seed)
    f = rng.random(n_sev + 1) * (rng.random(n_sev + 1) >= sparsity)
    f[0] = 0.0
    f[-1] += f.sum() == 0.0
    f /= f.sum()
    masses = panjer(rate, lattice(0.5, spread(f, g)), n_out).masses
    assert masses.size == n_out + 1
    between = np.ones(n_out + 1, dtype=bool)
    between[::g] = False
    assert np.all(masses[between] == 0.0)  # exact zeros, not small numbers
    compact = panjer(rate, lattice(0.5 * g, f), n_out // g).masses if n_out >= g else None
    on_span = masses[::g]
    if compact is not None:
        assert_matches_cell_rule(on_span, compact, 1e-13)
    # and the recursion over every declared cell
    assert_matches_cell_rule(masses, declared_span_panjer(rate, spread(f, g), n_out), 1e-13)


@settings(max_examples=40, deadline=None)
@given(
    cells=st.lists(st.integers(1, 40), min_size=1, max_size=6, unique=True),
    n_out=st.integers(1, 300),
    rate=st.floats(0.01, 3000.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_panjer_keeps_its_bits_when_the_maximal_span_is_the_declared_one(cells, n_out, rate, seed):
    # gcd 1, with or without cell 1 occupied: the recursion runs on every declared cell
    if math.gcd(*cells) != 1:
        cells = cells + [1]
    f = np.zeros(max(cells) + 1)
    f[cells] = np.random.default_rng(seed).random(len(cells)) + 0.1
    f /= f.sum()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UnderflowWarning)
        masses = panjer(rate, lattice(0.25, f), n_out).masses
    assert np.array_equal(masses, declared_span_panjer(rate, f, n_out))


def test_panjer_below_the_maximal_span_returns_the_seed_cell():
    # a level under the smallest atom: 0.25 on span 0.01 under an atom at 0.5
    f = np.zeros(101)
    f[50] = f[100] = 0.5
    agg = panjer(1.5, lattice(0.01, f), 26)
    assert agg.size == 27
    assert agg.masses[0] == math.exp(-1.5)
    assert np.all(agg.masses[1:] == 0.0)
    assert agg.remainder == pytest.approx(-math.expm1(-1.5), rel=1e-15)


def test_panjer_on_a_spread_law_in_scaled_form():
    rate, g = 800.0, 3
    f = np.array([0.0, 0.5, 0.5])
    with pytest.warns(UnderflowWarning):
        masses = panjer(rate, lattice(1.0, spread(f, g)), 6000).masses
        compact = panjer(rate, lattice(3.0, f), 2000).masses
    between = np.ones(masses.size, dtype=bool)
    between[::g] = False
    assert np.all(masses[between] == 0.0)
    # exp(log w + log_scale) rounds log w (about 650) to its ulp: 1.1e-13 relative
    assert_matches_cell_rule(masses[::g], compact, 1e-12)
    assert_matches_cell_rule(masses, declared_span_panjer(rate, spread(f, g), 6000), 1e-12)
    assert masses.sum() == pytest.approx(1.0, abs=1e-9)


def test_panjer_on_a_point_mass_declared_at_a_finer_span():
    rate = 12.0
    own = panjer(rate, lattice_masses(PointMass(1.0)), 40).masses
    fine = panjer(rate, discretize(PointMass(1.0), 0.1), 400).masses
    np.testing.assert_allclose(own, stats.poisson.pmf(np.arange(41), rate), rtol=1e-13)
    assert_matches_cell_rule(fine[::10], own, 1e-13)
    assert np.count_nonzero(fine) == np.count_nonzero(own) == 41


def test_recursions_refuse_work_past_the_budget_before_they_start():
    wide = lattice(1.0, np.full(10**6 + 1, 1e-6) * (np.arange(10**6 + 1) > 0))
    with pytest.raises(GridError, match=r"1000000 cells x 1000000 coefficient cells = 1e\+12 "
                                        r"multiply-adds exceed the recursion budget of 2e\+11"):
        panjer(1.0, wide, 10**6)
    # the transform needs about 3 points per cell, so 4e6 cells ask for more than the cap
    with pytest.raises(GridError, match=f"an FFT of 12000000 points exceeds the cap of "
                                        f"{MAX_CELLS} cells"):
        compound_geometric(0.5, wide, 4 * 10**6)
    # counted on the maximal span: 1,000 cells x 1,000 coefficient cells
    sparse = np.zeros(10**6 + 1)
    sparse[1000::1000] = 1e-3
    agg = panjer(1.0, lattice(1.0, sparse), 10**6)
    assert agg.size == 10**6 + 1 and agg.masses[0] == math.exp(-1.0)


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------


def test_lattice_distribution_validation():
    with pytest.raises(DomainError):
        LatticeDistribution(0.0, np.array([1.0]))
    with pytest.raises(DomainError):
        LatticeDistribution(1.0, np.array([0.7, 0.7]))
    with pytest.raises(DomainError):
        LatticeDistribution(1.0, np.array([-0.1, 0.5]))
    with pytest.raises(DomainError, match="1 tails for 2 masses"):
        LatticeDistribution(1.0, np.array([0.5, 0.5]), tails=np.array([0.5]))
    # given tails are kept as given, not recomputed from the masses
    given_tails = LatticeDistribution(1.0, np.array([0.5, 0.25]), tails=np.array([0.5, 0.25]))
    assert given_tails.tail(1) == 0.25 and given_tails.remainder == 0.25


# ---------------------------------------------------------------------------
# amounts to lattice cells
# ---------------------------------------------------------------------------


@given(n=st.integers(0, 10**6), span=st.floats(1e-3, 10.0))
def test_step_at_finds_every_lattice_point(n, span):
    assert step_at(n * span, span) == n


@given(n=st.integers(0, 10**6), span=st.floats(1e-3, 10.0))
def test_step_at_rejects_half_cells(n, span):
    assert step_at((n + 0.5) * span, span) is None


def test_step_at_tolerance_and_domain():
    assert step_at(0.9, 0.3) == 3  # 3 * 0.3 rounds to 0.8999999999999999
    assert step_at(1e6 + 5e-4, 1.0) == 1_000_000  # 1e-9 of the amount, not of a cell
    assert step_at(0.5 + 2e-9, 0.5) is None
    for x in (math.inf, -math.inf, math.nan):
        assert step_at(x, 0.5) is None
    for span in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(DomainError, match="span must be positive and finite"):
            step_at(1.0, span)


@pytest.mark.parametrize("span", [0.0, -1.0, math.inf, math.nan])
def test_every_span_check_wants_a_positive_finite_span(span):
    system = RiskSystem(CompoundModel(1.0, Exponential(1.0)), 1.25, 0.0)
    for build in (
        lambda: LatticeDistribution(span, np.array([0.0, 1.0])),
        lambda: Lattice(span, (1.0,)),  # an infinite span gave a law with mean inf
        lambda: discretize(Exponential(1.0), span),
        lambda: ruin_panjer(system, span, 1.0),
        lambda: step_at(1.0, span),
        lambda: suggest_truncation(system.model, 5.0, span),  # an infinite span ran the search
    ):
        with pytest.raises(DomainError, match="span must be positive and finite"):
            build()


@given(k=st.integers(1, MAX_CELLS), start=st.integers(0, MAX_CELLS))
@example(k=MAX_CELLS, start=0)
@example(k=1, start=MAX_CELLS - 1)
def test_first_step_is_the_first_true_step_past_start(k, start):
    asked = []

    def holds(n):
        asked.append(n)
        return n >= k

    assert first_step(holds, start) == (max(k, start + 1) if start < MAX_CELLS else None)
    assert len(asked) == len(set(asked))
    assert all(start < n <= MAX_CELLS for n in asked)


def test_first_step_is_none_when_nothing_holds_up_to_the_cap():
    asked = []
    assert first_step(lambda n: asked.append(n) or False) is None
    assert max(asked) == MAX_CELLS and len(asked) == len(set(asked))


def test_steps_within_array_matches_scalar():
    x = np.array([0.0, 0.3, 0.7, 1.1, 2.9999999999, 5.0])
    counts = steps_within(x, 0.1)
    assert counts.dtype.kind == "i"
    assert counts.tolist() == [steps_within(float(v), 0.1) for v in x]


def _functions_by_line(tree):
    """Map each line to the dotted name of the innermost function around it."""
    owner = {}

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                name = prefix + child.name
                if isinstance(child, ast.FunctionDef):
                    for line in range(child.lineno, child.end_lineno + 1):
                        owner[line] = name
                visit(child, name + ".")
            else:
                visit(child, prefix)

    visit(tree, "")
    return owner


def test_only_lattice_py_maps_amounts_to_cells():
    src = Path(__file__).resolve().parents[1] / "src" / "collrisk"
    found = {}
    for path in sorted(src.glob("*.py")):
        if path.name == "lattice.py":
            continue
        text = path.read_text()
        owner = _functions_by_line(ast.parse(text))
        for line_no, line in enumerate(text.splitlines(), start=1):
            if re.search(r"(round|ceil|floor)\(", line):
                found[owner.get(line_no, "<module>")] = f"{path.name}:{line_no}"
    assert found == {}
