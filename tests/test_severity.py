"""Severity models: transforms, moments, tilts, discretizations."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from collrisk import (
    DomainError,
    Exponential,
    Gamma,
    GridError,
    Lattice,
    MixtureOfExponentials,
    PointMass,
    TailError,
    discretize,
    discretize_ladder,
    lattice_masses,
)
from collrisk import severity
from collrisk.lattice import MAX_CELLS
from collrisk.severity import TAIL_TOL

# ---------------------------------------------------------------------------
# strategies
# ---------------------------------------------------------------------------

exponentials = st.floats(0.2, 5.0).map(Exponential)
gammas = st.floats(0.3, 4.0).map(Gamma)
point_masses = st.floats(0.1, 3.0).map(PointMass)


@st.composite
def mixtures(draw, min_components=2):
    n = draw(st.integers(min_components, 4))
    raw_w = draw(
        st.lists(st.floats(0.1, 1.0), min_size=n, max_size=n)
    )
    total = sum(raw_w)
    weights = tuple(w / total for w in raw_w)
    base = draw(st.floats(0.3, 1.5))
    gaps = draw(st.lists(st.floats(0.2, 2.0), min_size=n - 1, max_size=n - 1))
    rates = [base]
    for g in gaps:
        rates.append(rates[-1] + g)
    return MixtureOfExponentials(weights, tuple(rates))


@st.composite
def lattices(draw):
    n = draw(st.integers(1, 6))
    raw = draw(st.lists(st.floats(0.05, 1.0), min_size=n, max_size=n))
    total = sum(raw)
    return Lattice(draw(st.floats(0.1, 1.0)), tuple(m / total for m in raw))


all_severities = st.one_of(exponentials, gammas, point_masses, mixtures(), lattices())


def quad_moment(model, k):
    """Quadrature/sum oracle for E[X^k], independent of the closed forms."""
    if isinstance(model, PointMass):
        return model.location**k
    if isinstance(model, Lattice):
        return sum(
            f * ((i + 1) * model.span) ** k for i, f in enumerate(model.masses)
        )
    value, _ = quad(lambda x: k * x ** (k - 1) * model.sf(x), 0, np.inf, limit=200)
    return value


# ---------------------------------------------------------------------------
# generating function
# ---------------------------------------------------------------------------


def test_mgf_exponential_values():
    m = Exponential(1.0)
    assert m.mgf(0.0) == pytest.approx(1.0, abs=1e-14)
    assert m.mgf(0.5) == pytest.approx(2.0, rel=1e-14)  # 1/(1 - 0.5)


def test_mgf_point_mass():
    assert PointMass(1.0).mgf(math.log(2.0)) == pytest.approx(2.0, rel=1e-14)


def test_mgf_domain_errors():
    with pytest.raises(DomainError):
        Exponential(1.0).mgf(1.0)
    with pytest.raises(DomainError):
        MixtureOfExponentials((0.5, 0.5), (1.0, 2.0)).mgf(1.5)
    with pytest.raises(DomainError):
        Gamma(2.0).tilt(1.0)
    # lattices are entire
    assert Lattice(1.0, (1.0,)).mgf(50.0) > 0


@settings(max_examples=40, deadline=None)
@given(all_severities)
def test_mgf_at_zero_is_one(model):
    assert abs(model.mgf(0.0) - 1.0) <= 1e-14
    assert abs(model.mgf_m1(0.0)) <= 1e-14


@settings(max_examples=40, deadline=None)
@given(all_severities, st.floats(0.05, 0.95), st.floats(0.05, 0.95))
def test_mgf_strictly_convex(model, frac1, frac2):
    hi = min(model.xi_bar, 4.0)
    xi1 = -1.0 + frac1 * (0.9 * hi + 1.0)
    xi2 = xi1 + frac2 * (0.9 * hi - xi1)
    if xi2 - xi1 < 1e-3:
        return
    mid = 0.5 * (xi1 + xi2)
    assert model.mgf(mid) < 0.5 * (model.mgf(xi1) + model.mgf(xi2))


@settings(max_examples=30, deadline=None)
@given(all_severities, st.floats(-1.0, 0.8), st.floats(-1.0, 0.8))
def test_mgf_m1_consistent(model, a_frac, xi_frac):
    xi = xi_frac * min(model.xi_bar, 3.0)
    assert model.mgf_m1(xi) == pytest.approx(model.mgf(xi) - 1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# moments
# ---------------------------------------------------------------------------


def test_exponential_moments_factorial():
    m = Exponential(1.0)
    for k, expected in [(1, 1.0), (2, 2.0), (3, 6.0)]:
        assert m.moment(k) == pytest.approx(expected, rel=1e-12)
        assert m.moment(k) == pytest.approx(quad_moment(m, k), rel=1e-9)


def test_point_mass_moments():
    m = PointMass(2.5)
    for k in (1, 2, 3):
        assert m.moment(k) == pytest.approx(2.5**k, rel=1e-14)


def test_mixture_mean():
    m = MixtureOfExponentials((0.5, 0.5), (1.0, 2.0))
    assert m.moment(1) == pytest.approx(0.75, rel=1e-12)
    assert m.moment(1) == pytest.approx(quad_moment(m, 1), rel=1e-9)


@settings(max_examples=25, deadline=None)
@given(st.one_of(exponentials, gammas, mixtures()), st.integers(1, 3))
def test_moments_match_quadrature(model, k):
    assert model.moment(k) == pytest.approx(quad_moment(model, k), rel=1e-7)


# ---------------------------------------------------------------------------
# tilt
# ---------------------------------------------------------------------------


def params_close(a, b, tol=1e-12):
    if type(a) is not type(b):
        return False
    for field in a.__dataclass_fields__:
        va, vb = getattr(a, field), getattr(b, field)
        if isinstance(va, (tuple, np.ndarray)):
            if len(va) != len(vb) or any(
                abs(x - y) > tol * max(1.0, abs(x)) for x, y in zip(va, vb)
            ):
                return False
        elif abs(va - vb) > tol * max(1.0, abs(va)):
            return False
    return True


def test_tilt_identity():
    m = Exponential(1.0)
    assert m.tilt(0.0) == m


def test_tilt_exponential_closed_form():
    tilted = Exponential(1.0).tilt(0.5)
    assert isinstance(tilted, Exponential)
    assert tilted.rate == pytest.approx(0.5, rel=1e-14)
    # density of the tilt is proportional to e^{0.5x} e^{-x}: mean must be 2
    oracle, _ = quad(lambda x: x * np.exp(0.5 * x) * np.exp(-x) / 2.0, 0, 200)
    assert tilted.moment(1) == pytest.approx(oracle, rel=1e-9)


def test_tilt_point_lattice_invariant():
    m = Lattice(1.0, (1.0,))
    assert params_close(m.tilt(math.log(3.0)), m)
    assert PointMass(1.0).tilt(2.0) == PointMass(1.0)


@settings(max_examples=40, deadline=None)
@given(all_severities, st.floats(-0.8, 0.8), st.floats(-0.8, 0.8))
def test_tilt_composition(model, fa, fb):
    cap = min(model.xi_bar, 2.0)
    a, b = fa * cap / 2.0, fb * cap / 2.0
    if a + b >= 0.95 * model.xi_bar or a >= 0.95 * model.xi_bar:
        return
    assert params_close(model.tilt(a).tilt(b), model.tilt(a + b), tol=1e-9)


@settings(max_examples=40, deadline=None)
@given(all_severities, st.floats(-0.8, 0.8))
@example(Exponential(0.21875), 0.75)  # a two-point difference errs by 1.3e-6 here
def test_tilted_mean_is_log_derivative(model, frac):
    a = frac * min(model.xi_bar, 2.0) / 2.0
    step = 1e-4
    if a + 2 * step >= model.xi_bar:
        return

    def log_mgf(k):
        return math.log(model.mgf(a + k * step))

    # five-point stencil: truncation error O(step^4)
    log_deriv = (log_mgf(-2) - 8 * log_mgf(-1) + 8 * log_mgf(1) - log_mgf(2)) / (12 * step)
    assert model.tilt(a).moment(1) == pytest.approx(log_deriv, abs=1e-6)


# ---------------------------------------------------------------------------
# discretization
# ---------------------------------------------------------------------------


def test_discretize_point_mass():
    dist = discretize(PointMass(1.0), 1.0)
    assert dist.masses[0] == 0.0
    assert dist.masses[1] == pytest.approx(1.0, abs=1e-15)


def test_discretize_exponential_cells():
    # right-endpoint rule: cell masses are survival-function increments
    dist = discretize(Exponential(1.0), 0.5)
    assert dist.masses[1] == pytest.approx(1 - math.exp(-0.5), rel=1e-12)
    assert dist.masses[2] == pytest.approx(math.exp(-0.5) - math.exp(-1.0), rel=1e-12)


def test_discretize_folds_the_tail_into_the_last_cell():
    dist = discretize(Exponential(1.0), 0.5)
    n = dist.size - 1
    assert n == 47  # the fewest cells with exp(-0.5 n) <= 1e-10
    # its own increment plus the tail beyond it: P(X > (n - 1) d)
    assert dist.masses[n] == pytest.approx(math.exp(-0.5 * (n - 1)), rel=1e-12)
    assert dist.masses.sum() == pytest.approx(1.0, abs=1e-15)


@settings(max_examples=60, deadline=None)
@given(all_severities, st.floats(0.002, 0.5))
@example(Exponential(1.0), 0.01)
@example(Gamma(2.5), 0.01)
@example(Lattice(0.5, (0.4, 0.6)), 0.49999999999999994)
@example(PointMass(0.9), 0.3)
def test_discretize_takes_the_fewest_cells_that_reach_the_tail_tolerance(model, d):
    n = discretize(model, d).size - 1
    assert model.sf(n * d) <= TAIL_TOL
    assert n == 1 or model.sf((n - 1) * d) > TAIL_TOL


@settings(max_examples=40, deadline=None)
@given(all_severities, st.floats(0.002, 0.5), st.integers(1, 4000))
@example(Exponential(1.0), 0.01, 2304)
@example(Gamma(2.5), 0.01, 4000)
@example(MixtureOfExponentials((0.4, 0.6), (0.5, 2.0)), 0.01, 4000)
@example(MixtureOfExponentials((0.1,) * 10, tuple(0.5 * k for k in range(1, 11))), 0.01, 3000)
def test_array_survival_is_the_scalar_survival_bit_for_bit(model, d, n):
    # the cell edges discretize evaluates
    edges = np.arange(n + 1) * d
    if model.lattice_span is not None:
        edges += 1e-9 * d
    scalar = np.array([model.sf(e) for e in edges])
    assert model._sf_array(edges).tobytes() == scalar.tobytes()


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 80), st.floats(0.05, 2.0), st.floats(-1.0, 1.0), st.integers(0, 2**32 - 1))
def test_lattice_transforms_match_per_call_arrays_bit_for_bit(n, span, frac, seed):
    lat = Lattice(span, tuple(np.random.default_rng(seed).dirichlet(np.full(n, 0.5))))
    # the arrays every transform once rebuilt from the masses tuple
    f = np.asarray(lat.masses)
    x = np.arange(1, f.size + 1) * span
    xi = 3.0 * frac / (n * span)
    assert lat.mgf(xi) == float(np.sum(f * np.exp(xi * x)))
    assert lat.mgf_m1(xi) == float(np.sum(f * np.expm1(xi * x)))
    assert lat.mgf_prime(xi) == float(np.sum(f * x * np.exp(xi * x)))
    assert lat.mgf_second(xi) == float(np.sum(f * x**2 * np.exp(xi * x)))
    for k in (1, 2, 3):
        assert lat.moment(k) == float(np.sum(f * x**k))
    for point in (0.0, span, 0.5 * n * span, n * span):
        assert lat.sf(point) == float(np.sum(f[x > point]))
    w = f * np.exp(xi * x)
    w /= w.sum()
    w /= math.fsum(w.tolist())  # as every Lattice divides its masses by their fsum
    assert lat.tilt(xi).masses.tobytes() == w.tobytes()
    # one LatticeDistribution, and an alias table that carries the masses
    assert lat.as_distribution() is lat.as_distribution()
    assert lat.as_distribution().masses.tobytes() == np.concatenate([[0.0], f]).tobytes()
    prob, alias = lat._alias
    carried = prob + np.bincount(alias, weights=1.0 - prob, minlength=n)
    assert np.allclose(carried, n * f, rtol=0.0, atol=1e-12 * n)


@settings(max_examples=80, deadline=None)
@given(mixtures(min_components=1), st.floats(-2.0, 0.99))
def test_mixture_transforms_match_the_np_sum_expressions_bit_for_bit(mix, frac):
    # the expressions the transforms reduced with np.sum before their products were cached
    w, b = np.asarray(mix.weights), np.asarray(mix.rates)
    xi = frac * b[0]
    assert mix.mgf(xi) == float(np.sum(w * b / (b - xi)))
    assert mix.mgf_m1(xi) == float(np.sum(w * xi / (b - xi)))
    assert mix.mgf_prime(xi) == float(np.sum(w * b / (b - xi) ** 2))
    assert mix.mgf_second(xi) == float(np.sum(2.0 * w * b / (b - xi) ** 3))
    for k in (1, 2, 3):
        assert mix.moment(k) == float(math.factorial(k) * np.sum(w / b**k))


def test_exponential_mixture_view_is_built_once():
    law = Exponential(2.0)
    assert law.as_mixture() is law.as_mixture()
    assert law.as_mixture() == MixtureOfExponentials((1.0,), (2.0,))


@settings(max_examples=200)
@given(shape=st.floats(1e-3, 1e6), scale=st.floats(1e-6, 1e6))
def test_gamma_mean_is_the_first_moment_without_scipy(shape, scale):
    law = Gamma(shape, scale)
    assert law.mean == law.moment(1)


def test_gamma_mean_makes_no_scipy_call(monkeypatch):
    monkeypatch.setattr(severity.special, "poch", None)
    assert Gamma(2.5, 0.7).mean == 2.5 * 0.7


def test_lattice_from_an_array_is_the_lattice_from_its_tuple():
    masses = np.random.default_rng(4).dirichlet(np.ones(500))
    from_array, from_tuple = Lattice(0.01, masses), Lattice(0.01, tuple(masses.tolist()))
    assert from_array == from_tuple and hash(from_array) == hash(from_tuple)
    assert from_array != Lattice(0.02, masses)
    assert from_array.masses.tobytes() == (masses / math.fsum(masses.tolist())).tobytes()
    assert np.array_equal(from_array.as_distribution().masses, from_tuple.as_distribution().masses)
    with pytest.raises(DomainError, match="lattice masses must be nonnegative"):
        Lattice(1.0, np.array([1.5, -0.5]))
    with pytest.raises(DomainError, match="lattice masses sum to 0.9, not 1"):
        Lattice(1.0, np.array([0.5, 0.4]))


def test_lattice_masses_are_a_read_only_view_of_its_one_distribution():
    lat = Lattice(0.5, (0.25, 0.0, 0.75))
    dist = lat.as_distribution()
    assert np.shares_memory(lat.masses, dist.masses)
    assert lat.masses.tobytes() == dist.masses[1:].tobytes()
    with pytest.raises(ValueError, match="read-only"):
        lat.masses[0] = 1.0


def test_lattice_masses_sum_to_one():
    # masses 5e-13 short of one are divided by their fsum, so no transform sees the gap
    lat = Lattice(1.0, (0.3, 0.7 - 5e-13))
    assert lat.mgf(0.0) == lat.sf(0.5) == 1.0
    assert lat.mgf_m1(0.0) == 0.0
    assert math.fsum(lat.masses) == 1.0


def test_severity_distributions_build_no_tails_until_read():
    law = Exponential(1.0)
    for dist in (Lattice(0.5, (0.25, 0.0, 0.75)).as_distribution(), discretize(law, 0.1),
                 discretize_ladder(law, 0.1)):
        assert "tails" not in vars(dist)
        assert dist.tail(2) == float(dist.tails[2])
        # the running subtraction G_n = G_{n-1} - g_n, built once and kept
        want = np.subtract.accumulate(np.concatenate(([1.0], dist.masses)))[1:]
        assert dist.tails.tobytes() == want.tobytes() and dist.tails is dist.tails
        assert not dist.tails.flags.writeable


@settings(max_examples=25, deadline=None)
@given(all_severities, st.floats(0.05, 0.5))
# atoms just above a rounded cell edge: 2*d and 3*0.3 round to below 1 and 0.9
@example(PointMass(1.0), 0.49999999999999994)
@example(PointMass(0.9), 0.3)
@example(Lattice(0.5, (0.4, 0.6)), 0.49999999999999994)
def test_discretize_mass_is_one(model, d):
    dist = discretize(model, d)
    assert float(dist.masses.sum()) == pytest.approx(1.0, abs=1e-12)
    assert dist.masses[0] == 0.0


@pytest.mark.parametrize(
    "model, d",
    [
        (PointMass(1.0), 0.49999999999999994),
        (PointMass(0.9), 0.3),
        (Lattice(0.5, (0.4, 0.6)), 0.49999999999999994),
    ],
)
def test_discretize_keeps_atoms_on_their_lattice_point(model, d):
    # each atom is a multiple of d only up to rounding of n*d
    assert discretize(model, d).mean() == pytest.approx(model.moment(1), rel=1e-12)


@pytest.mark.parametrize("d", [0.0, -0.5, math.inf, math.nan])
def test_discretize_rejects_a_bad_span(d):
    with pytest.raises(DomainError, match="span must be"):
        discretize(Exponential(1.0), d)


@pytest.mark.parametrize(
    "model",
    [Exponential(1.0), Gamma(2.0), PointMass(1.0), MixtureOfExponentials((0.5, 0.5), (1.0, 2.0)),
     Lattice(0.5, (0.4, 0.6))],
    ids=lambda m: type(m).__name__,
)
def test_discretize_caps_the_cell_count(model):
    # the cell-count search stops at the cap, before any array is allocated
    with pytest.raises(TailError, match=f"within {MAX_CELLS} cells"):
        discretize(model, 1e-300)


def test_lattice_masses_are_exact_else_discretized():
    lat = Lattice(0.5, (0.4, 0.6))
    assert np.array_equal(lattice_masses(lat).masses, lat.as_distribution().masses)
    assert lattice_masses(lat, 0.5).span == 0.5
    with pytest.raises(GridError):
        lattice_masses(lat, 0.25)  # exact masses fix the span
    point = PointMass(1.0)
    assert np.array_equal(lattice_masses(point).masses, discretize(point, 1.0).masses)
    assert np.array_equal(lattice_masses(point, 0.25).masses, discretize(point, 0.25).masses)
    with pytest.raises(GridError):
        lattice_masses(Exponential(1.0))  # a density has no span of its own
    assert np.array_equal(lattice_masses(Exponential(1.0), 0.1).masses,
                          discretize(Exponential(1.0), 0.1).masses)


@pytest.mark.parametrize("d", [0.2, 0.1, 0.05, 0.01])
def test_discretize_mean_converges(d):
    dist = discretize(Exponential(1.0), d)
    assert abs(dist.mean() - 1.0) <= d


def test_ladder_point_mass():
    # survival of a unit point mass is the indicator of [0, 1)
    dist = discretize_ladder(PointMass(1.0), 0.5)
    assert dist.masses[1] == pytest.approx(0.5, abs=1e-14)
    assert dist.masses[2] == pytest.approx(0.5, abs=1e-14)


def test_ladder_exponential_shape():
    d = 0.05
    dist = discretize_ladder(Exponential(1.0), d)
    k = dist.masses[1:]
    ratios = k[1:40] / k[:39]
    assert np.allclose(ratios, math.exp(-d), rtol=1e-9)
    # cellwise comparison against the integral of e^{-u}/mu over each cell
    for n in (1, 5, 20):
        cell, _ = quad(lambda x: math.exp(-x), (n - 1) * d, n * d)
        assert k[n - 1] == pytest.approx(cell, rel=2 * d)


@settings(max_examples=25, deadline=None)
@given(all_severities, st.floats(0.05, 0.5))
def test_ladder_mass_is_one(model, d):
    dist = discretize_ladder(model, d)
    assert float(dist.masses.sum()) == pytest.approx(1.0, abs=1e-12)
    assert dist.masses[0] == 0.0


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------


def test_invalid_parameters():
    with pytest.raises(DomainError):
        Exponential(0.0)
    with pytest.raises(DomainError):
        PointMass(-1.0)
    with pytest.raises(DomainError):
        MixtureOfExponentials((0.6, 0.6), (1.0, 2.0))
    with pytest.raises(DomainError):
        MixtureOfExponentials((0.5, 0.5), (2.0, 1.0))
    with pytest.raises(DomainError):
        Lattice(1.0, (0.5, 0.4))


def test_mixture_weights_off_one_are_renormalized_once():
    mix = MixtureOfExponentials((0.3, 0.7 - 5e-13), (1.0, 2.0))
    assert sum(mix.weights) == 1.0
    assert mix.weights == pytest.approx((0.3 / (1.0 - 5e-13), (0.7 - 5e-13) / (1.0 - 5e-13)),
                                        rel=1e-16, abs=0.0)
    # every transform sees one law of total mass one
    assert mix.mgf(0.0) == 1.0
    assert mix.mgf_m1(0.0) == 0.0
    assert mix.sf(0.0) == mix.sf(1e-300) == 1.0
    assert mix.mean == pytest.approx(0.3 / 1.0 + 0.7 / 2.0, rel=1e-15)
    assert MixtureOfExponentials((0.9999999999999999,), (2.0,)).weights == (1.0,)


_MIX = MixtureOfExponentials((0.5, 0.5), (1.0, 2.0))


@pytest.mark.parametrize(
    "model, span, mixture, masses",
    [
        (Exponential(2.0), None, MixtureOfExponentials((1.0,), (2.0,)), None),
        (Gamma(3.0), None, None, None),
        (_MIX, None, _MIX, None),
        (PointMass(1.5), 1.5, None, None),
        (Lattice(0.5, (0.25, 0.75)), 0.5, None, [0.0, 0.25, 0.75]),
    ],
    ids=["exponential", "gamma", "mixture", "point", "lattice"],
)
def test_lattice_span_and_mixture_view(model, span, mixture, masses):
    assert model.lattice_span == span
    assert model.as_mixture() == mixture
    dist = model.as_distribution()
    if masses is None:
        assert dist is None
    else:
        assert dist.span == span
        assert dist.masses.tolist() == masses


def test_convergence_abscissa():
    assert Exponential(2.0).xi_bar == 2.0
    assert Gamma(3.0).xi_bar == 1.0
    assert MixtureOfExponentials((0.5, 0.5), (1.0, 2.0)).xi_bar == 1.0
    assert PointMass(1.0).xi_bar == math.inf
    assert Lattice(1.0, (1.0,)).xi_bar == math.inf
