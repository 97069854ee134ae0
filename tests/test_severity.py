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

# ---------------------------------------------------------------------------
# strategies
# ---------------------------------------------------------------------------

exponentials = st.floats(0.2, 5.0).map(Exponential)
gammas = st.floats(0.3, 4.0).map(Gamma)
point_masses = st.floats(0.1, 3.0).map(PointMass)


@st.composite
def mixtures(draw):
    n = draw(st.integers(2, 4))
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
        if isinstance(va, tuple):
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
def test_tilted_mean_is_log_derivative(model, frac):
    a = frac * min(model.xi_bar, 2.0) / 2.0
    step = 1e-4
    if a + step >= model.xi_bar:
        return
    log_deriv = (
        math.log(model.mgf(a + step)) - math.log(model.mgf(a - step))
    ) / (2 * step)
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
    dist = discretize(Exponential(1.0), 0.5, n_max=60)
    assert dist.masses[1] == pytest.approx(1 - math.exp(-0.5), rel=1e-12)
    assert dist.masses[2] == pytest.approx(math.exp(-0.5) - math.exp(-1.0), rel=1e-12)


def test_discretize_truncation():
    with pytest.raises(TailError):
        discretize(Exponential(1.0), 0.5, n_max=2)
    forced = discretize(Exponential(1.0), 0.5, n_max=2, force=True)
    # the residual tail is folded into the last cell
    assert forced.masses[2] == pytest.approx(
        math.exp(-0.5) - math.exp(-1.0) + math.exp(-1.0), rel=1e-12
    )
    assert forced.masses.sum() == pytest.approx(1.0, abs=1e-12)


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
    # closed-form cell counts reach the cap too, before any array is allocated
    with pytest.raises(TailError, match="within 1e9 cells"):
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
