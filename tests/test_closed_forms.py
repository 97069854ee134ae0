"""Closed-form tilt and adjustment-coefficient roots against 50-digit references.

Exponential, Gamma and point-mass claims give the tilt of g'(xi) = x in
closed form, and exponential claims the adjustment coefficient of
g(R) = c*R. Each closed form is checked against mpmath at 50 digits, taken
from the same float inputs, and against the safeguarded-Newton path that
the other laws keep, called directly on the same law.
"""

import math

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from collrisk import CompoundModel, DomainError, Exponential, Gamma, NoRootError, PointMass
from collrisk import RiskSystem, entropy, lundberg, mixture_exact
from collrisk.cumulant import _solve_tilt
from collrisk.ruin import _solve_adjustment

mpmath = pytest.importorskip("mpmath")

EPS = 2.0**-52

LAWS = {
    "exponential": lambda p, s: Exponential(p),
    "gamma": lambda p, s: Gamma(p, s),
    "point": lambda p, s: PointMass(p),
}


def _tilt_reference(severity, lam, x):
    """xi with lam*f'(xi) = x at the working precision, from the float inputs."""
    lam, x = mpmath.mpf(lam), mpmath.mpf(x)
    if isinstance(severity, Exponential):
        b = mpmath.mpf(severity.rate)
        return b - mpmath.sqrt(lam * b / x)
    if isinstance(severity, Gamma):
        a, s = mpmath.mpf(severity.shape), mpmath.mpf(severity.scale)
        return (1 - (lam * a * s / x) ** (1 / (a + 1))) / s
    a = mpmath.mpf(severity.location)
    return mpmath.log(x / (lam * a)) / a


# a level (or premium rate) within 1% of the mean rate is left out: there the
# root is near 0 and its relative error grows as 1/|x/mean - 1|
ratios = st.floats(math.log(0.05), math.log(20.0)).map(math.exp).filter(
    lambda r: abs(r - 1.0) >= 1e-2
)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(sorted(LAWS)), st.floats(0.2, 5.0), st.floats(0.5, 2.0),
       st.floats(0.2, 5.0), ratios)
def test_closed_form_tilt_matches_a_50_digit_reference(law, param, scale, lam, ratio):
    severity = LAWS[law](param, scale)
    model = CompoundModel(lam, severity)
    x = ratio * model.mean_rate
    assume(abs(x / model.mean_rate - 1.0) >= 1e-2)
    closed = severity.tilt_root(lam, x)
    assert entropy(model, x).tilt == closed  # the entropy takes the closed form
    newton = _solve_tilt(model, x, model.mean_rate)
    # two ulps of the tilt plus the tilt shift that two ulps of the level cause
    slack = 2.0 * EPS * (abs(closed) + x / model.g_second(closed))
    with mpmath.workdps(50):
        ref = _tilt_reference(severity, lam, x)
        err, err_newton = abs(closed - ref), abs(newton - ref)
        assert err <= 1e-12 * abs(ref)
        assert err <= err_newton + slack


@settings(max_examples=200, deadline=None)
@given(st.floats(0.2, 5.0), st.floats(0.2, 5.0), ratios)
def test_closed_form_adjustment_coefficient_matches_a_50_digit_reference(rate, lam, ratio):
    model = CompoundModel(lam, Exponential(rate))
    c = ratio * model.mean_rate
    assume(abs(c / model.mean_rate - 1.0) >= 1e-2)
    system = RiskSystem(model, c)
    closed = model.severity.adjustment_root(lam, c)
    assert lundberg(system).R == closed
    if c > model.mean_rate:
        assert mixture_exact(system, 1.0).decay_rates == (closed,)
    newton = _solve_adjustment(model, c, c > model.mean_rate)
    # two ulps of R plus the shift of R that two ulps of the premium rate cause
    slack = 2.0 * EPS * (abs(closed) + abs(c * closed / (model.g_prime(closed) - c)))
    with mpmath.workdps(50):
        ref = mpmath.mpf(rate) - mpmath.mpf(lam) / mpmath.mpf(c)
        err, err_newton = abs(closed - ref), abs(newton - ref)
        assert err <= 1e-12 * abs(ref)
        assert err <= err_newton + slack


@pytest.mark.parametrize("severity", [Exponential(1.0), Gamma(2.5)], ids=["exponential", "gamma"])
def test_a_tilt_that_rounds_to_the_abscissa_names_the_level(severity):
    # xi = 1 - sqrt(1e-300) and 1 - (2.5e-300)^(1/3.5) both round to the abscissa 1
    assert severity.tilt_root(1.0, 1e300) == severity.xi_bar
    with pytest.raises(DomainError, match="g' never reaches 1e\\+300 below the abscissa 1.0"):
        entropy(CompoundModel(1.0, severity), 1e300)


@pytest.mark.parametrize(
    "severity, x, message",
    [
        (Exponential(10.0), 1e308, "g' never reaches 1e\\+308 below the abscissa 10.0"),  # b*x = inf
        (Exponential(10.0), 1e-320, "g' never falls to 1e-320"),  # lam/(b*x) = inf
        (Gamma(0.01), 1e-320, "g' never falls to 1e-320"),  # the power overflows
    ],
    ids=["exponential-high", "exponential-low", "gamma-low"],
)
def test_a_closed_form_past_the_float_range_falls_back_to_bracketing(severity, x, message):
    # the bracketing path decides, with the message it gave before closed forms
    with pytest.raises(DomainError, match=message):
        entropy(CompoundModel(1.0, severity), x)


def test_an_adjustment_coefficient_past_the_float_range_falls_back_to_bracketing():
    # lambda/c overflows to inf: bracketing finds no negative root, as before closed forms
    with pytest.raises(NoRootError, match="no negative root found"):
        lundberg(RiskSystem(CompoundModel(1e300, Exponential(1.0)), 1e-10))
