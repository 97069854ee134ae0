"""Safeguarded Newton iteration on a sign-changing bracket.

Used for the two monotone scalar equations the library depends on: the
tilt equation g'(xi) = x behind the entropy function, and the
adjustment-coefficient equation g(a) = c*a. Newton steps are accepted only
while they stay inside the current bracket; otherwise the step falls back
to bisection, so convergence is guaranteed for any continuous monotone
function with f(lo) and f(hi) of opposite sign.
"""

from __future__ import annotations

from typing import Callable

from .errors import ConvergenceError

_MAX_ITER = 200  # Newton/bisection steps before a ConvergenceError
_MAX_STEPS = 200  # bracket expansions before giving up with nan


def safeguarded_newton(
    f: Callable[[float], float],
    fprime: Callable[[float], float],
    lo: float,
    hi: float,
    rtol: float = 1e-14,
) -> float:
    """Find the root of ``f`` in ``[lo, hi]`` where ``f(lo) <= 0 <= f(hi)``.

    Returns the root to relative tolerance ``rtol`` (absolute near zero).
    Raises ConvergenceError if the iteration cap is reached, which signals
    a pathological input rather than a tight tolerance.
    """
    flo, fhi = f(lo), f(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if flo > 0.0 or fhi < 0.0:
        raise ValueError(f"root not bracketed: f({lo})={flo}, f({hi})={fhi}")

    x = 0.5 * (lo + hi)
    for _ in range(_MAX_ITER):
        fx = f(x)
        if fx == 0.0:
            return x
        if fx < 0.0:
            lo = x
        else:
            hi = x
        dfx = fprime(x)
        step_ok = dfx > 0.0 and lo < x - fx / dfx < hi
        x_new = x - fx / dfx if step_ok else 0.5 * (lo + hi)
        if abs(x_new - x) <= rtol * max(1.0, abs(x_new)):
            return x_new
        x = x_new
    raise ConvergenceError(
        f"no convergence after {_MAX_ITER} iterations (bracket [{lo}, {hi}])"
    )


def expand_upper(f: Callable[[float], float], start: float, limit: float) -> float:
    """Return ``hi > start`` with ``f(hi) > 0``, approaching ``limit`` geometrically.

    ``limit`` may be ``inf``, in which case ``hi`` doubles outward. Returns
    ``nan`` if no sign change is found within ``_MAX_STEPS`` steps or once
    the next step rounds to a finite ``limit``, where ``f`` is never called.
    """
    hi = start
    for _ in range(_MAX_STEPS):
        if limit == float("inf"):
            hi = hi * 2.0 if hi > 0 else 1.0
        else:
            hi = limit - 0.5 * (limit - hi)
            if hi == limit:
                break
        if f(hi) > 0.0:
            return hi
    return float("nan")


def expand_lower(f: Callable[[float], float], start: float) -> float:
    """Return ``lo < start`` with ``f(lo) < 0``, doubling downward (no lower limit)."""
    lo = start
    for _ in range(_MAX_STEPS):
        lo = lo * 2.0 if lo < 0 else -1.0
        if f(lo) < 0.0:
            return lo
    return float("nan")
