"""Compound Poisson models: cumulant function, entropy, and tail approximations.

The model (lambda, F) has cumulant g(xi) = lambda*(f(xi) - 1), where f is
the severity generating function. The entropy function h is the Legendre
transform of g; it gives the exact exponential decay rate of the tails of
S(t)/t and, refined by the Esscher prefactors, sharp tail approximations.
Conversion from the individual (per-policy) model enters here as well.

Only the one-sided tail approximations are exposed. General interval
probabilities P(S(t)/t in I) share the exponent min over I of h, but the
constant in front of 1/sqrt(t) is not pinned down by the theory used here,
so no interval form is offered.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np
from scipy import special

from .errors import DomainError
from .lattice import (
    MAX_CELLS, check_cells, check_span, first_step, step_at, steps_to, steps_within
)
from .rootfind import expand_lower, expand_upper, safeguarded_newton
from .severity import Lattice, SeverityModel

logger = logging.getLogger(__name__)

SQRT_TWO_PI = math.sqrt(2.0 * math.pi)
_ENTROPY_RTOL = 1e-13  # relative tolerance of the tilt that maximizes x*xi - g(xi)
_TERM_TOL = 1e-16  # share of its first term that the discrete Esscher sum may leave out

__all__ = [
    "CompoundModel",
    "EntropyPoint",
    "ChernoffBound",
    "EsscherTail",
    "Policy",
    "Portfolio",
    "entropy",
    "chernoff_bound",
    "esscher_function",
    "esscher_function_discrete",
    "esscher_tail",
    "esscher_tail_lattice",
    "portfolio_to_compound",
    "portfolio_exact_tail",
    "portfolio_tail_bracket",
    "suggest_truncation",
]


@dataclass(frozen=True)
class CompoundModel:
    """Claim intensity per unit time paired with a severity law.

    The model keeps the roots solved for it (``entropy`` by level,
    ``lundberg`` and ``mixture_exact`` by premium rate), so each is solved
    once per model. The memo is outside equality, hash and repr.
    """

    rate: float
    severity: SeverityModel
    _roots: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.rate > 0.0:
            raise DomainError(f"claim intensity must be positive, got {self.rate}")

    def _root(self, key: tuple, solve):
        """``solve()`` on the first call for ``key``, the same object after that.

        Only results are kept: a solve that raises runs again on the next call.
        Threads that ask at once may each solve; they store equal results.
        """
        root = self._roots.get(key)
        if root is None:
            root = self._roots[key] = solve()
        return root

    @property
    def xi_bar(self) -> float:
        return self.severity.xi_bar

    @property
    def mean_rate(self) -> float:
        """g'(0) = lambda * mu, the expected loss per unit time."""
        return self.rate * self.severity.mean

    def g(self, xi: float) -> float:
        return self.rate * self.severity.mgf_m1(xi)

    def g_prime(self, xi: float) -> float:
        return self.rate * self.severity.mgf_prime(xi)

    def g_second(self, xi: float) -> float:
        return self.rate * self.severity.mgf_second(xi)

    def tilt_model(self, a: float) -> "CompoundModel":
        """The model under the exponentially tilted measure.

        Intensity becomes lambda*f(a) and the severity is tilted within its
        family; the tilted cumulant is g(a + xi) - g(a).
        """
        return CompoundModel(self.rate * self.severity.mgf(a), self.severity.tilt(a))


@dataclass(frozen=True)
class EntropyPoint:
    """A point on the Legendre transform of the cumulant function."""

    x: float
    tilt: float  # xi_x solving g'(xi) = x
    h: float  # x*xi_x - g(xi_x) >= 0


def entropy(model: CompoundModel, x: float) -> EntropyPoint:
    """Entropy h(x) = max_xi {x*xi - g(xi)} with its maximizing tilt.

    The maximizer solves g'(xi) = x, a strictly increasing equation. The
    severity gives its root in closed form where it has one (exponential,
    Gamma and point-mass claims, ``SeverityModel.tilt_root``); otherwise
    safeguarded Newton finds it inside an expanding bracket. h vanishes
    exactly at the mean rate and is positive elsewhere. Each level is
    solved once per model; a repeat returns the stored point.
    """
    return model._root(("entropy", x), lambda: _entropy(model, x))


def _entropy(model: CompoundModel, x: float) -> EntropyPoint:
    if not x > 0.0:
        raise DomainError(f"level must be positive, got {x}")
    mean = model.mean_rate
    if abs(x - mean) <= 1e-12 * max(1.0, mean):
        return EntropyPoint(x, 0.0, 0.0)
    try:
        xi = model.severity.tilt_root(model.rate, x)
    except (ValueError, OverflowError):  # log(0) or exp past its range
        xi = math.nan
    if xi is None or not math.isfinite(xi):  # no closed form, or it leaves the float range
        xi = _solve_tilt(model, x, mean)
    elif not xi < model.xi_bar:
        raise DomainError(f"g' never reaches {x} below the abscissa {model.xi_bar}")
    h = x * xi - model.g(xi)
    if h < -1e-12:
        raise DomainError(f"entropy came out negative ({h}); pathological severity")
    return EntropyPoint(x, xi, max(h, 0.0))


def _solve_tilt(model: CompoundModel, x: float, mean: float) -> float:
    """The root of g'(xi) = x by safeguarded Newton, on a bracket grown from 0."""

    def phi(xi: float) -> float:
        return model.g_prime(xi) - x

    if x > mean:
        lo = 0.0
        hi = expand_upper(phi, 0.0, model.xi_bar)
        if math.isnan(hi):
            raise DomainError(f"g' never reaches {x} below the abscissa {model.xi_bar}")
    else:
        hi = 0.0
        lo = expand_lower(phi, 0.0)
        if math.isnan(lo):
            raise DomainError(f"g' never falls to {x}")
    return safeguarded_newton(phi, model.g_second, lo, hi, rtol=_ENTROPY_RTOL)


@dataclass(frozen=True)
class ChernoffBound:
    bound: float
    side: str  # "upper-tail" or "lower-tail"
    point: EntropyPoint


def chernoff_bound(model: CompoundModel, t: float, x: float) -> ChernoffBound:
    """exp(-t*h(x)), bounding P(S(t) >= tx) above the mean rate and
    P(S(t) <= tx) below it."""
    if not t > 0.0:
        raise DomainError(f"horizon must be positive, got {t}")
    point = entropy(model, x)
    side = "upper-tail" if x >= model.mean_rate else "lower-tail"
    return ChernoffBound(math.exp(-t * point.h), side, point)


def esscher_function(s: float) -> float:
    """E(s) = exp(s^2/2) * (1 - Phi(s)), evaluated without cancellation.

    Uses the scaled complementary error function, so large s is exact to
    machine precision instead of 0 * inf.
    """
    if s < 0.0:
        raise DomainError(f"Esscher function argument must be >= 0, got {s}")
    return float(special.erfcx(s / math.sqrt(2.0))) / 2.0


def esscher_function_discrete(s: float, b: float) -> float:
    """Discrete counterpart E(s, b) = sum_n exp(-s n) * phi(n b) * b.

    Direct summation of the terms up to the first n = N past which the
    rest add up to under ``_TERM_TOL`` of the first term. From n on each
    term is at most q = e^{-(s + b^2 n)} times the one before, so the rest
    add up to at most term_N / (1 - q); N then comes in closed form from
    s N + (N b)^2 / 2 = log(1 / _TERM_TOL) - log(1 - q), with q taken at the
    root of the same equation without its last term. A sum of more than
    ``lattice.MAX_CELLS`` terms is a DomainError. As b -> 0 at fixed s this
    tends to b / (sqrt(2 pi) (1 - e^{-s}))."""
    if s < 0.0:
        raise DomainError(f"Esscher function argument must be >= 0, got {s}")
    if not b > 0.0:
        raise DomainError(f"grid parameter must be positive, got {b}")

    def root(level: float) -> float:  # of s N + (N b)^2 / 2 = level, without cancellation
        return 2.0 * level / (s + math.hypot(s, b * math.sqrt(2.0 * level)))

    level = -math.log(_TERM_TOL)
    n_end = root(level - math.log(-math.expm1(-s - b * (b * max(root(level), 1.0)))))
    if not n_end < MAX_CELLS:
        raise DomainError(f"E({s}, {b}) needs more than {MAX_CELLS} terms")
    n = np.arange(int(n_end) + 2)  # int() + 2 takes the sum past N
    return float((np.exp(-s * n - 0.5 * (n * b) ** 2) * (b / SQRT_TWO_PI)).sum())


@dataclass(frozen=True)
class EsscherTail:
    """Tail approximation of P(S(t) >= t x) by exponential centering.

    ``value`` is the canonical form with the (discrete) Esscher-function
    prefactor; ``value_explicit`` is the expanded 1/(sqrt(2 pi) a sigma)
    form, with a replaced by the span correction A(d) on a lattice.
    ``degenerate`` flags a*sigma < 1, where the formula approaches the
    central-limit regime and loses accuracy.
    """

    value: float
    value_explicit: float
    tilt: float
    h: float
    sigma: float
    degenerate: bool
    span_correction: float | None = None


def esscher_tail(model: CompoundModel, t: float, x: float) -> EsscherTail:
    """Esscher approximation of P(S(t) >= t x) for any claim law.

    A density gets the prefactor 1/a and E(a sigma). On a lattice of span d
    1/a becomes 1/A(d) with A(d) = (1 - e^{-ad})/d, which recovers the
    continuous form as d -> 0, and E(a sigma) becomes the discrete Esscher
    function E(ad, d/sigma).
    """
    if not t > 0.0:
        raise DomainError(f"horizon must be positive, got {t}")
    point = entropy(model, x)
    a = point.tilt
    if not a > 0.0:  # entropy puts every level within rounding of the mean rate at tilt 0
        raise DomainError(
            f"level {x} must exceed the mean rate {model.mean_rate} for an upper tail"
        )
    sigma = math.sqrt(t * model.g_second(a))
    damp = math.exp(-t * point.h)
    d = model.severity.lattice_span
    if d is None:
        span_corr, prefactor, value = None, a, esscher_function(a * sigma)
    else:
        span_corr = prefactor = -math.expm1(-a * d) / d
        value = esscher_function_discrete(a * d, d / sigma)
    return EsscherTail(
        value=damp * value,
        value_explicit=damp / (SQRT_TWO_PI * prefactor * sigma),
        tilt=a,
        h=point.h,
        sigma=sigma,
        degenerate=a * sigma < 1.0,
        span_correction=span_corr,
    )


def esscher_tail_lattice(model: CompoundModel, t: float, x: float) -> EsscherTail:
    """:func:`esscher_tail` for a law with a lattice span only."""
    if model.severity.lattice_span is None:
        raise DomainError(
            "severity has a density; use esscher_tail (no span correction applies)"
        )
    return esscher_tail(model, t, x)


# ---------------------------------------------------------------------------
# Individual (per-policy) model
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Policy:
    """A single policy: sum at risk and its loss probability."""

    sum_at_risk: float
    loss_probability: float

    def __post_init__(self):
        if not 0.0 < self.sum_at_risk < math.inf:
            raise DomainError(
                f"sum at risk must be positive and finite, got {self.sum_at_risk}"
            )
        if not 0.0 < self.loss_probability < 1.0:
            raise DomainError(
                f"loss probability must lie in (0, 1), got {self.loss_probability}"
            )


@dataclass(frozen=True)
class Portfolio:
    """A finite collection of independent policies."""

    policies: tuple[Policy, ...]

    def __post_init__(self):
        if not self.policies:
            raise DomainError("portfolio must contain at least one policy")

    def __iter__(self):
        return iter(self.policies)

    def __len__(self):
        return len(self.policies)

    @property
    def sum_p_squared(self) -> float:
        """Quality indicator for the compound Poisson approximation."""
        return sum(p.loss_probability**2 for p in self.policies)

    @property
    def approximation_bound(self) -> float:
        """Sum over policies of p + (1-p) log(1-p), at least sum p^2 / 2.

        Each term is the total-variation distance between a policy's
        Bernoulli(p) loss count and its matched-zero Poisson(-log(1-p))
        stand-in, so the sum bounds |P(L > x) - P(S > x)| for every x.
        Up to p = 1/2 the terms come from the series sum_{k>=2} p^k / (k(k-1)),
        which avoids the cancellation of the closed form at small p.
        """
        p = np.array([pol.loss_probability for pol in self.policies])
        k = np.arange(2, 60)
        series = (p[:, None] ** k / (k * (k - 1))).sum(axis=1)
        closed = p + (1.0 - p) * np.log1p(-p)
        return float(np.where(p <= 0.5, series, closed).sum())


def _float_gcd(a: float, b: float, tol: float) -> float:
    while b > tol:
        a, b = b, a % b
        if a < b:
            a, b = b, a
    return a


def _infer_span(values: list[float]) -> tuple[float, list[int]]:
    """The coarsest span with every value on its lattice, and each value's step count."""
    g, top = values[0], max(values)
    for v in values[1:]:
        g = _float_gcd(max(g, v), min(g, v), tol=1e-9 * top)
    if g >= 1e-6 * top:
        steps = [step_at(v, g) for v in values]
        if None not in steps and min(steps) >= 1:
            return g, steps
    raise DomainError("sums at risk share no usable common span; pass an explicit span")


def portfolio_to_compound(portfolio: Portfolio, span: float | None = None) -> CompoundModel:
    """Compound Poisson approximation of the individual model.

    Each policy contributes intensity lambda_i = -log(1 - p_i) (so the
    probability of no loss matches exactly) and the severity places mass
    lambda_i / lambda at the sum at risk x_i, coincident atoms merged.
    Without an explicit ``span`` the coarsest lattice carrying all atoms
    exactly is inferred; with one, atoms snap up to the next lattice point
    (the same right-endpoint rule used for empirical data).
    """
    lam_i = []
    for pol in portfolio:
        if pol.loss_probability > 0.999:
            logger.warning(
                "policy with loss probability %.6g: intensity -log(q) is large and the "
                "compound approximation degrades (sum of p^2 = %.3g)",
                pol.loss_probability,
                portfolio.sum_p_squared,
            )
        lam_i.append(-math.log1p(-pol.loss_probability))
    lam = sum(lam_i)
    xs = [pol.sum_at_risk for pol in portfolio]
    if span is None:
        span, indices = _infer_span(xs)
    else:
        indices = [max(1, steps_to(x, check_span(span))) for x in xs]
    masses = np.zeros(check_cells(max(indices)))
    for idx, li in zip(indices, lam_i):
        masses[idx - 1] += li / lam
    return CompoundModel(lam, Lattice(span, masses))


def _lattice_tails(portfolio: Portfolio, steps: list[int], span: float, x):
    """P(L > x), where policy i adds ``steps[i]`` cells of ``span`` to L when it claims.

    One convolution over the support reached so far, g <- (1 - p)*g + p*shift_k(g)
    per policy, keeps every cell, and each tail sums masses from the top down,
    so no term cancels. A sequence of levels gives its tails, in order.
    """
    g = np.zeros(check_cells(sum(steps) + 1))
    g[0], top = 1.0, 0
    for k, pol in zip(steps, portfolio):
        hit = pol.loss_probability * g[: top + 1]
        g[: top + 1] *= 1.0 - pol.loss_probability
        top += k
        g[k : top + 1] += hit
    above = np.append(np.cumsum(g[::-1])[::-1], 0.0)  # above[m] = P(L >= m*span)
    tails = above[steps_within(np.clip(np.atleast_1d(x), -span, top * span), span) + 1]
    return tails.tolist() if np.ndim(x) else float(tails[0])


def portfolio_exact_tail(portfolio: Portfolio, x: float | list[float]) -> float | list[float]:
    """Exact P(total individual loss > x) on the sums' coarsest common lattice (``_infer_span``).

    For a sequence of levels the tails come, in order, from one convolution,
    bit for bit as one call per level.
    """
    span, steps = _infer_span([pol.sum_at_risk for pol in portfolio])
    return _lattice_tails(portfolio, steps, span, x)


def portfolio_tail_bracket(portfolio: Portfolio, span: float, x: float | list[float]) -> tuple:
    """P(L > x) from below and above, every sum at risk rounded down, then up, onto ``span``.

    The upper portfolio is the one ``portfolio_to_compound(portfolio, span)`` collects.
    """
    sums = [pol.sum_at_risk for pol in portfolio]
    lower = _lattice_tails(portfolio, [steps_within(v, check_span(span)) for v in sums], span, x)
    upper = _lattice_tails(portfolio, [max(1, steps_to(v, span)) for v in sums], span, x)
    return lower, upper


def suggest_truncation(
    model: CompoundModel, t: float, d: float, tol: float = 1e-12
) -> int:
    """Smallest lattice index n past the mean with exp(-t*h(n*d/t)) below ``tol``.

    Ties the exponential tail bound to the recursion truncation point: mass
    beyond the suggested index is provably below ``tol``. The search
    (``lattice.first_step``) starts at ``steps_to(t*mean_rate, d)``; no such
    index up to ``lattice.MAX_CELLS`` is a DomainError.
    """
    if not t > 0.0:
        raise DomainError(f"horizon must be positive, got {t}")
    check_span(d)

    def below(n: int) -> bool:
        return math.exp(-t * entropy(model, n * d / t).h) < tol

    n = first_step(below, steps_to(t * model.mean_rate, d))
    if n is None:
        raise DomainError(f"no truncation point below tolerance within {MAX_CELLS} cells")
    return n
