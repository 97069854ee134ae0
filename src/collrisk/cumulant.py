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
from dataclasses import dataclass

import numpy as np
from scipy import special

from .errors import DomainError, LatticeSeverityError, SizeError
from .rootfind import expand_lower, expand_upper, safeguarded_newton
from .severity import Lattice, SeverityModel

logger = logging.getLogger(__name__)

SQRT_TWO_PI = math.sqrt(2.0 * math.pi)
_ENTROPY_RTOL = 1e-13  # relative tolerance of the tilt that maximizes x*xi - g(xi)
_TERM_TOL = 1e-16  # the discrete Esscher sum stops once its terms fall below this

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
    "suggest_truncation",
]


@dataclass(frozen=True)
class CompoundModel:
    """Claim intensity per unit time paired with a severity law."""

    rate: float
    severity: SeverityModel

    def __post_init__(self):
        if not self.rate > 0.0:
            raise DomainError(f"claim intensity must be positive, got {self.rate}")

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

    The maximizer solves g'(xi) = x, a strictly increasing equation, found
    by safeguarded Newton inside an expanding bracket. h vanishes exactly
    at the mean rate and is positive elsewhere.
    """
    if not x > 0.0:
        raise DomainError(f"level must be positive, got {x}")
    mean = model.mean_rate
    if abs(x - mean) <= 1e-12 * max(1.0, mean):
        return EntropyPoint(x, 0.0, 0.0)

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
    xi = safeguarded_newton(phi, model.g_second, lo, hi, rtol=_ENTROPY_RTOL)
    h = x * xi - model.g(xi)
    if h < -1e-12:
        raise DomainError(f"entropy came out negative ({h}); pathological severity")
    return EntropyPoint(x, xi, max(h, 0.0))


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

    Direct summation, truncated once terms fall below ``_TERM_TOL``. As
    b -> 0 at fixed s this tends to b / (sqrt(2 pi) (1 - e^{-s}))."""
    if s < 0.0:
        raise DomainError(f"Esscher function argument must be >= 0, got {s}")
    if not b > 0.0:
        raise DomainError(f"grid parameter must be positive, got {b}")
    total = 0.0
    n0 = 0
    chunk = 4096
    while True:
        n = np.arange(n0, n0 + chunk)
        terms = np.exp(-s * n - 0.5 * (n * b) ** 2) * (b / SQRT_TWO_PI)
        total += float(terms.sum())
        if terms[-1] < _TERM_TOL:  # terms decrease in n
            break
        n0 += chunk
    return total


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


def _tail_prelude(model: CompoundModel, t: float, x: float) -> tuple[EntropyPoint, float]:
    if not t > 0.0:
        raise DomainError(f"horizon must be positive, got {t}")
    if x <= model.mean_rate:
        raise DomainError(
            f"level {x} must exceed the mean rate {model.mean_rate} for an upper tail"
        )
    point = entropy(model, x)
    sigma = math.sqrt(t * model.g_second(point.tilt))
    return point, sigma


def esscher_tail(model: CompoundModel, t: float, x: float) -> EsscherTail:
    """Esscher approximation for a severity with a density.

    Lattice and point-mass severities must use the span-corrected
    :func:`esscher_tail_lattice` instead.
    """
    if model.severity.lattice_span is not None:
        raise LatticeSeverityError(
            "severity is lattice-valued; use esscher_tail_lattice for the span-corrected form"
        )
    point, sigma = _tail_prelude(model, t, x)
    a = point.tilt
    damp = math.exp(-t * point.h)
    return EsscherTail(
        value=damp * esscher_function(a * sigma),
        value_explicit=damp / (SQRT_TWO_PI * a * sigma),
        tilt=a,
        h=point.h,
        sigma=sigma,
        degenerate=a * sigma < 1.0,
    )


def esscher_tail_lattice(model: CompoundModel, t: float, x: float) -> EsscherTail:
    """Span-corrected Esscher approximation for lattice severities.

    The continuous prefactor 1/a becomes 1/A(d) with A(d) = (1 - e^{-ad})/d,
    which recovers the continuous formula as d -> 0. The canonical value
    uses the discrete Esscher function E(ad, d/sigma) directly.
    """
    d = model.severity.lattice_span
    if d is None:
        raise DomainError(
            "severity has a density; use esscher_tail (no span correction applies)"
        )
    point, sigma = _tail_prelude(model, t, x)
    a = point.tilt
    span_corr = (1.0 - math.exp(-a * d)) / d
    damp = math.exp(-t * point.h)
    return EsscherTail(
        value=damp * esscher_function_discrete(a * d, d / sigma),
        value_explicit=damp / (SQRT_TWO_PI * span_corr * sigma),
        tilt=a,
        h=point.h,
        sigma=sigma,
        degenerate=a * sigma < 1.0,
        span_correction=span_corr,
    )


# ---------------------------------------------------------------------------
# Individual (per-policy) model
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Policy:
    """A single policy: sum at risk and its loss probability."""

    sum_at_risk: float
    loss_probability: float

    def __post_init__(self):
        if not self.sum_at_risk > 0.0:
            raise DomainError(f"sum at risk must be positive, got {self.sum_at_risk}")
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


def _infer_span(values: list[float]) -> float:
    g = values[0]
    for v in values[1:]:
        g = _float_gcd(max(g, v), min(g, v), tol=1e-9 * max(values))
    if g < 1e-6 * max(values):
        raise DomainError(
            "sums at risk share no usable common span; pass an explicit span"
        )
    # snap the span so every value is an exact multiple
    n = [round(v / g) for v in values]
    for v, m in zip(values, n):
        if m < 1 or abs(v - m * g) > 1e-9 * max(1.0, v):
            raise DomainError(
                "sums at risk share no usable common span; pass an explicit span"
            )
    return g


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
        span = _infer_span(xs)
        indices = [round(x / span) for x in xs]
    else:
        if not span > 0.0:
            raise DomainError(f"span must be positive, got {span}")
        indices = [max(1, math.ceil(x / span - 1e-12)) for x in xs]
    masses = np.zeros(max(indices))
    for idx, li in zip(indices, lam_i):
        masses[idx - 1] += li / lam
    return CompoundModel(lam, Lattice(span, tuple(masses)))


_MAX_POLICIES = 25
_MAX_SUPPORT = 1 << 21


def portfolio_exact_tail(portfolio: Portfolio, x: float) -> float:
    """Exact P(total individual loss > x) by convolving two-point laws.

    Supports up to 25 policies; the support of the convolution is merged
    on the fly, so commensurable sums at risk stay cheap.
    """
    if len(portfolio) > _MAX_POLICIES:
        raise SizeError(
            f"{len(portfolio)} policies exceed the exact-enumeration cap of {_MAX_POLICIES}"
        )
    resolution = 1e-9
    dist: dict[int, float] = {0: 1.0}
    for pol in portfolio:
        shift = round(pol.sum_at_risk / resolution)
        p = pol.loss_probability
        new: dict[int, float] = {}
        for key, pr in dist.items():
            new[key] = new.get(key, 0.0) + pr * (1.0 - p)
            hit = key + shift
            new[hit] = new.get(hit, 0.0) + pr * p
        dist = new
        if len(dist) > _MAX_SUPPORT:
            raise SizeError("convolution support exceeded the enumeration cap")
    threshold = x + 1e-12 * max(1.0, abs(x))
    return sum(pr for key, pr in dist.items() if key * resolution > threshold)


def suggest_truncation(
    model: CompoundModel, t: float, d: float, tol: float = 1e-12
) -> int:
    """Smallest lattice index n with exp(-t*h(n*d/t)) below ``tol``.

    Ties the exponential tail bound to the recursion truncation point: mass
    beyond the suggested index is provably below ``tol``.
    """
    if not (t > 0.0 and d > 0.0):
        raise DomainError("horizon and span must be positive")

    def bound(n: int) -> float:
        return math.exp(-t * entropy(model, n * d / t).h)

    lo = max(1, math.ceil(t * model.mean_rate / d))
    hi = max(2 * lo, lo + 1)
    while bound(hi) >= tol:
        lo, hi = hi, 2 * hi
        if hi > 10**9:
            raise DomainError("no truncation point below tolerance within 1e9 cells")
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if bound(mid) >= tol:
            lo = mid
        else:
            hi = mid
    return hi
