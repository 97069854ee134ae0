"""Reference values for the benchmark's answer checks, computed apart from collrisk.

Nothing here imports collrisk. Each function is a closed form, a classical
series or a quadrature of one, so a fault in the library's lattice
recursions, root finders or samplers cannot leak into the reference it is
checked against.

Notation: Poisson claim intensity ``lam``, premium rate ``c``, capital
``u``, horizon ``t``, lattice span ``d``. Exponential claims have rate
``b``; the discretized law of an Exp(b) claim on span ``d`` (right
endpoint, as the library rounds) is geometric on {d, 2d, ...} with
q = exp(-b d).
"""

from __future__ import annotations

import math

import numpy as np
from scipy import integrate, optimize, special, stats


# ---------------------------------------------------------------------------
# Cumulant g(theta) = lam * (E exp(theta X) - 1) and its first two derivatives
# ---------------------------------------------------------------------------


class Cumulant:
    """g, g' and g'' of a compound Poisson model, written out per claim kind.

    ``kind`` and ``params`` follow collrisk's severity constructors:
    exponential (rate,), gamma (shape,) with unit scale, point (location,),
    mixture (weights, rates) and lattice (span, masses) with ``masses[n-1]``
    at ``n*span``.
    """

    def __init__(self, lam: float, kind: str, params: tuple):
        self.lam, self.kind, self.params = lam, kind, params
        if kind == "mixture":
            self._w, self._b = (np.asarray(p, dtype=float) for p in params)
        elif kind == "lattice":
            span, masses = params
            self._f = np.asarray(masses, dtype=float)
            self._x = np.arange(1, self._f.size + 1) * span

    @property
    def abscissa(self) -> float:
        if self.kind == "exponential":
            return self.params[0]
        if self.kind == "gamma":
            return 1.0
        if self.kind == "mixture":
            return float(self._b[0])
        return math.inf

    @property
    def mean_rate(self) -> float:
        return self.g1(0.0)

    def g(self, th: float) -> float:
        lam, p = self.lam, self.params
        if self.kind == "exponential":
            return lam * th / (p[0] - th)
        if self.kind == "gamma":
            return lam * math.expm1(-p[0] * math.log1p(-th))
        if self.kind == "point":
            return lam * math.expm1(th * p[0])
        if self.kind == "mixture":
            return lam * float(np.sum(self._w * th / (self._b - th)))
        return lam * float(np.dot(self._f, np.expm1(th * self._x)))

    def g1(self, th: float) -> float:
        lam, p = self.lam, self.params
        if self.kind == "exponential":
            return lam * p[0] / (p[0] - th) ** 2
        if self.kind == "gamma":
            return lam * p[0] * (1.0 - th) ** (-p[0] - 1.0)
        if self.kind == "point":
            return lam * p[0] * math.exp(th * p[0])
        if self.kind == "mixture":
            return lam * float(np.sum(self._w * self._b / (self._b - th) ** 2))
        return lam * float(np.dot(self._f, self._x * np.exp(th * self._x)))

    def g2(self, th: float) -> float:
        lam, p = self.lam, self.params
        if self.kind == "exponential":
            return 2.0 * lam * p[0] / (p[0] - th) ** 3
        if self.kind == "gamma":
            return lam * p[0] * (p[0] + 1.0) * (1.0 - th) ** (-p[0] - 2.0)
        if self.kind == "point":
            return lam * p[0] ** 2 * math.exp(th * p[0])
        if self.kind == "mixture":
            return lam * float(np.sum(2.0 * self._w * self._b / (self._b - th) ** 3))
        return lam * float(np.dot(self._f, self._x**2 * np.exp(th * self._x)))

    def entropy(self, x: float) -> float | None:
        """Closed-form h(x) where the kind has one, else None."""
        lam, p = self.lam, self.params
        if self.kind == "exponential":
            return entropy_exponential(lam, p[0], x)[0]
        if self.kind == "gamma":
            return entropy_gamma(lam, p[0], x)[0]
        if self.kind == "point":
            return entropy_point(lam, p[0], x)[0]
        return None


def g_geometric(lam: float, b: float, d: float, theta: float) -> float:
    """Cumulant of the right-endpoint discretization of Exp(b) on span d."""
    q = math.exp(-b * d)
    e = math.exp(theta * d)
    return lam * ((1.0 - q) * e / (1.0 - q * e) - 1.0)


# ---------------------------------------------------------------------------
# Entropy h(x) = sup_theta {x theta - g(theta)} in closed form
# ---------------------------------------------------------------------------


def entropy_exponential(lam: float, b: float, x: float) -> tuple[float, float]:
    """(h(x), tilt) with h(x) = (sqrt(b x) - sqrt(lam))^2."""
    return (math.sqrt(b * x) - math.sqrt(lam)) ** 2, b - math.sqrt(b * lam / x)


def entropy_gamma(lam: float, shape: float, x: float) -> tuple[float, float]:
    """Unit-scale Gamma claims: g'(theta) = lam*shape*(1-theta)^(-shape-1) = x."""
    theta = 1.0 - (lam * shape / x) ** (1.0 / (shape + 1.0))
    return x * theta - lam * math.expm1(-shape * math.log1p(-theta)), theta


def entropy_point(lam: float, location: float, x: float) -> tuple[float, float]:
    """Poisson rate function on the scale of the claim: N*location >= x."""
    theta = math.log(x / (lam * location)) / location
    return x * theta - x / location + lam, theta


def chernoff_geometric(lam: float, b: float, d: float, t: float, x: float) -> float:
    """exp(-t h_d(x)) for the discretized Exp(b) claims; bounds P(S_d(t) >= t x).

    The tilt comes from brentq on g_d'(theta) = x. Any tilt gives a valid
    bound, so an inexact root only weakens it.
    """
    q = math.exp(-b * d)
    top = -math.log(q) / d  # abscissa: q e^{theta d} < 1

    def g_prime(theta: float) -> float:
        e = math.exp(theta * d)
        return lam * d * (1.0 - q) * e / (1.0 - q * e) ** 2

    theta = optimize.brentq(lambda th: g_prime(th) - x, 0.0, top * (1.0 - 1e-12), xtol=1e-15)
    return math.exp(-t * (x * theta - g_geometric(lam, b, d, theta)))


# ---------------------------------------------------------------------------
# Ruin probabilities
# ---------------------------------------------------------------------------


def exponential_ruin(lam: float, b: float, c: float, u: float) -> float:
    """psi(u) = (lam/(b c)) exp(-(b - lam/c) u) for Exp(b) claims."""
    return lam / (b * c) * math.exp(-(b - lam / c) * u)


def lattice_exponential_ruin(lam: float, b: float, c: float, d: float, u: float) -> float:
    """Ruin curve of the discretized Exp(b) model, P(M > floor(u/d)) on the lattice.

    The ladder law of geometric claims is geometric, so the
    compound-geometric maximum M has the tail r (1 - (1-r)(1-q))^n with
    r = lam/(b c) and q = exp(-b d).
    """
    r = lam / (b * c)
    q = math.exp(-b * d)
    n = math.floor(u / d + 1e-9)
    return r * math.exp(n * math.log1p(-(1.0 - r) * (1.0 - q)))


def prabhu_ruin(lam: float, b: float, c: float, u: float, t: float) -> float:
    """Finite-time ruin probability psi(u, t) for Exp(b) claims (Prabhu, 1961).

    In units where claims are Exp(1) and the premium rate is 1 (money
    times b, time times b c): beta = lam/(b c), s = b c t, v = b u and
    psi = beta e^{-(1-beta) v} - (1/pi) int_0^pi F(theta) dtheta.
    """
    if t <= 0.0:
        return 0.0
    beta = lam / (b * c)
    s = b * c * t
    v = b * u
    rb = math.sqrt(beta)

    def integrand(theta: float) -> float:
        cos_t = math.cos(theta)
        arg = v * rb * math.sin(theta)
        weight = math.exp(2.0 * rb * s * cos_t - (1.0 + beta) * s + v * (rb * cos_t - 1.0))
        return beta * weight * (math.cos(arg) - math.cos(arg + 2.0 * theta)) / (
            1.0 + beta - 2.0 * rb * cos_t
        )

    area, _ = integrate.quad(integrand, 0.0, math.pi, epsabs=1e-15, epsrel=1e-12, limit=400)
    return beta * math.exp(-(1.0 - beta) * v) - area / math.pi


def conditional_mean_ruin_time(lam: float, b: float, c: float, u: float, horizon: float) -> float:
    """E[T(u) | T(u) <= horizon] = int_0^horizon (1 - psi(u, s)/psi(u, horizon)) ds."""
    psi_h = prabhu_ruin(lam, b, c, u, horizon)
    # psi(u, s) is 0 until the first claims can reach u; Gauss-Legendre on
    # panels keeps this nested quadrature to a few hundred psi evaluations.
    nodes, weights = np.polynomial.legendre.leggauss(24)
    edges = np.linspace(0.0, horizon, 17)
    total = 0.0
    for lo, hi in zip(edges[:-1], edges[1:]):
        half = 0.5 * (hi - lo)
        for z, w in zip(nodes, weights):
            s = lo + half * (z + 1.0)
            total += half * w * (1.0 - prabhu_ruin(lam, b, c, u, s) / psi_h)
    return total


def compound_exponential_density(lam: float, b: float, s: float, y: float) -> float:
    """Density of S(s) at y > 0 for Exp(b) claims, sum_k Pois(k) Gamma(k, b) pdf.

    Closed form e^{-lam s - b y} sqrt(lam s b / y) I_1(2 sqrt(lam s b y)),
    written with the scaled Bessel function so it neither under- nor
    overflows.
    """
    z = 2.0 * math.sqrt(lam * s * b * y)
    expo = -(math.sqrt(lam * s) - math.sqrt(b * y)) ** 2
    return math.exp(expo) * math.sqrt(lam * s * b / y) * float(special.ive(1, z))


def kendall_hitting(lam: float, b: float, c: float, u: float, t: float) -> float:
    """P(first passage of S(s) - c s to -u happens by t), Exp(b) claims.

    Kendall's identity: the no-claim path contributes e^{-lam u/c} at time
    u/c, and every later passage time s has density (u/s) f_S(s)(c s - u).
    """
    start = u / c
    if t <= start:
        return 0.0
    area, _ = integrate.quad(
        lambda s: (u / s) * compound_exponential_density(lam, b, s, c * s - u)
        if c * s > u
        else lam * b * u / c,  # limit of the integrand as s -> u/c
        start,
        t,
        epsabs=1e-14,
        epsrel=1e-11,
        limit=400,
    )
    return math.exp(-lam * start) + area


def exponential_hitting_limit(lam: float, b: float, c: float, u: float) -> float:
    """Infinite-horizon passage probability to -u: 1, or e^{R u} with R = b - lam/c < 0."""
    root = b - lam / c
    return 1.0 if root >= 0.0 else math.exp(root * u)


# ---------------------------------------------------------------------------
# Aggregate tails P(S(t) >= y)
# ---------------------------------------------------------------------------


def _count_range(mean: float, y_scaled: float) -> np.ndarray:
    top = int(mean + y_scaled + 20.0 * math.sqrt(mean + y_scaled) + 100.0)
    return np.arange(1, top + 1)


def compound_exponential_tail(lam_t: float, b: float, y: float) -> float:
    """P(S >= y), S compound Poisson(lam_t) with Exp(b) claims, y > 0."""
    k = _count_range(lam_t, b * y)
    return float(np.sum(stats.poisson.pmf(k, lam_t) * special.gammaincc(k, b * y)))


def compound_gamma_tail(lam_t: float, shape: float, y: float, shift: float = 0.0) -> float:
    """P(S + shift*N >= y), S compound Poisson(lam_t) with unit-scale Gamma claims.

    With ``shift = 0`` this is the tail of S itself. With ``shift = d`` it
    bounds the tail of the right-endpoint discretization on span d from
    above, because every rounded claim lies below its claim plus d.
    """
    k = _count_range(lam_t, y / shape)
    level = y - shift * k
    survival = np.where(level > 0.0, special.gammaincc(shape * k, np.maximum(level, 0.0)), 1.0)
    return float(np.sum(stats.poisson.pmf(k, lam_t) * survival))


def polya_aeppli_tail(lam_t: float, b: float, d: float, m: int) -> float:
    """P(S_d >= m d) for geometric claims on {d, 2d, ...} (discretized Exp(b)).

    Given k claims the lattice sum is negative binomial, and it reaches m
    cells exactly when fewer than k of the first m-1 Bernoulli(1-q) trials
    succeed.
    """
    if m <= 0:
        return 1.0
    p = -math.expm1(-b * d)
    k = _count_range(lam_t, b * m * d)
    return float(np.sum(stats.poisson.pmf(k, lam_t) * stats.binom.cdf(k - 1, m - 1, p)))


def poisson_tail(mean: float, m: int) -> float:
    """P(N >= m) for N ~ Poisson(mean)."""
    return float(stats.poisson.sf(m - 1, mean))


# ---------------------------------------------------------------------------
# Individual (per-policy) portfolio on an integer grid
# ---------------------------------------------------------------------------


def portfolio_tails(units: list[int], probs: list[float], unit: float, xs) -> dict:
    """Exact P(L > x) and matched-zero compound Poisson P(S > x) per x.

    ``units[i]`` is policy i's sum at risk in multiples of ``unit``. The
    individual law convolves two-point laws. The compound law convolves
    Poisson(-log(1-p_i)) counts placed on multiples of units[i], kept only
    up to the largest individual total, so its tail is one minus the
    exactly known low part.
    """
    size = sum(units) + 1
    exact = np.zeros(size)
    exact[0] = 1.0
    compound = exact.copy()
    for k, p in zip(units, probs):
        shifted = np.zeros(size)
        shifted[k:] = exact[: size - k]
        exact = (1.0 - p) * exact + p * shifted
        n = (size - 1) // k
        law = np.zeros(size)
        law[: n * k + 1 : k] = stats.poisson.pmf(np.arange(n + 1), -math.log1p(-p))
        compound = np.convolve(compound, law)[:size]
    out = {}
    for x in xs:
        cut = math.floor(x / unit + 1e-9) + 1  # first grid point strictly above x
        out[x] = (math.fsum(exact[cut:]), 1.0 - math.fsum(compound[:cut]))
    return out


def poisson_approximation_gap(probs: list[float]) -> float:
    """Sum over policies of the total-variation distance between
    Bernoulli(p) and its matched-zero Poisson(-log(1-p)) stand-in,
    p + (1-p) log(1-p), which bounds |P(L > x) - P(S > x)|."""
    return sum(p + (1.0 - p) * math.log1p(-p) for p in probs)
