"""Claim-size distributions and their transforms.

Each severity variant carries closed forms for the moment generating
function f, its first two derivatives, raw moments, the survival function,
the exponential tilt, and lattice discretizations, plus its Monte Carlo
draw rule, which uses only the law's parameters. All variants have a
strictly positive convergence abscissa, so the whole large-deviation
apparatus downstream applies; heavy-tailed laws without a generating
function are out of scope by design.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy import special

from .errors import DomainError, GridError, TailError
from .lattice import LatticeDistribution

_WEIGHT_TOL = 1e-12
TAIL_TOL = 1e-10  # tail mass a discretization may cut off beyond its last cell
_MAX_CELLS = 10**9  # most cells a discretization may take to reach TAIL_TOL


class SeverityModel:
    """Common interface of all claim-size variants."""

    xi_bar: float  # convergence abscissa: sup of xi with f(xi) finite

    def _check_tilt(self, xi: float) -> None:
        if xi >= self.xi_bar:
            raise DomainError(
                f"tilt argument {xi} is not below the convergence abscissa {self.xi_bar}"
            )

    def mgf(self, xi: float) -> float:
        """f(xi) = E[exp(xi X)]."""
        raise NotImplementedError

    def mgf_m1(self, xi: float) -> float:
        """f(xi) - 1, computed without cancellation near xi = 0."""
        raise NotImplementedError

    def mgf_prime(self, xi: float) -> float:
        """f'(xi) = E[X exp(xi X)]."""
        raise NotImplementedError

    def mgf_second(self, xi: float) -> float:
        """f''(xi) = E[X^2 exp(xi X)]."""
        raise NotImplementedError

    def moment(self, k: int) -> float:
        """Raw moment E[X^k] for integer k >= 1."""
        raise NotImplementedError

    @property
    def mean(self) -> float:
        return self.moment(1)

    def cdf(self, x: float) -> float:
        return 1.0 - self.sf(x)

    def sf(self, x: float) -> float:
        """Survival function P(X > x)."""
        raise NotImplementedError

    def tilt(self, a: float) -> "SeverityModel":
        """The exponentially reweighted law e^{a x} F(dx) / f(a), same family."""
        raise NotImplementedError

    @property
    def lattice_span(self) -> float | None:
        """Span of the lattice the claims live on, or None for a density."""
        return None

    def as_mixture(self) -> "MixtureOfExponentials | None":
        """The law as a mixture of exponentials, or None if it is not one."""
        return None

    def as_distribution(self) -> LatticeDistribution | None:
        """The law's exact masses on its fixed lattice span, or None.

        Only a lattice law fixes its span; a point mass returns None so
        that callers discretize it on the span they choose.
        """
        return None

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """n independent claim sizes, with a fixed draw schedule per claim."""
        raise NotImplementedError

    def coverage_cells(self, d: float) -> int:
        """Smallest n with P(X > n*d) <= TAIL_TOL, for a span ``discretize`` has checked."""
        lo, hi = 0, 1
        while self.sf(hi * d) > TAIL_TOL:
            lo, hi = hi, hi * 2
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if self.sf(mid * d) > TAIL_TOL:
                lo = mid
            else:
                hi = mid
        return hi


@dataclass(frozen=True)
class Exponential(SeverityModel):
    """Exponential claim sizes with the given rate (mean 1/rate)."""

    rate: float

    def __post_init__(self):
        if not self.rate > 0.0:
            raise DomainError(f"rate must be positive, got {self.rate}")

    @property
    def xi_bar(self) -> float:
        return self.rate

    def mgf(self, xi: float) -> float:
        self._check_tilt(xi)
        return self.rate / (self.rate - xi)

    def mgf_m1(self, xi: float) -> float:
        self._check_tilt(xi)
        return xi / (self.rate - xi)

    def mgf_prime(self, xi: float) -> float:
        self._check_tilt(xi)
        return self.rate / (self.rate - xi) ** 2

    def mgf_second(self, xi: float) -> float:
        self._check_tilt(xi)
        return 2.0 * self.rate / (self.rate - xi) ** 3

    def moment(self, k: int) -> float:
        return math.factorial(k) / self.rate**k

    def sf(self, x: float) -> float:
        return math.exp(-self.rate * x) if x > 0 else 1.0

    def tilt(self, a: float) -> "Exponential":
        self._check_tilt(a)
        return Exponential(self.rate - a)

    def as_mixture(self) -> "MixtureOfExponentials":
        return MixtureOfExponentials((1.0,), (self.rate,))

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return -np.log1p(-rng.random(n)) / self.rate

    def coverage_cells(self, d: float) -> int:
        return max(1, math.ceil(-math.log(TAIL_TOL) / (self.rate * d)))


@dataclass(frozen=True)
class Gamma(SeverityModel):
    """Gamma claim sizes, unit scale by default.

    The public model is fixed to unit scale (measure money in scale
    units); a general scale arises internally because the tilt of a Gamma
    law rescales it.
    """

    shape: float
    scale: float = 1.0

    def __post_init__(self):
        if not self.shape > 0.0:
            raise DomainError(f"shape must be positive, got {self.shape}")
        if not self.scale > 0.0:
            raise DomainError(f"scale must be positive, got {self.scale}")

    @property
    def xi_bar(self) -> float:
        return 1.0 / self.scale

    def mgf(self, xi: float) -> float:
        self._check_tilt(xi)
        return (1.0 - self.scale * xi) ** (-self.shape)

    def mgf_m1(self, xi: float) -> float:
        self._check_tilt(xi)
        return math.expm1(-self.shape * math.log1p(-self.scale * xi))

    def mgf_prime(self, xi: float) -> float:
        self._check_tilt(xi)
        return self.shape * self.scale * (1.0 - self.scale * xi) ** (-self.shape - 1.0)

    def mgf_second(self, xi: float) -> float:
        self._check_tilt(xi)
        return (
            self.shape
            * (self.shape + 1.0)
            * self.scale**2
            * (1.0 - self.scale * xi) ** (-self.shape - 2.0)
        )

    def moment(self, k: int) -> float:
        return float(special.poch(self.shape, k)) * self.scale**k

    def sf(self, x: float) -> float:
        return float(special.gammaincc(self.shape, x / self.scale)) if x > 0 else 1.0

    def tilt(self, a: float) -> "Gamma":
        self._check_tilt(a)
        return Gamma(self.shape, self.scale / (1.0 - self.scale * a))

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return special.gammaincinv(self.shape, rng.random(n)) * self.scale

    def coverage_cells(self, d: float) -> int:
        x_star = float(special.gammainccinv(self.shape, TAIL_TOL)) * self.scale
        return max(1, math.ceil(x_star / d))


@dataclass(frozen=True)
class PointMass(SeverityModel):
    """Degenerate claim size: every claim costs exactly ``location``."""

    location: float

    def __post_init__(self):
        if not self.location > 0.0:
            raise DomainError(f"location must be positive, got {self.location}")

    @property
    def xi_bar(self) -> float:
        return math.inf

    def mgf(self, xi: float) -> float:
        return math.exp(xi * self.location)

    def mgf_m1(self, xi: float) -> float:
        return math.expm1(xi * self.location)

    def mgf_prime(self, xi: float) -> float:
        return self.location * math.exp(xi * self.location)

    def mgf_second(self, xi: float) -> float:
        return self.location**2 * math.exp(xi * self.location)

    def moment(self, k: int) -> float:
        return self.location**k

    def sf(self, x: float) -> float:
        return 1.0 if x < self.location else 0.0

    def tilt(self, a: float) -> "PointMass":
        return self

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return np.full(n, self.location)

    @property
    def lattice_span(self) -> float:
        return self.location


@dataclass(frozen=True)
class MixtureOfExponentials(SeverityModel):
    """Weighted mixture of exponential densities with distinct rates.

    Rates must be strictly increasing; the convergence abscissa is the
    smallest rate.
    """

    weights: tuple[float, ...]
    rates: tuple[float, ...]

    def __post_init__(self):
        w = tuple(float(v) for v in self.weights)
        b = tuple(float(v) for v in self.rates)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "rates", b)
        if len(w) != len(b) or not w:
            raise DomainError("weights and rates must be nonempty and of equal length")
        if any(v <= 0.0 for v in w):
            raise DomainError(f"weights must be positive, got {w}")
        if abs(sum(w) - 1.0) > _WEIGHT_TOL:
            raise DomainError(f"weights sum to {sum(w)}, not 1")
        if any(v <= 0.0 for v in b):
            raise DomainError(f"rates must be positive, got {b}")
        if any(b[i] >= b[i + 1] for i in range(len(b) - 1)):
            raise DomainError(f"rates must be strictly increasing, got {b}")

    @property
    def xi_bar(self) -> float:
        return self.rates[0]

    def _arrays(self) -> tuple[np.ndarray, np.ndarray]:
        return np.asarray(self.weights), np.asarray(self.rates)

    def mgf(self, xi: float) -> float:
        self._check_tilt(xi)
        w, b = self._arrays()
        return float(np.sum(w * b / (b - xi)))

    def mgf_m1(self, xi: float) -> float:
        self._check_tilt(xi)
        w, b = self._arrays()
        return float(np.sum(w * xi / (b - xi)))

    def mgf_prime(self, xi: float) -> float:
        self._check_tilt(xi)
        w, b = self._arrays()
        return float(np.sum(w * b / (b - xi) ** 2))

    def mgf_second(self, xi: float) -> float:
        self._check_tilt(xi)
        w, b = self._arrays()
        return float(np.sum(2.0 * w * b / (b - xi) ** 3))

    def moment(self, k: int) -> float:
        w, b = self._arrays()
        return float(math.factorial(k) * np.sum(w / b**k))

    def sf(self, x: float) -> float:
        if x <= 0:
            return 1.0
        w, b = self._arrays()
        return float(np.sum(w * np.exp(-b * x)))

    def tilt(self, a: float) -> "MixtureOfExponentials":
        self._check_tilt(a)
        w, b = self._arrays()
        new_w = w * b / (b - a)
        new_w /= new_w.sum()
        return MixtureOfExponentials(tuple(new_w), tuple(b - a))

    def as_mixture(self) -> "MixtureOfExponentials":
        return self

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        w, rates = self._arrays()
        comp = np.minimum(
            np.searchsorted(np.cumsum(w), rng.random(n), side="right"), rates.size - 1
        )
        return -np.log1p(-rng.random(n)) / rates[comp]


@dataclass(frozen=True)
class Lattice(SeverityModel):
    """Discrete claim sizes on ``{d, 2d, ...}``; ``masses[n-1]`` sits at ``n*d``.

    Support is strictly positive and finite, so the generating function is
    entire (infinite convergence abscissa).
    """

    span: float
    masses: tuple[float, ...]

    def __post_init__(self):
        if not self.span > 0.0:
            raise DomainError(f"span must be positive, got {self.span}")
        f = tuple(float(v) for v in self.masses)
        object.__setattr__(self, "masses", f)
        if not f:
            raise DomainError("lattice severity needs at least one mass")
        if any(v < 0.0 for v in f):
            raise DomainError("lattice masses must be nonnegative")
        if abs(sum(f) - 1.0) > _WEIGHT_TOL:
            raise DomainError(f"lattice masses sum to {sum(f)}, not 1")

    @property
    def xi_bar(self) -> float:
        return math.inf

    def _points(self) -> tuple[np.ndarray, np.ndarray]:
        f = np.asarray(self.masses)
        x = np.arange(1, f.size + 1) * self.span
        return x, f

    def mgf(self, xi: float) -> float:
        x, f = self._points()
        return float(np.sum(f * np.exp(xi * x)))

    def mgf_m1(self, xi: float) -> float:
        x, f = self._points()
        return float(np.sum(f * np.expm1(xi * x)))

    def mgf_prime(self, xi: float) -> float:
        x, f = self._points()
        return float(np.sum(f * x * np.exp(xi * x)))

    def mgf_second(self, xi: float) -> float:
        x, f = self._points()
        return float(np.sum(f * x**2 * np.exp(xi * x)))

    def moment(self, k: int) -> float:
        x, f = self._points()
        return float(np.sum(f * x**k))

    def sf(self, x: float) -> float:
        pts, f = self._points()
        return float(np.sum(f[pts > x]))

    def tilt(self, a: float) -> "Lattice":
        x, f = self._points()
        w = f * np.exp(a * x)
        w /= w.sum()
        return Lattice(self.span, tuple(w))

    @property
    def lattice_span(self) -> float:
        return self.span

    def coverage_cells(self, d: float) -> int:
        n = max(1, math.ceil(len(self.masses) * self.span / d - 1e-12))
        return n if self.sf(n * d) <= TAIL_TOL else n + 1  # n*d rounded below the top

    def as_distribution(self) -> LatticeDistribution:
        return LatticeDistribution(self.span, np.concatenate([[0.0], self.masses]))

    @cached_property
    def _alias(self) -> tuple[np.ndarray, np.ndarray]:
        return _alias_table(np.asarray(self.masses))

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        prob, alias = self._alias
        v = rng.random(n) * prob.size
        idx = v.astype(np.int64)
        frac = v - idx
        chosen = np.where(frac < prob[idx], idx, alias[idx])
        return (chosen + 1) * self.span


def _alias_table(p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Walker alias table (Walker, ACM TOMS 3, 1977); construction order is deterministic."""
    k = p.size
    prob = np.zeros(k)
    alias = np.zeros(k, dtype=np.int64)
    scaled = list(p * k)
    small = [i for i in range(k) if scaled[i] < 1.0]
    large = [i for i in range(k) if scaled[i] >= 1.0]
    while small and large:
        s, l = small.pop(), large.pop()
        prob[s] = scaled[s]
        alias[s] = l
        scaled[l] -= 1.0 - scaled[s]
        (small if scaled[l] < 1.0 else large).append(l)
    for i in large:
        prob[i] = 1.0
    for i in small:
        prob[i] = 1.0
    return prob, alias


def discretize(
    model: SeverityModel,
    d: float,
    n_max: int | None = None,
    force: bool = False,
) -> LatticeDistribution:
    """Right-endpoint discretization of a severity onto span ``d``.

    The mass of the cell ((n-1)d, nd] is assigned to the point nd, which
    keeps all mass strictly positive as the aggregate recursion requires.
    ``n_max`` defaults to the fewest cells that leave at most TAIL_TOL
    beyond them, and a law that needs more than 1e9 cells is a TailError.
    Residual mass beyond ``n_max`` cells is folded into the last cell; if
    it exceeds TAIL_TOL and ``force`` is not set, a TailError is raised
    instead (ruin recursions are exponentially sensitive to truncated
    tails).
    """
    if not d > 0.0:
        raise DomainError(f"span must be positive, got {d}")
    if not math.isfinite(d):
        raise DomainError(f"span must be finite, got {d}")
    if n_max is None:
        if model.sf(_MAX_CELLS * d) > TAIL_TOL:
            raise TailError(f"tail does not reach {TAIL_TOL} within 1e9 cells of span {d}")
        n_max = model.coverage_cells(d)
    if n_max < 1:
        raise DomainError(f"n_max must be >= 1, got {n_max}")
    edges = np.arange(n_max + 1) * d
    if model.lattice_span is not None:
        edges += 1e-9 * d  # keep an atom on its lattice point when n*d rounds below it
    surv = np.array([model.sf(e) for e in edges])
    cells = surv[:-1] - surv[1:]
    residual = surv[-1]
    if residual > TAIL_TOL and not force:
        raise TailError(
            f"tail mass {residual:.3e} beyond {n_max} cells of span {d} "
            f"exceeds tolerance {TAIL_TOL:.1e}"
        )
    cells[-1] += residual
    return LatticeDistribution(d, np.concatenate([[0.0], cells]))


def lattice_masses(model: SeverityModel, d: float | None = None) -> LatticeDistribution:
    """The law's masses on a lattice: its exact masses, else ``discretize`` on span ``d``.

    Exact masses fix the span, so any other ``d`` is a GridError. For every
    other law ``d`` defaults to the law's own lattice span.
    """
    exact = model.as_distribution()
    if exact is not None:
        if d is not None and abs(d - exact.span) > 1e-12 * exact.span:
            raise GridError(f"severity lattice has span {exact.span}, requested {d}")
        return exact
    span = model.lattice_span if d is None else d
    if span is None:
        raise GridError("continuous severity: a discretization span is required")
    return discretize(model, span)


def discretize_ladder(model: SeverityModel, d: float) -> LatticeDistribution:
    """Discretized ladder-height density k(u) = (1 - F(u)) / mu.

    Built from the discretized severity {f_m}: with S_n = sum_{m>=n} f_m
    and the discrete mean mu_d = d * sum_n n f_n, the ladder masses are
    k_n = (d / mu_d) S_n. They sum to one exactly and sit on strictly
    positive lattice points.
    """
    f = discretize(model, d).masses
    upper = np.cumsum(f[::-1])[::-1]  # upper[n] = sum_{m >= n} f_m, n >= 1 relevant
    total = upper[1:].sum()  # equals sum_m m f_m = mu_d / d
    k = upper[1:] / total
    return LatticeDistribution(d, np.concatenate([[0.0], k]))
