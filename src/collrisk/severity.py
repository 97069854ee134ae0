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
from typing import Callable

import numpy as np
from scipy import special

from .errors import DomainError, GridError, TailError
from .lattice import MAX_CELLS, LatticeDistribution, check_span, first_step

_WEIGHT_TOL = 1e-12
TAIL_TOL = 1e-10  # tail mass a discretization may cut off beyond its last cell


def exponential_draws(rng: np.random.Generator, n: int, rate: float | None = None) -> np.ndarray:
    """n exponential draws -log1p(-U) / rate (rate 1 when None) from ``rng``.

    Each step runs in place on the one array of uniforms, so the draws cost
    8 bytes each and no temporaries, with the same float operations in the
    same order as the expression.
    """
    e = rng.random(n)
    np.negative(e, out=e)
    np.log1p(e, out=e)
    np.negative(e, out=e)
    if rate is not None:
        e /= rate
    return e


class SeverityModel:
    """Common interface of all claim-size variants."""

    xi_bar: float = math.inf  # convergence abscissa: sup of xi with f(xi) finite

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

    def sf(self, x: float) -> float:
        """Survival function P(X > x)."""
        raise NotImplementedError

    def _sf_array(self, x: np.ndarray) -> np.ndarray:
        """``sf`` at every point of ``x``, equal to the scalar ``sf`` bit for bit."""
        return np.array([self.sf(v) for v in x.tolist()])

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
        """n independent claim sizes from ``rng``, claim by claim.

        Drawing a claims and then b claims from one generator gives the
        same values as drawing a + b at once, so Monte Carlo can draw a
        chunk's claims block by block. The raw draws per claim may vary
        (Gamma is a rejection sampler), so Monte Carlo draws claims last.
        """
        raise NotImplementedError


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

    def _sf_array(self, x: np.ndarray) -> np.ndarray:
        # math.exp per point, as sf takes it: numpy's exp may round differently
        e = map(math.exp, (-self.rate * x).tolist())
        return np.where(x > 0, np.fromiter(e, float, x.size), 1.0)

    def tilt(self, a: float) -> "Exponential":
        self._check_tilt(a)
        return Exponential(self.rate - a)

    def as_mixture(self) -> "MixtureOfExponentials":
        return self._mixture

    @cached_property  # built and checked once per law
    def _mixture(self) -> "MixtureOfExponentials":
        return MixtureOfExponentials((1.0,), (self.rate,))

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return exponential_draws(rng, n, self.rate)


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

    @property
    def mean(self) -> float:
        # poch(shape, 1) is shape exactly, so these are moment(1)'s bits without the call
        return self.shape * self.scale

    def sf(self, x: float) -> float:
        return float(special.gammaincc(self.shape, x / self.scale)) if x > 0 else 1.0

    def _sf_array(self, x: np.ndarray) -> np.ndarray:
        return np.where(x > 0, special.gammaincc(self.shape, x / self.scale), 1.0)

    def tilt(self, a: float) -> "Gamma":
        self._check_tilt(a)
        return Gamma(self.shape, self.scale / (1.0 - self.scale * a))

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return rng.standard_gamma(self.shape, n) * self.scale


@dataclass(frozen=True)
class PointMass(SeverityModel):
    """Degenerate claim size: every claim costs exactly ``location``."""

    location: float

    def __post_init__(self):
        if not self.location > 0.0:
            raise DomainError(f"location must be positive, got {self.location}")

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

    @cached_property
    def _arrays(self) -> tuple[np.ndarray, np.ndarray]:
        return np.asarray(self.weights), np.asarray(self.rates)

    @cached_property  # w*b and 2*w*b, associated as the transforms multiply them
    def _products(self) -> tuple[np.ndarray, np.ndarray]:
        w, b = self._arrays
        return w * b, 2.0 * w * b

    # ndarray.sum is np.sum's reduction without its Python wrapper: the same bits
    def mgf(self, xi: float) -> float:
        self._check_tilt(xi)
        b = self._arrays[1]
        return float((self._products[0] / (b - xi)).sum())

    def mgf_m1(self, xi: float) -> float:
        self._check_tilt(xi)
        w, b = self._arrays
        return float((w * xi / (b - xi)).sum())

    def mgf_prime(self, xi: float) -> float:
        self._check_tilt(xi)
        b = self._arrays[1]
        return float((self._products[0] / (b - xi) ** 2).sum())

    def mgf_second(self, xi: float) -> float:
        self._check_tilt(xi)
        b = self._arrays[1]
        return float((self._products[1] / (b - xi) ** 3).sum())

    def moment(self, k: int) -> float:
        w, b = self._arrays
        return float(math.factorial(k) * (w / b**k).sum())

    def root_functions(
        self, lam: float, c: float
    ) -> tuple[Callable[[float], float], Callable[[float], float], Callable[[float], float]]:
        """psi(xi) = lam*sum w/(b - xi) - c, its derivative, and lam*sum w*b/(b - xi)**2,
        the continuation of lam*f'(xi) past the abscissa: the rational functions whose
        roots and values give the exact ruin formula at claim rate ``lam`` and premium
        rate ``c``. They take any xi off the rates, with no tilt check."""
        w, b = self._arrays
        wb = self._products[0]
        if b.size <= 2:
            # one or two terms add to the same float in any order, so numpy scalars give
            # the array sums' bits (and infs) without the cost of array calls
            terms = list(zip(w, wb, b))

            def psi(xi: float) -> float:
                return float(lam * sum([wi / (bi - xi) for wi, _, bi in terms])) - c

            def psi_prime(xi: float) -> float:
                return float(lam * sum([wi / ((bi - xi) * (bi - xi)) for wi, _, bi in terms]))

            def gp_extended(xi: float) -> float:
                return float(lam * sum([wbi / ((bi - xi) * (bi - xi)) for _, wbi, bi in terms]))
        else:

            def psi(xi: float) -> float:
                return float(lam * (w / (b - xi)).sum()) - c

            def psi_prime(xi: float) -> float:
                return float(lam * (w / (b - xi) ** 2).sum())

            def gp_extended(xi: float) -> float:
                return float(lam * (wb / (b - xi) ** 2).sum())

        return psi, psi_prime, gp_extended

    def sf(self, x: float) -> float:
        if x <= 0:
            return 1.0
        w, b = self._arrays
        return float(np.sum(w * np.exp(-b * x)))

    def _sf_array(self, x: np.ndarray) -> np.ndarray:
        w, b = self._arrays
        return np.where(x > 0, np.sum(w * np.exp(-b * x[:, None]), axis=1), 1.0)

    def tilt(self, a: float) -> "MixtureOfExponentials":
        self._check_tilt(a)
        w, b = self._arrays
        new_w = w * b / (b - a)
        new_w /= new_w.sum()
        return MixtureOfExponentials(tuple(new_w), tuple(b - a))

    def as_mixture(self) -> "MixtureOfExponentials":
        return self

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        # two uniforms per claim, the component's then the exponential's
        w, rates = self._arrays
        u = rng.random((n, 2))
        comp = np.searchsorted(np.cumsum(w), u[:, 0], side="right")
        rate = rates[np.minimum(comp, rates.size - 1, out=comp)]
        return -np.log1p(-u[:, 1]) / rate


@dataclass(frozen=True)
class Lattice(SeverityModel):
    """Discrete claim sizes on ``{d, 2d, ...}``; ``masses[n-1]`` sits at ``n*d``.

    Support is strictly positive and finite, so the generating function is
    entire (infinite convergence abscissa). The masses are also held as one
    LatticeDistribution, built once, that ``as_distribution`` returns.
    """

    span: float
    masses: tuple[float, ...]

    def __post_init__(self):
        f = np.asarray(self.masses, dtype=float)  # converted and checked as one array
        object.__setattr__(self, "masses", tuple(f.tolist()))
        if (f < 0.0).any():
            raise DomainError("lattice masses must be nonnegative")
        total = float(f.sum())
        if abs(total - 1.0) > _WEIGHT_TOL:
            raise DomainError(f"lattice masses sum to {total}, not 1")
        # not a dataclass field: fields are the parameters; LatticeDistribution checks the span
        object.__setattr__(self, "_dist", LatticeDistribution(self.span, np.concatenate([[0.0], f])))

    @cached_property  # cells 1, 2, ...: each sum adds the terms of ``masses`` in their order
    def _cells(self) -> tuple[np.ndarray, np.ndarray]:
        return np.arange(1, self._dist.size) * self.span, self._dist.masses[1:]

    def mgf(self, xi: float) -> float:
        x, f = self._cells
        return float(np.sum(f * np.exp(xi * x)))

    def mgf_m1(self, xi: float) -> float:
        x, f = self._cells
        return float(np.sum(f * np.expm1(xi * x)))

    def mgf_prime(self, xi: float) -> float:
        x, f = self._cells
        return float(np.sum(f * x * np.exp(xi * x)))

    def mgf_second(self, xi: float) -> float:
        x, f = self._cells
        return float(np.sum(f * x**2 * np.exp(xi * x)))

    def moment(self, k: int) -> float:
        x, f = self._cells
        return float(np.sum(f * x**k))

    def sf(self, x: float) -> float:
        pts, f = self._cells
        return float(np.sum(f[pts > x]))

    def tilt(self, a: float) -> "Lattice":
        x, f = self._cells
        w = f * np.exp(a * x)
        w /= w.sum()
        return Lattice(self.span, w)

    @property
    def lattice_span(self) -> float:
        return self.span

    def as_distribution(self) -> LatticeDistribution:
        return self._dist

    @cached_property
    def _alias(self) -> tuple[np.ndarray, np.ndarray]:
        return _alias_table(self._cells[1])

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        # each step in place: v becomes the fraction past the cell, then the claim
        prob, alias = self._alias
        v = rng.random(n)
        v *= prob.size
        idx = v.astype(np.int64)
        v -= idx
        past = v >= prob[idx]  # prob[idx] goes before alias[idx] is gathered
        np.copyto(idx, alias[idx], where=past)
        idx += 1
        return np.multiply(idx, self.span, out=v)


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
    prob[large + small] = 1.0
    return prob, alias


def discretize(model: SeverityModel, d: float) -> LatticeDistribution:
    """Right-endpoint discretization of a severity onto span ``d``.

    The mass of the cell ((n-1)d, nd] is assigned to the point nd, which
    keeps all mass strictly positive as the aggregate recursion requires.
    The lattice has the fewest cells n with P(X > n*d) <= TAIL_TOL (ruin
    recursions are exponentially sensitive to truncated tails), and that
    remainder is folded into the last cell. A law that needs more than
    ``lattice.MAX_CELLS`` cells is a TailError.
    """
    check_span(d)
    n = first_step(lambda n: model.sf(n * d) <= TAIL_TOL)
    if n is None:
        raise TailError(f"tail does not reach {TAIL_TOL} within {MAX_CELLS} cells of span {d}")
    edges = np.arange(n + 1) * d
    if model.lattice_span is not None:
        edges += 1e-9 * d  # keep an atom on its lattice point when n*d rounds below it
    surv = model._sf_array(edges)
    cells = surv[:-1] - surv[1:]
    cells[-1] += surv[-1]
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
