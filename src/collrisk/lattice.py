"""Exact discrete-distribution engines on a money lattice.

Two linear recursions drive everything exact in this library: the
aggregate-loss recursion for compound Poisson masses and the
compound-geometric recursion behind the ruin-probability curve. Both run
through one kernel and return :class:`LatticeDistribution`, probabilities
on the grid ``{0, d, 2d, ...}`` with the upper-tail sequence maintained
alongside.
"""

from __future__ import annotations

import logging
import math
import warnings
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy.linalg import get_lapack_funcs

from .errors import DomainError, GridError, UnderflowWarning

logger = logging.getLogger(__name__)

_MASS_TOL = 1e-12
# work values above this trigger a rescale in the scaled recursion
_RESCALE_AT = 1e280
_RESCALE_LOG = 600.0
# cells per block of the recursion: one correlation and one LAPACK triangular solve each
_BLOCK = 64
# LAPACK dtrtrs, looked up once: the routine scipy.linalg.solve_triangular calls
(_TRTRS,) = get_lapack_funcs(("trtrs",), (np.empty((1, 1)),))
MAX_CELLS = 10**7  # most cells past the origin that any lattice array may hold
# most multiply-adds (cells x coefficient cells) one recursion may take: about 50 s of
# kernel time at the 4e9 a second that the blocked kernel reaches on one Xeon core
WORK_BUDGET = 2e11


def _tails_from_masses(masses: np.ndarray) -> np.ndarray:
    """Upper tails G_m = P(> m*d) by the sequential update G_m = G_{m-1} - g_m."""
    return np.subtract.accumulate(np.concatenate(([1.0], masses)))[1:]


def check_span(span: float) -> float:
    """``span`` back, after checking that it is positive and finite."""
    if not 0.0 < span < math.inf:
        raise DomainError(f"span must be positive and finite, got {span}")
    return span


def check_cells(n: int) -> int:
    """``n`` back, after checking 1 <= n <= MAX_CELLS for the cells a recursion is to fill."""
    if n < 1:
        raise DomainError(f"n_out must be >= 1, got {n}")
    if n > MAX_CELLS:
        raise GridError(f"{n} lattice cells exceed the cap of {MAX_CELLS} cells")
    return n


def _check_work(n_out: int, n_coef: int) -> None:
    """Refuse a recursion of ``n_out`` cells over ``n_coef`` coefficient cells above WORK_BUDGET."""
    if n_out * n_coef > WORK_BUDGET:
        raise GridError(
            f"{n_out} cells x {n_coef} coefficient cells = {n_out * n_coef:.3g} multiply-adds "
            f"exceed the recursion budget of {WORK_BUDGET:.3g}"
        )


def first_step(holds: Callable[[int], bool], start: int = 0) -> int | None:
    """Smallest n > start with ``holds(n)``, or None when there is none up to MAX_CELLS.

    ``holds`` must stay true once it is. The search doubles n until
    ``holds(n)`` (the last try is MAX_CELLS itself), then bisects; it asks
    ``holds`` once per n.
    """
    lo, hi = start, min(max(2 * start, start + 1), MAX_CELLS)
    while lo < hi and not holds(hi):
        lo, hi = hi, min(2 * hi, MAX_CELLS)
    if lo >= hi:
        return None
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if holds(mid):
            hi = mid
        else:
            lo = mid
    return hi


def step_at(x: float, span: float) -> int | None:
    """The n with |x - n*span| <= 1e-9*max(1, |x|): x on the lattice up to rounding, else None."""
    q = x / check_span(span)
    if not math.isfinite(q):
        return None
    n = round(q)
    return n if abs(x - n * span) <= 1e-9 * max(1.0, abs(x)) else None


def steps_to(x: float, span: float) -> int:
    """Fewest steps n with n*span >= x; an x/span up to 1e-9 above an integer counts as it."""
    return int(math.ceil(x / span - 1e-9))


def steps_within(x: float | np.ndarray, span: float) -> int | np.ndarray:
    """Most steps n with n*span <= x; an x/span up to 1e-9 below an integer counts as it.

    An array ``x`` gives an integer array of the same counts.
    """
    q = x / span + 1e-9
    return np.floor(q).astype(int) if isinstance(q, np.ndarray) else int(math.floor(q))


@dataclass(frozen=True)
class LatticeDistribution:
    """Probability masses on ``{0, d, 2d, ...}`` with cached upper tails.

    ``masses[n]`` is the probability of the point ``n*span``. ``tails[n]``
    is ``P(> n*span)``; the last tail equals the truncation remainder, the
    probability mass beyond the stored support. ``rescales`` counts the
    times the recursion that made the masses scaled its work down by
    e^-600 (0 for masses from anywhere else).
    """

    span: float
    masses: np.ndarray
    rescales: int = 0
    tails: np.ndarray = field(init=False)

    def __post_init__(self):
        check_span(self.span)
        masses = np.asarray(self.masses, dtype=float)
        if masses.ndim != 1 or masses.size == 0:
            raise DomainError("masses must be a nonempty 1-D array")
        if masses.min() < -1e-15:
            raise DomainError(f"negative mass {masses.min()} on the lattice")
        masses = np.maximum(masses, 0.0)
        total = float(masses.sum())
        if total > 1.0 + _MASS_TOL:
            raise DomainError(f"masses sum to {total} > 1")
        masses.setflags(write=False)
        object.__setattr__(self, "masses", masses)
        tails = _tails_from_masses(masses)
        tails.setflags(write=False)
        object.__setattr__(self, "tails", tails)

    @property
    def size(self) -> int:
        return int(self.masses.size)

    @property
    def remainder(self) -> float:
        """Probability mass beyond the stored support."""
        return float(self.tails[-1])

    def tail(self, m: int) -> float:
        """P(> m*span). For ``m`` beyond the stored support this is the remainder."""
        if m < 0:
            return 1.0
        return float(self.tails[min(m, self.masses.size - 1)])

    def survival_from(self, n: int) -> float:
        """P(>= n*span)."""
        return self.tail(n - 1)

    def mean(self) -> float:
        """Mean of the stored part (the remainder carries no location)."""
        return float(np.dot(np.arange(self.masses.size), self.masses)) * self.span

    def variance(self) -> float:
        mu = self.mean()
        second = float(np.dot(np.arange(self.masses.size) ** 2, self.masses)) * self.span**2
        return second - mu * mu


def _checked_severity(severity: LatticeDistribution, what: str) -> np.ndarray:
    """Validate and renormalize lattice severity masses (no mass at zero)."""
    f = severity.masses
    if f[0] != 0.0:
        raise DomainError(f"{what} must place no mass at zero, got f0={f[0]}")
    total = float(f.sum())
    if not 0.0 < total <= 1.0 + _MASS_TOL:
        raise DomainError(f"{what} masses sum to {total}, outside (0, 1]")
    if abs(total - 1.0) > 1e-15:
        if abs(total - 1.0) > 1e-9:
            logger.warning(
                "%s masses sum to %.17g; renormalizing (check the discretization)",
                what,
                total,
            )
        f = f / total
    return f


def _recurse(
    coef: np.ndarray, steps: np.ndarray, seed: float, log_seed: float
) -> tuple[np.ndarray, int]:
    """The linear recursion behind both engines.

    Returns w_0..w_n for n = len(steps), with w_0 = seed * exp(log_seed) and
    w_n = steps[n-1] * (coef_1 w_{n-1} + ... + coef_m w_{n-m}), m = min(n, coef.size - 1),
    and the number of rescales it made; no steps give the seed alone.

    The cells go in blocks of ``_BLOCK``. Within a block of cells n..n+b-1,
    with a its steps, the terms reaching back before n form one correlation
    h, and the rest couple the block to itself: w = diag(a)(h + T w) with
    T[i, k] = coef_{i-k} strictly lower triangular. That is the unit lower-triangular system
    (I - diag(a) T) w = a*h, solved without pivoting: every entry of w, h, a
    and coef is nonnegative, so forward substitution only adds positive
    terms and each w keeps a relative error of a few ulps. A block of one
    cell is the cell rule w_n = a_n h_n.

    Each block is one direct LAPACK ``dtrtrs`` call on the transpose of the
    C-ordered block matrix (upper, transposed, unit diagonal): the routine,
    flags and memory that ``scipy.linalg.solve_triangular`` passes for it,
    without that wrapper's per-call validation and dispatch. The block
    matrix is written into one buffer per call, or built once when every
    step is the same.

    The work runs on mantissas that share one exponent: whenever a cell
    passes 1e280 the whole prefix is scaled down by e^-600, so a seed far
    below the double range still carries the recursion. A block whose
    maximum passes 1e280 (or is not finite) is redone at half its size, so
    the rescale falls after the same cell as in the cell rule and no block
    overflows.
    """
    n_out, n_coef = steps.size, coef.size - 1
    # w_n sits at work[n_coef + n]; the zeros in front stand for w_{<0}
    work = np.zeros(n_coef + n_out + 1)
    work[n_coef] = seed
    log_scale = log_seed
    rescales = 0
    size = min(_BLOCK, n_out)
    col = np.zeros(size)
    col[: min(size, coef.size)] = coef[:size]
    lag = np.subtract.outer(np.arange(size), np.arange(size))  # i - k
    neg_coupling = np.where(lag >= 0, -col[lag], 0.0)  # -T; above the diagonal is never read
    buf = np.empty(size * size)
    # equal steps (compound_geometric's r) give every block one matrix: build it once
    fixed = steps[0] * neg_coupling if n_out and np.all(steps == steps[0]) else None
    history = coef[:0:-1]
    n = 1
    while n <= n_out:
        b = min(size, n_out + 1 - n)
        while True:
            a_blk = steps[n - 1 : n - 1 + b]
            h = np.correlate(work[n : n + n_coef + b - 1], history, "valid")
            # I - diag(a) T, C-ordered; its transpose is the Fortran-ordered upper
            # matrix, and the coef_0 diagonal is never read (unit diagonal)
            if fixed is None:
                m = np.multiply(a_blk[:, None], neg_coupling[:b, :b], out=buf[: b * b].reshape(b, b))
            else:
                m = fixed[:b, :b]
            w, info = _TRTRS(m.T, a_blk * h, lower=0, trans=1, unitdiag=1)
            if info != 0:
                raise np.linalg.LinAlgError(f"LAPACK dtrtrs failed with info {info}")
            if b == 1 or w.max() <= _RESCALE_AT:
                break
            b //= 2
        n += b
        work[n_coef + n - b : n_coef + n] = w
        if w[-1] > _RESCALE_AT:
            work[: n_coef + n] *= math.exp(-_RESCALE_LOG)
            log_scale += _RESCALE_LOG
            rescales += 1

    work = work[n_coef:]
    if log_scale > -700.0:
        return work * math.exp(log_scale), rescales
    with np.errstate(divide="ignore"):
        scaled = np.where(work > 0.0, np.exp(np.log(np.maximum(work, 1e-320)) + log_scale), 0.0)
    return scaled, rescales


def panjer(rate: float, severity: LatticeDistribution, n_out: int) -> LatticeDistribution:
    """Compound Poisson masses on the lattice by the aggregate recursion.

    ``rate`` is the expected claim count over the period (lambda*t).
    ``severity`` holds the claim-size masses f_1..f_N on the same span with
    f_0 = 0. Returns masses g_0..g_{n_out}, seeded with g_0 = exp(-rate)
    and advanced by n*g_n = rate * sum_x x*f_x*g_{n-x}.

    The recursion runs on the law's maximal span: with g the gcd of the
    occupied severity cells, only cells 0, g, 2g, ... can hold mass, and
    those take the same terms as on the declared span (coefficients
    (g*j)*f_{g*j}, steps rate/(g*n)). The result is on the declared span,
    with exact zeros between multiples of g. A recursion past
    ``WORK_BUDGET`` multiply-adds, counted on the maximal span, is a
    GridError.

    For rate beyond ~700 the seed underflows; the recursion then runs in a
    scaled representation (mantissas sharing one exponent) and an
    UnderflowWarning is issued.
    """
    if not rate > 0.0:
        raise DomainError(f"rate must be positive, got {rate}")
    check_cells(n_out)
    f = _checked_severity(severity, "severity")
    g = 1 if f[1] > 0.0 else int(np.gcd.reduce(np.flatnonzero(f)))
    n = n_out // g
    _check_work(n, (f.size - 1) // g)
    if rate > 700.0:
        warnings.warn(
            f"seed exp(-{rate:g}) underflows; computing in scaled form",
            UnderflowWarning,
            stacklevel=2,
        )
    steps = rate / np.arange(g, g * n + 1, g)
    masses, rescales = _recurse(np.arange(0, f.size, g) * f[::g], steps, 1.0, -rate)
    if g > 1:
        spread = np.zeros(n_out + 1)
        spread[::g] = masses
        masses = spread
    return LatticeDistribution(severity.span, masses, rescales)


def compound_geometric(
    r: float, ladder: LatticeDistribution, n_out: int
) -> LatticeDistribution:
    """Masses of a geometric number of ladder-height summands.

    Solves the renewal equation l = (1-r)*delta + r*(k (*) l) on the
    lattice: l_0 = 1-r and l_n = r*(k_1 l_{n-1} + ... + k_n l_0). A
    recursion past ``WORK_BUDGET`` multiply-adds is a GridError.
    """
    if not 0.0 < r < 1.0:
        raise DomainError(f"upcrossing probability must lie in (0, 1), got {r}")
    check_cells(n_out)
    k = _checked_severity(ladder, "ladder-height")
    _check_work(n_out, k.size - 1)
    masses, rescales = _recurse(k, np.full(n_out, r), 1.0 - r, 0.0)
    return LatticeDistribution(ladder.span, masses, rescales)
