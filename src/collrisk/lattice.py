"""Exact discrete-distribution engines on a money lattice.

Two engines drive everything exact in this library. The aggregate-loss
recursion (``panjer``) gives compound Poisson masses through one blocked
kernel. The tilted transform (``tilted_fft_tails``) reads the upper tails
of a compound law from its tail generating function with ``numpy.fft``,
built only from positive-term tail sequences; it gives the
compound-geometric law behind the ruin-probability curve
(``compound_geometric``) and single compound Poisson tails
(``compound_poisson_tail``). Both engines return probabilities on the grid
``{0, d, 2d, ...}``.
"""

from __future__ import annotations

import logging
import math
import warnings
from dataclasses import dataclass
from functools import cached_property
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


@dataclass(frozen=True, init=False)
class LatticeDistribution:
    """Probability masses on ``{0, d, 2d, ...}`` and their upper tails.

    ``masses[n]`` is the probability of the point ``n*span``. ``tails[n]``
    is ``P(> n*span)``; the last tail equals the truncation remainder, the
    probability mass beyond the stored support. An engine that computes
    its tails from positive terms passes them in as ``tails``. Tails not
    given are computed from the masses on first read, by the running
    subtraction G_n = G_{n-1} - g_n, whose error is absolute (about 1e-15),
    and kept. ``rescales`` counts the times the recursion that made the
    masses scaled its work down by e^-600 (0 for masses from anywhere else).
    """

    span: float
    masses: np.ndarray
    rescales: int = 0

    def __init__(self, span: float, masses: np.ndarray, rescales: int = 0,
                 tails: np.ndarray | None = None):
        object.__setattr__(self, "span", span)
        object.__setattr__(self, "masses", masses)
        object.__setattr__(self, "rescales", rescales)
        self.__post_init__(tails)

    def __post_init__(self, tails: np.ndarray | None):
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
        if tails is not None:
            tails = np.asarray(tails, dtype=float)
            if tails.shape != masses.shape:
                raise DomainError(f"{tails.size} tails for {masses.size} masses")
            tails.setflags(write=False)
            self.__dict__["tails"] = tails  # given tails stand in for the computed ones

    @cached_property
    def tails(self) -> np.ndarray:
        tails = np.subtract.accumulate(np.concatenate(([1.0], self.masses)))[1:]
        tails.setflags(write=False)
        return tails

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
    """The linear recursion behind ``panjer``.

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
    matrix is written into one buffer per call.

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
    history = coef[:0:-1]
    n = 1
    while n <= n_out:
        b = min(size, n_out + 1 - n)
        while True:
            a_blk = steps[n - 1 : n - 1 + b]
            h = np.correlate(work[n : n + n_coef + b - 1], history, "valid")
            # I - diag(a) T, C-ordered; its transpose is the Fortran-ordered upper
            # matrix, and the coef_0 diagonal is never read (unit diagonal)
            m = np.multiply(a_blk[:, None], neg_coupling[:b, :b], out=buf[: b * b].reshape(b, b))
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


# trial steps delta*(mean claim in cells) of compound_poisson_tail's aliasing bound
_DELTAS = 2.0 ** (np.arange(-6, 3) / 2.0)


def _fft_length(n: int) -> int:
    """Smallest 2^a * 3^b * 5^c >= n, a length numpy.fft transforms fast.

    A length past MAX_CELLS is a GridError.
    """
    best, p5 = 1 << (n - 1).bit_length(), 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            best = min(best, p35 << (-(-n // p35) - 1).bit_length())
            p35 *= 3
        p5 *= 5
    if best > MAX_CELLS:
        raise GridError(f"an FFT of {best} points exceeds the cap of {MAX_CELLS} cells")
    return best


def _log_mgf(f: np.ndarray, rho: float | np.ndarray) -> float | np.ndarray:
    """log sum_j f_j e^(rho*j) over the occupied cells, with no exp overflow.

    ``rho`` is a tilt per cell; an array of tilts gives an array of logs.
    """
    cells = np.flatnonzero(f)
    x = np.log(f[cells]) + np.multiply.outer(rho, cells)
    top = x.max(axis=-1, keepdims=True)
    return (top + np.log(np.exp(x - top).sum(axis=-1, keepdims=True)))[..., 0]


def _tilted(seqs: np.ndarray, rho: float) -> np.ndarray:
    """seq_n * e^(rho*n) along each row, as exp(log seq_n + rho*n) so no factor overflows."""
    out = np.zeros(seqs.shape)
    pos = seqs > 0.0
    out[pos] = np.exp(np.log(seqs[pos]) + rho * np.nonzero(pos)[-1])
    return out


def tilted_fft_tails(
    f: np.ndarray,
    rho: float,
    n_fft: int,
    n_out: int,
    *,
    upcross: float | None = None,
    rate: float | None = None,
) -> tuple[np.ndarray, float]:
    """Upper tails of a compound law, read from its tail generating function.

    ``f`` holds the summands' lattice masses f_0 = 0, f_1, ... (summing to
    one). Exactly one of ``upcross`` and ``rate`` names the count law:
    - ``upcross`` = r, a geometric count P(M = m) = (1-r) r^m, whose tails
      T_n = P(> n) have generating function r*Fbar(w)/(1 - r*F(w));
    - ``rate`` = lambda*t, a Poisson count, with tail generating function
      rate*Fbar(w)*phi1(rate*(1 - F(w))), phi1(z) = -expm1(-z)/z, phi1(0) = 1.
    Here F(w) = sum_j f_j w^j and Fbar(w) = sum_n Fbar_n w^n with
    Fbar_n = sum_{j>n} f_j, a reverse cumulative sum: only positive-term
    tail sequences enter, so no ``1 - sum`` and no 0/0 appears.

    Both are evaluated at the ``n_fft`` points w = e^rho * e^(2 pi i k / n_fft)
    with ``numpy.fft`` and transformed back. That gives the tilted tails
    T_n e^(rho*n) plus the aliased terms sum_{l>=1} T_{n+l*n_fft}
    e^(rho*(n+l*n_fft)); the caller picks ``rho`` and ``n_fft`` to bound
    them. Rounding is absolute on the tilted sequence, so a tail keeps its
    relative accuracy where T_n e^(rho*n) is near the sequence's largest
    values. ``n_fft`` past ``MAX_CELLS``, or too short to hold ``f`` and
    the tails, is a GridError, raised before anything is allocated.

    Returns y_0..y_{n_out} and a log scale s with T_n = y_n * e^(s - rho*n).
    The Poisson transform is scaled by e^-Lambda, Lambda = rate*(F(e^rho) - 1),
    so no exp overflows: there y_n is T_n over its Chernoff bound
    e^(Lambda - rho*n), at most one for rho >= 0.
    """
    if (upcross is None) == (rate is None):
        raise DomainError("pass exactly one of upcross and rate")
    if not max(f.size, n_out + 1) <= n_fft <= MAX_CELLS:
        raise GridError(f"an FFT of {n_fft} points cannot hold {f.size} masses and "
                        f"{n_out + 1} tails within the cap of {MAX_CELLS} cells")
    seqs = np.zeros((2, f.size))
    seqs[0] = f
    seqs[1, :-1] = np.cumsum(f[:0:-1])[::-1]
    head, tail_hat = np.fft.rfft(_tilted(seqs, rho), n_fft)
    if upcross is not None:
        # r*Fbar/(1 - r*F), in place; |r*F| <= r*F(e^rho) < 1 keeps it finite
        head *= -upcross
        head += 1.0
        tail_hat *= upcross
        tail_hat /= head
        log_scale = 0.0
    else:
        # v = -z = rate*(F - 1), and phi1(z) = expm1(v)/v; Re v <= v_0 = Lambda
        v = head
        v -= 1.0
        v *= rate
        lam = float(v[0].real)
        zero = v == 0.0
        v[zero] = 1.0
        if lam < 700.0:  # expm1 cannot overflow, and keeps its digits near v = 0
            phi = np.expm1(v)
            phi /= v
            phi[zero] = 1.0
            phi *= rate * math.exp(-lam)
        else:  # e^-Lambda underflows: take e^(v - Lambda), which stays in range
            phi = np.exp(v - lam)
            phi -= math.exp(-lam)
            phi /= v
            phi[zero] = math.exp(-lam)
            phi *= rate
        tail_hat *= phi
        log_scale = lam
    return np.fft.irfft(tail_hat, n_fft)[: n_out + 1], log_scale


def compound_geometric(
    r: float, ladder: LatticeDistribution, n_out: int
) -> LatticeDistribution:
    """Law of a geometric number of ladder-height summands, with positive-term tails.

    L = X_1 + ... + X_M with P(M = m) = (1-r) r^m and X_i drawn from the
    ladder masses k. Its tails T_n = P(L > n*d), n = 0..n_out, solve the
    renewal T_n = r*(Kbar_n + k_1 T_{n-1} + ... + k_n T_0), and are read by
    ``tilted_fft_tails`` from r*Kbar(w)/(1 - r*K(w)). The returned
    distribution holds those tails and the masses l_0 = 1 - T_0,
    l_n = T_{n-1} - T_n.

    The transform runs at the tilt rho = rho_d - 10/n_out per cell, below
    the lattice root rho_d of r*sum_j k_j e^(rho_d*j) = 1. The tilted tails
    T_n e^(rho*n) then fall by about e^-10 from n = 0 to n_out, so rounding
    costs about 1e-16*e^10 relative, and the aliased terms are at most about
    e^(-(rho_d - rho)*n_fft) of each tail: n_fft is the smallest 5-smooth
    length with that below 1e-13 and at least n_out + the ladder's cells;
    a length past MAX_CELLS is a GridError, raised before any work.
    Measured against the renewal summed cell by cell, the tails agree to
    3.2e-12 relative on the benchmark ladder run to 12,000 cells and
    5.4e-12 run to 25,000.
    """
    if not 0.0 < r < 1.0:
        raise DomainError(f"upcrossing probability must lie in (0, 1), got {r}")
    check_cells(n_out)
    k = _checked_severity(ladder, "ladder-height")
    n_fft = _fft_length(max(math.ceil(math.log(1e13) * n_out / 10.0), n_out + k.size))
    # log(r*K(e^rho)) is increasing and convex in rho and negative at 0, so the
    # first Newton step lands above the root and every later one falls towards it
    cells = np.flatnonzero(k)
    log_k = np.log(k[cells])
    rho_d = 0.0
    for _ in range(200):
        x = log_k + rho_d * cells
        top = float(x.max())
        e = np.exp(x - top)
        total = float(e.sum())
        step = (math.log(r) + top + math.log(total)) / (float(np.dot(e, cells)) / total)
        rho_d -= step
        if abs(step) <= 1e-12 * rho_d:
            break
    rho = rho_d - 10.0 / n_out
    y = tilted_fft_tails(k, rho, n_fft, n_out, upcross=r)[0]
    # T_n = y_n e^(-rho*n), capped at one; a y at or below zero is rounding: T_n = 0
    tails = np.zeros(n_out + 1)
    pos = y > 0.0
    tails[pos] = np.exp(np.minimum(np.log(y[pos]) - rho * np.flatnonzero(pos), 0.0))
    tails[0] = r  # T_0 = r*Kbar_0 = r exactly
    # the exact tails never rise: a rise is rounding, so carry the lower value on
    np.minimum.accumulate(tails, out=tails)
    masses = -np.diff(tails, prepend=1.0)
    return LatticeDistribution(ladder.span, masses, tails=tails)


def compound_poisson_tail(
    rate: float, severity: LatticeDistribution, m: int, tilt: float
) -> float:
    """P(S > m*span) for S compound Poisson(``rate``) with lattice claim masses.

    ``rate`` is the expected claim count over the period (lambda*t). The
    tail comes from ``tilted_fft_tails`` at rho = max(tilt, 0)*span per
    cell; the entropy tilt of the level m*span/t centres the tilted law
    there, where the transform keeps its relative accuracy.

    The transform length n_fft follows a Chernoff aliasing bound. With
    Lambda(a) = rate*(F(e^a) - 1) the lattice law's cumulant, any
    delta > 0 gives P(S > n*span) <= e^(Lambda(rho+delta) - (rho+delta)*n),
    so the aliased terms at m are at most
    e^(Lambda(rho+delta) - Lambda(rho) - delta*(m + n_fft)) / (1 - e^-delta)
    times the Chernoff bound e^(Lambda(rho) - rho*m). n_fft is the smallest
    5-smooth length, at least m + 1 and the severity's cells, that puts
    this below 1e-17 for the best delta of a grid in steps of sqrt(2), from
    1/8 to 2 over the mean claim in cells.
    """
    if not rate > 0.0:
        raise DomainError(f"rate must be positive, got {rate}")
    check_cells(m + 1)
    f = _checked_severity(severity, "severity")
    rho = max(tilt, 0.0) * severity.span
    mean_cells = float(np.dot(np.arange(f.size), f))
    deltas = _DELTAS / mean_cells
    log_mgf = _log_mgf(f, np.concatenate(([rho], rho + deltas)))
    if log_mgf[0] > 600.0:
        raise DomainError(f"the claim transform overflows at the tilt {tilt}")
    lam = rate * np.expm1(np.minimum(log_mgf, 600.0))  # a capped delta only loses
    need = (lam[1:] - lam[0] - np.log(-np.expm1(-deltas)) - math.log(1e-17)) / deltas - m
    n_fft = _fft_length(max(math.ceil(min(float(need.min()), 2.0 * MAX_CELLS)), m + 1, f.size))
    y, log_scale = tilted_fft_tails(f, rho, n_fft, m, rate=rate)
    return math.exp(min(math.log(y[m]) + log_scale - rho * m, 0.0)) if y[m] > 0.0 else 0.0
