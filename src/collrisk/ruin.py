"""Ruin-probability analytics for the net loss process U(t) = S(t) - c*t.

The positive-loading theory runs through the ladder decomposition: ruin
probability equals the tail of a compound-geometric sum of ladder heights,
evaluated exactly on a lattice, asymptotically through the adjustment
coefficient, or in closed form for mixtures of exponentials. Finite-time
questions are answered by the ballot-type conditioning (non-ruin at zero,
Seal's formula, hitting times below) and by entropy-based exponential
bounds with the ruin-time central limit theorem at the end.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy import special

from .cumulant import CompoundModel, entropy
from .errors import (
    DomainError,
    GridError,
    LoadingError,
    NoRootError,
    RootBracketError,
)
from .lattice import LatticeDistribution, _checked_severity, compound_geometric, panjer
from .lattice import check_cells, check_span, step_at, steps_to, steps_within
from .rootfind import expand_lower, expand_upper, safeguarded_newton
from .severity import SeverityModel, discretize_ladder, lattice_masses
from .severity import discretize  # noqa: F401  (bench/tracer.py patches this name here)

__all__ = [
    "RiskSystem",
    "LadderLaw",
    "RuinCurve",
    "LundbergSolution",
    "CramerLundberg",
    "LundbergSeries",
    "MixtureRuin",
    "SealDecomposition",
    "HittingBelow",
    "FiniteTimeBound",
    "RuinTimeNormal",
    "CompositeSplit",
    "ladder",
    "ruin_panjer",
    "lundberg",
    "cramer_lundberg_approx",
    "lundberg_series",
    "mixture_exact",
    "non_ruin_zero",
    "seal",
    "hitting_below",
    "finite_time_bound",
    "ruin_time_clt",
    "composite_split",
]


@dataclass(frozen=True)
class RiskSystem:
    """A compound Poisson loss model with premium rate and initial capital."""

    model: CompoundModel
    premium_rate: float
    initial_capital: float = 0.0

    def __post_init__(self):
        if not self.premium_rate > 0.0:
            raise DomainError(f"premium rate must be positive, got {self.premium_rate}")
        if self.initial_capital < 0.0:
            raise DomainError(
                f"initial capital must be nonnegative, got {self.initial_capital}"
            )

    @property
    def loading(self) -> float:
        """Safety loading c - lambda*mu; its sign gates which formulas apply."""
        return self.premium_rate - self.model.mean_rate

    def _require_positive_loading(self, what: str) -> None:
        if self.loading <= 0.0:
            raise LoadingError(
                f"{what} requires premium rate above the mean loss rate "
                f"({self.premium_rate} <= {self.model.mean_rate}); ruin is certain",
                ruin_probability=1.0,
            )

    def _require_nonzero_loading(self) -> None:
        if abs(self.loading) <= 1e-14 * max(1.0, self.premium_rate):
            raise LoadingError(
                "premium rate equals the mean loss rate: the root equation is tangent at zero",
                ruin_probability=1.0,
            )


# ---------------------------------------------------------------------------
# Ladder decomposition and the exact recursion for r(u)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LadderLaw:
    """Upcrossing probability r = lambda*mu/c and the ladder-height law.

    Each new record of U(t) occurs with probability r and its height has
    density (1 - F(u)) / mu.
    """

    upcross_probability: float
    severity: SeverityModel


def ladder(system: RiskSystem) -> LadderLaw:
    system._require_positive_loading("the ladder decomposition")
    return LadderLaw(system.model.mean_rate / system.premium_rate, system.model.severity)


@dataclass(frozen=True)
class RuinCurve:
    """Ruin probabilities on a money lattice.

    ``dist`` is the compound-geometric law of the all-time maximum of the
    discretized net loss; ``value(u)`` reads off P(max > u) from its
    positive-term tails. At u = 0 this excludes the atom at zero and
    equals r exactly.
    """

    dist: LatticeDistribution

    def value(self, u: float) -> float:
        if u < 0.0:
            raise DomainError(f"capital must be nonnegative, got {u}")
        idx = steps_within(u, self.dist.span)
        if idx >= self.dist.size:
            raise DomainError(f"capital {u} beyond the computed grid")
        return float(self.dist.tails[idx])

    @property
    def grid(self) -> np.ndarray:
        return np.arange(self.dist.size) * self.dist.span

    @property
    def values(self) -> np.ndarray:
        return self.dist.tails


def ruin_panjer(system: RiskSystem, d: float, u_max: float) -> RuinCurve:
    """r(u) for u in [0, u_max] from the compound-geometric law on a lattice.

    The ladder-height density is discretized on span ``d`` and fed to
    ``compound_geometric`` with r = lambda*mu/c. The curve is nonincreasing,
    starts at r, and carries the right-endpoint discretization's upward
    bias (conservative for solvency purposes). ``u_max = 0`` gives the
    curve at u = 0 alone, r(0) = r.
    """
    if not u_max >= 0.0:
        raise DomainError(f"capital must be nonnegative, got {u_max}")
    law = ladder(system)
    k = discretize_ladder(law.severity, check_span(d))
    n_out = steps_to(u_max, d) + 1
    return RuinCurve(compound_geometric(law.upcross_probability, k, n_out))


# ---------------------------------------------------------------------------
# Adjustment coefficient and asymptotics
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LundbergSolution:
    """Nonzero root R of g(a) = c*a with the constants it determines.

    R is positive exactly when the loading is positive. ``constant`` is
    the asymptotic ratio C = (c - g'(0)) / (g'(R) - c), ``time_scale``
    the characteristic ruin-time scale 1/|g'(R) - c|, and ``sigma_sq``
    the tilted variance rate g''(R).
    """

    R: float
    constant: float
    time_scale: float
    sigma_sq: float
    positive_loading: bool


def lundberg(system: RiskSystem) -> LundbergSolution:
    """The adjustment coefficient, solved once per model and premium rate.

    The severity gives R in closed form where it has one (exponential
    claims: R = b - lambda/c, ``SeverityModel.adjustment_root``); otherwise
    safeguarded Newton finds it inside an expanding bracket. Either way R
    must satisfy g(R) = c*R to 1e-12 relative.
    """
    return system.model._root(("lundberg", system.premium_rate), lambda: _lundberg(system))


def _lundberg(system: RiskSystem) -> LundbergSolution:
    model, c = system.model, system.premium_rate
    mean = model.mean_rate
    system._require_nonzero_loading()
    positive = system.loading > 0.0
    root = model.severity.adjustment_root(model.rate, c)
    if root is None or not math.isfinite(root):  # no closed form, or lambda/c overflows
        root = _solve_adjustment(model, c, positive)
    residual = model.g(root) - c * root
    if abs(residual) > 1e-12 * max(1.0, abs(c * root)):
        raise NoRootError(f"root residual {residual} out of tolerance")
    gp = model.g_prime(root)
    constant = (c - mean) / (gp - c)
    time_scale = 1.0 / (gp - c) if positive else 1.0 / (c - gp)
    return LundbergSolution(root, constant, time_scale, model.g_second(root), positive)


def _solve_adjustment(model: CompoundModel, c: float, positive: bool) -> float:
    """The nonzero root of g(a)/a = c by safeguarded Newton, on a bracket grown from 0."""
    mean = model.mean_rate
    nu = model.rate * model.severity.moment(2)
    mu3 = model.rate * model.severity.moment(3)

    def phi(a: float) -> float:
        if abs(a) < 1e-12:
            return mean - c + 0.5 * nu * a
        return model.g(a) / a - c

    def phi_prime(a: float) -> float:
        if abs(a) < 1e-5:
            return 0.5 * nu + mu3 * a / 3.0
        return (model.g_prime(a) - model.g(a) / a) / a

    if positive:
        # phi(0) < 0 and phi -> +inf toward the abscissa for every severity kind
        lo, hi = 0.0, expand_upper(phi, 0.0, model.xi_bar)
        if math.isnan(hi):
            raise NoRootError(
                f"g(a)/a stays below the premium rate {c} on (0, {model.xi_bar})"
            )
    else:
        lo, hi = expand_lower(phi, 0.0), 0.0
        if math.isnan(lo):
            raise NoRootError("no negative root found")
    return safeguarded_newton(phi, phi_prime, lo, hi, rtol=1e-15)


@dataclass(frozen=True)
class CramerLundberg:
    """Asymptotic ruin estimate C*exp(-R*u) with the bound exp(-R*u)."""

    value: float
    bound: float
    solution: LundbergSolution


def cramer_lundberg_approx(system: RiskSystem, u: float) -> CramerLundberg:
    system._require_positive_loading("the asymptotic ruin approximation")
    sol = lundberg(system)
    bound = math.exp(-sol.R * u)
    value = sol.constant * bound
    if sol.constant <= 1.0:
        assert value <= bound * (1.0 + 1e-15)
    return CramerLundberg(value, bound, sol)


@dataclass(frozen=True)
class LundbergSeries:
    """Small-loading expansion of the adjustment coefficient and constant."""

    R1: float
    R2: float
    C1: float


def lundberg_series(mu1: float, mu2: float, mu3: float, rho: float) -> LundbergSeries:
    """Moment expansion for loading rho = 1/r - 1 close to zero.

    First order R1 = (2 mu1 / mu2) rho, second order subtracts
    (4/3)(mu3 mu1^2 / mu2^3) rho^2, and the constant to first order is
    C1 = (mu2/2 + mu3 R1 / 6) / (mu2/2 + mu3 R1 / 3).
    """
    if min(mu1, mu2, mu3) <= 0.0:
        raise DomainError("moments must be positive")
    if not rho > 0.0:
        raise DomainError(f"relative loading must be positive, got {rho}")
    r1 = 2.0 * mu1 / mu2 * rho
    r2 = r1 - (4.0 / 3.0) * (mu3 * mu1**2 / mu2**3) * rho**2
    c1 = (mu2 / 2.0 + mu3 * r1 / 6.0) / (mu2 / 2.0 + mu3 * r1 / 3.0)
    return LundbergSeries(r1, r2, c1)


@dataclass(frozen=True)
class MixtureRuin:
    """Exact ruin probability for a mixture-of-exponentials severity.

    r(u) = sum_i C_i exp(-R_i u) where the decay rates interlace the
    mixture rates: 0 < R_1 < b_1 < R_2 < ... < R_n < b_n.
    """

    decay_rates: tuple[float, ...]
    constants: tuple[float, ...]
    value: float
    dominant: float


def mixture_exact(system: RiskSystem, u: float) -> MixtureRuin:
    """r(u) from the decay rates and constants, which are solved once per
    model and premium rate. One exponential component has the one decay
    rate b - lambda/c in closed form; two or more are found by safeguarded
    Newton between the interlacing poles."""
    system._require_positive_loading("the exact mixture formula")
    if u < 0.0:
        raise DomainError(f"capital must be nonnegative, got {u}")
    roots, constants = system.model._root(
        ("mixture", system.premium_rate), lambda: _mixture_roots(system)
    )
    terms = [ci * math.exp(-ri * u) for ri, ci in zip(roots, constants)]
    return MixtureRuin(roots, constants, sum(terms), terms[0])


def _mixture_roots(system: RiskSystem) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """The interlaced decay rates R_i and their constants C_i."""
    mix = system.model.severity.as_mixture()
    if mix is None:
        raise DomainError("exact evaluation needs an exponential or mixture severity")
    lam, c = system.model.rate, system.premium_rate
    r = system.model.mean_rate / c
    if len(mix.rates) == 1:
        # psi = lam*w/(b - xi) - c; at w = 1 the root is Exponential's R bit for bit
        (w1,), (b1,) = mix.weights, mix.rates
        root = b1 - lam * w1 / c
        gp = lam * (w1 * b1 / ((b1 - root) * (b1 - root)))
        return (root,), (c * (1.0 - r) / (gp - c),)
    b = np.asarray(mix.rates)
    psi, psi_prime, gp_extended = mix.root_functions(lam, c)

    roots: list[float] = []
    edges = np.concatenate([[0.0], b])
    for i in range(b.size):
        left, right = float(edges[i]), float(edges[i + 1])
        width = right - left
        lo = left if i == 0 else _approach(psi, left, width, sign=-1)
        hi = _approach(psi, right, width, sign=+1)
        roots.append(safeguarded_newton(psi, psi_prime, lo, hi, rtol=1e-15))

    constants = [c * (1.0 - r) / (gp_extended(root) - c) for root in roots]
    return tuple(roots), tuple(constants)


def _approach(f, pole: float, width: float, sign: int) -> float:
    """Point near ``pole`` (from the left when sign > 0) where f has the
    sign expected between interlacing poles."""
    eps = 0.25 * width
    for _ in range(200):
        x = pole - eps if sign > 0 else pole + eps
        if x != pole and sign * f(x) > 0.0:
            return x
        eps *= 0.25
    raise RootBracketError(
        f"could not bracket a root near rate {pole}; rates may be nearly coincident"
    )


# ---------------------------------------------------------------------------
# Finite-time formulas on the lattice
# ---------------------------------------------------------------------------


def non_ruin_zero(system: RiskSystem, t: float, aggregate: LatticeDistribution) -> float:
    """Probability of no ruin by time t with zero initial capital.

    Evaluates sum over lattice points x = n*d <= c*t of (1 - x/(c*t))
    times the aggregate mass, the ballot-type conditioning applied to the
    exact aggregate distribution at horizon t.
    """
    if not t > 0.0:
        raise DomainError(f"horizon must be positive, got {t}")
    ct = system.premium_rate * t
    d = aggregate.span
    if ct / d < 10.0:
        raise GridError(f"span {d} does not resolve the premium income {ct} (need >= 10 cells)")
    if (aggregate.size - 1) * d < ct - 1e-9 * ct:
        raise GridError(
            f"aggregate support {(aggregate.size - 1) * d} does not cover c*t = {ct}"
        )
    n = np.arange(min(steps_within(ct, d), aggregate.size - 1) + 1)
    return float(np.dot(np.maximum(1.0 - n * d / ct, 0.0), aggregate.masses[n]))


def _poisson_sf(k: int, mu: float) -> float:
    """P(N(mu) > k), or its bound mu^(k+1)/(k+1)! where pdtrc underflows to 0.

    pdtrc returns 0 for a subnormal mu although P(N > 0) is about mu.
    """
    tail = float(special.pdtrc(k, mu))
    return tail or math.exp(special.xlogy(k + 1, mu) - special.gammaln(k + 2))


def _crossing_sum(severity: LatticeDistribution, levels: np.ndarray, means: np.ndarray,
                  weights: np.ndarray, survival: tuple | None = None,
                  last: int | None = None) -> tuple[float, float, int]:
    """sum_m w_m g_{l_m}(mu_m) S_m in one pass over the convolution powers f^{*k}.

    As f_0 = 0, the aggregate mass at cell n for mean claim count mu is the
    Poisson mixture g_n(mu) = sum_{k<=n} Pois(k; mu) f^{*k}_n. For k = 0, 1, ...
    the pass holds f^{*k} cut to cells 0..top and adds, for all levels at once,
    Pois(k; mu_m) f^{*k}_{l_m} to the crossing mass M_m and, given
    ``survival = (nu, n, a)``, Pois(k; nu_m) sum_{i<=n_m} (1 - a_m i) f^{*k}_i to
    S_m (else S = 1). Levels are distinct; w and each 1 - a_m i lie in [0, 1].

    All terms are nonnegative. With mu* the largest mean and K + 1 >= mu*,
    the part left out after power K is at most
    B_K = P(N(mu*) > K) (1 + sum_m w_m M_m^K): Pois(k; mu) rises in mu below k,
    so with sum_m f^{*k}_{l_m} <= 1 and w, S <= 1 the crossing terms k > K sum
    to at most P(N(mu*) > K); S_m misses at most P(N(nu_m) > K) <= P(N(mu*) > K),
    times w_m M_m^K. With i_0 the first cell of f, f^{*k} = 0 on cells 0..top
    for k > top/i_0, so B = 0 from K = top // i_0 on; below mu* - 1, B = inf.
    The pass stops at the first K with B_K <= 2^-53 times the running sum or,
    if ``last`` is given, at K = min(last, top // i_0). Returns (sum, B_K, K).
    P(N(mu*) > K) comes from ``_poisson_sf``, which does not underflow to 0.
    """
    nu, n, a = survival if survival is not None else (means, levels, 0.0)
    top = int(max(levels.max(initial=0), n.max(initial=0)))
    mu_star = float(max(means.max(initial=0.0), nu.max(initial=0.0)))
    f = _checked_severity(severity, "severity")[: top + 1]
    exact_at = top // np.flatnonzero(f)[0] if f.any() else 0
    cells = np.arange(check_cells(top + 1))
    fk = (cells == 0).astype(float)
    mass = np.zeros(levels.size)
    surv = 1.0 if survival is None else np.zeros(levels.size)
    for k in range(exact_at + 1):
        log_k = special.gammaln(k + 1)  # Pois(k; mu) in log form: no NaN at mu = 0
        mass += np.exp(special.xlogy(k, means) - means - log_k) * fk[levels]
        if survival is not None:
            below = np.cumsum(fk)[n] - a * np.cumsum(cells * fk)[n]
            surv += np.exp(special.xlogy(k, nu) - nu - log_k) * below
        value = float(np.sum(weights * mass * surv))
        tail = 0.0 if k == exact_at else _poisson_sf(k, mu_star) if k + 1 >= mu_star else math.inf
        bound = tail * (1.0 + float(np.dot(weights, mass)))
        if (bound <= 2.0**-53 * value) if last is None else k == last:
            break
        fk = np.convolve(fk, f)[: top + 1]
    return value, bound, k


@dataclass(frozen=True)
class SealDecomposition:
    """Finite-time ruin probability split into its two exact parts.

    ``beyond`` is the probability that the net loss at the horizon already
    exceeds the capital; ``crossings`` collects the last-downcrossing sum
    over lattice levels. ``aggregate`` holds the aggregate masses at the
    horizon up to the first cell at or above u + c*t, from which ``beyond``
    is read.
    """

    value: float
    beyond: float
    crossings: float
    span: float
    aggregate: LatticeDistribution = field(repr=False, compare=False)


def seal(system: RiskSystem, t: float, d: float | None = None) -> SealDecomposition:
    """Ruin probability by time t for initial capital u (from the system).

    Uses the exact lattice form of the two-term decomposition: the tail of
    the aggregate at the horizon plus, for every lattice level m*d crossed
    by the premium line, the aggregate mass at the crossing time weighted
    by the non-ruin probability over the remaining time. For lattice
    severities the evaluation is exact; continuous severities are
    discretized first on span ``d``. Masses and weights are Poisson mixtures
    of convolution powers f^{*k}, summed for all levels in one pass over k
    that stops once a Poisson tail P(N(mu*) > k), mu* <= lambda*t, puts the
    rest below 2^-53 of the sum (``_crossing_sum``; De Vylder & Goovaerts,
    IME 7, 1988).
    """
    if not t > 0.0:
        raise DomainError(f"horizon must be positive, got {t}")
    u = system.initial_capital
    c = system.premium_rate
    lam = system.model.rate
    sev_dist = lattice_masses(system.model.severity, d)
    span = sev_dist.span
    ct = c * t
    if ct / span < 10.0:
        raise GridError(
            f"span {span} does not resolve the premium income {ct} (need >= 10 cells)"
        )
    j = step_at(u, span)
    if j is None:
        raise GridError(f"initial capital {u} is not a multiple of the span {span}")

    top = steps_within(u + ct, span)
    aggregate = panjer(lam * t, sev_dist, steps_to(u + ct, span))
    beyond = aggregate.tail(top)

    m = np.arange(j + 1, top + 1)
    s = (m * span - u) / c  # crossing times; the ballot weights use c*(t - s)
    remaining = np.maximum(t - s, 0.0)
    n = steps_within(c * remaining, span)
    a = np.divide(span, c * remaining, out=np.zeros(m.size), where=remaining > 0.0)
    n -= n * a >= 1.0  # a last point on the premium line has weight 0
    crossings = _crossing_sum(sev_dist, m, lam * s, np.ones(m.size), (lam * remaining, n, a))[0]
    value = beyond + crossings
    if value > 1.0 + 1e-9:
        raise DomainError(f"finite-time ruin probability {value} exceeds one")
    return SealDecomposition(min(max(value, 0.0), 1.0), beyond, crossings, span, aggregate)


@dataclass(frozen=True)
class HittingBelow:
    """Probability of the net loss reaching the level -u.

    ``value`` is the infinite-horizon probability (one under positive
    loading, exp(R*u) with the negative root otherwise); ``value_by_t``
    is the finite-horizon value when a horizon was requested.
    """

    value: float
    value_by_t: float | None
    root: float | None


def hitting_below(
    system: RiskSystem,
    u: float,
    t: float | None = None,
    d: float | None = None,
) -> HittingBelow:
    """Distribution of the first passage of U(t) to the level -u.

    The passage happens while drifting between jumps, so U equals -u
    exactly at that time. With positive loading the passage is certain;
    with negative loading the exact probability is exp(R*u) with the
    negative adjustment coefficient. A finite horizon adds to the no-claim
    path the crossing-time sum over lattice levels m*d: the passage at
    s_m = (m*d + u)/c has probability u/(c*s_m) times the aggregate mass at
    m*d at time s_m, a Poisson mixture of convolution powers summed for all
    levels in one pass stopped by the bound of ``_crossing_sum``.
    """
    c = system.premium_rate
    if not u > 0.0:
        raise DomainError(f"barrier depth must be positive, got {u}")
    if t is not None and not t > 0.0:
        raise DomainError(f"horizon must be positive, got {t}")
    system._require_nonzero_loading()
    if system.loading > 0.0:
        value, root = 1.0, None
    else:
        sol = lundberg(system)
        value, root = math.exp(sol.R * u), sol.R

    value_by_t = None
    if t is not None and not t >= u / c:
        value_by_t = 0.0  # the drift cannot reach -u before u/c
    elif t is not None:
        lam = system.model.rate
        sev_dist = lattice_masses(system.model.severity, d)
        span = sev_dist.span
        m = np.arange(1, check_cells(steps_within(c * t - u, span) + 1))
        s = (m * span + u) / c
        crossings = _crossing_sum(sev_dist, m, lam * s, u / (c * s))[0]
        # the no-claim path reaches -u at time u/c
        value_by_t = min(math.exp(-lam * u / c) + crossings, 1.0)
    return HittingBelow(value, value_by_t, root)


# ---------------------------------------------------------------------------
# Exponential bounds on the ruin time and its normal limit
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FiniteTimeBound:
    """Exponential bound exp(-u*H(t)) on early or late ruin.

    H(t) = t*h(c + 1/t) (positive loading) is strictly convex with minimum
    |R| at the time scale t_bar; ``side`` says whether the bound applies
    to ruin by u*t (early) or after u*t (late). The level c +- 1/t_bar is
    g'(R), whose tilt is R itself, so ``exponent_at_scale`` = H(t_bar) is
    computed from the root as t_bar*(g'(R)*R - g(R)) = |R|, with no entropy
    solve.
    """

    exponent: float
    bound: float
    side: str
    time_scale: float
    exponent_at_scale: float
    R: float


def finite_time_bound(system: RiskSystem, u: float, t: float) -> FiniteTimeBound:
    if not u > 0.0:
        raise DomainError(f"capital must be positive, got {u}")
    if not t > 0.0:
        raise DomainError(f"time ratio must be positive, got {t}")
    sol = lundberg(system)
    c = system.premium_rate
    if sol.positive_loading:
        level = c + 1.0 / t
        level_at_scale = c + 1.0 / sol.time_scale
    else:
        if t <= 1.0 / c:
            raise DomainError(
                f"time ratio {t} must exceed 1/c = {1.0 / c} on the negative branch"
            )
        level = c - 1.0 / t
        level_at_scale = c - 1.0 / sol.time_scale
    exponent = t * entropy(system.model, level).h
    side = "early" if t <= sol.time_scale else "late"
    at_scale = sol.time_scale * max(level_at_scale * sol.R - system.model.g(sol.R), 0.0)
    return FiniteTimeBound(
        exponent, math.exp(-u * exponent), side, sol.time_scale, at_scale, sol.R
    )


@dataclass(frozen=True)
class RuinTimeNormal:
    """Gaussian localization of the ruin time around u times the time scale."""

    probability: float
    mean: float
    variance: float
    solution: LundbergSolution


def ruin_time_clt(system: RiskSystem, u: float, x: float) -> RuinTimeNormal:
    """P(T(u) <= u*t_bar + sigma*t_bar^{3/2}*sqrt(u)*x) ~ C e^{-Ru} Phi(x).

    Also exposes the asymptotic conditional mean u*t_bar and variance
    u*t_bar^3*g''(R) of the ruin time.
    """
    system._require_positive_loading("the ruin-time normal approximation")
    if not u > 0.0:
        raise DomainError(f"capital must be positive, got {u}")
    sol = lundberg(system)
    prob = sol.constant * math.exp(-sol.R * u) * float(special.ndtr(x))
    return RuinTimeNormal(
        prob,
        u * sol.time_scale,
        u * sol.time_scale**3 * sol.sigma_sq,
        sol,
    )


# ---------------------------------------------------------------------------
# Composite systems
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CompositeSplit:
    """Decentralized split of premium and capital across two subsystems.

    With a shared decay rate R and planning scale T, each unit gets
    c_i = g_i(R)/R and u_i = T*(g_i'(R) - c_i); the pooled system then has
    c = c_1 + c_2 and u = u_1 + u_2, and the pooled ruin estimate factors
    approximately into the units' estimates.
    """

    premium_split: tuple[float, float]
    capital_split: tuple[float, float]
    pooled_premium: float
    pooled_capital: float
    constants: tuple[float, float]
    pooled_constant: float
    product_value: float
    pooled_value: float
    constant_ratio: float


def composite_split(
    model_a: CompoundModel,
    model_b: CompoundModel,
    R: float,
    planning_scale: float,
) -> CompositeSplit:
    if not R > 0.0:
        raise DomainError(f"shared decay rate must be positive, got {R}")
    if R >= min(model_a.xi_bar, model_b.xi_bar):
        raise DomainError(
            f"shared rate {R} must lie below both abscissas "
            f"({model_a.xi_bar}, {model_b.xi_bar})"
        )
    if not planning_scale > 0.0:
        raise DomainError(f"planning scale must be positive, got {planning_scale}")

    def unit(model: CompoundModel) -> tuple[float, float, float]:
        c_i = model.g(R) / R
        u_i = planning_scale * (model.g_prime(R) - c_i)
        const = (c_i - model.mean_rate) / (model.g_prime(R) - c_i)
        return c_i, u_i, const

    c1, u1, k1 = unit(model_a)
    c2, u2, k2 = unit(model_b)

    pooled_g = model_a.g(R) + model_b.g(R)
    pooled_gp = model_a.g_prime(R) + model_b.g_prime(R)
    c = pooled_g / R
    u = planning_scale * (pooled_gp - c)
    if abs(c - (c1 + c2)) > 1e-10 * max(1.0, c):
        raise DomainError(f"premium split inconsistency: {c} vs {c1 + c2}")
    if abs(u - (u1 + u2)) > 1e-10 * max(1.0, abs(u)):
        raise DomainError(f"capital split inconsistency: {u} vs {u1 + u2}")
    pooled_const = (c - (model_a.mean_rate + model_b.mean_rate)) / (pooled_gp - c)
    product = k1 * math.exp(-R * u1) * k2 * math.exp(-R * u2)
    pooled_value = pooled_const * math.exp(-R * u)
    return CompositeSplit(
        (c1, c2),
        (u1, u2),
        c,
        u,
        (k1, k2),
        pooled_const,
        product,
        pooled_value,
        k1 * k2 / pooled_const,
    )
