"""Stochastic oracle: path simulation of the compound Poisson surplus process.

Independent of every analytic routine in the library, this module samples
claim arrival paths and estimates tail probabilities, ruin frequencies and
ruin-time statistics with standard errors. Claim sizes come from each
severity's ``sample``, which uses only the law's parameters and none of
its transforms. Reproducibility is strict: paths are generated in
fixed-size chunks, each from its own counter-based substream keyed by
(seed, chunk index), and all reductions run in a fixed pairwise order,
so results are bit-identical for any worker count.

A chunk draws its Poisson counts first. Every other draw comes from three
cursors on the same stream, opened where the whole-chunk schedule puts
them: one uniform per inner gap (all paths' gaps in path order), then one
per closing gap, then the claim sizes. Philox is counter-based, so a cursor
reaches its first word without drawing the words before it. The scan runs
over blocks of whole paths of about ``BLOCK_EVENTS`` events each, small
enough to stay in cache, and each block draws its own gaps and claims from
the cursors as it reaches them. The two running sums the scan needs
(arrival spacings and claims) carry from block to block, so every draw,
arrival time, loss and estimate has the same bits whatever the block size.
A chunk holds its counts and per-path outputs (a few words per path) plus
one block's draws and working arrays; memory does not grow with the
chunk's event count.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from .errors import BudgetError, DomainError, InsufficientRuinsError
from .ruin import RiskSystem, lundberg
from .severity import SeverityModel, exponential_draws

__all__ = [
    "SimulationPlan",
    "EstimateWithError",
    "SimulationResult",
    "RuinTimeStudy",
    "simulate",
    "ruin_time_samples",
    "default_horizon",
    "severity_sampler",
    "estimate_key",
    "ruin_times_text",
]

Sampler = Callable[[np.random.Generator, int], np.ndarray]


def severity_sampler(severity: SeverityModel) -> Sampler:
    """The severity's own draw rule, ``severity.sample``.

    ``simulate`` fetches its sampler through this module-level name rather
    than reading ``severity.sample`` itself, so that a caller can wrap the
    name to observe both the lookup and every draw.
    """
    return severity.sample


# ---------------------------------------------------------------------------
# Plans and results
# ---------------------------------------------------------------------------


EVENT_BUDGET = 2e9  # most expected claim events one ``simulate`` may draw
# expected claim events per path block of a chunk's scan; a block's float arrays
# (96 KiB each) stay under the C allocator's default 128 KiB mmap threshold, so they
# are not mapped and page-faulted afresh for every block
BLOCK_EVENTS = 12_288
# above this share of ruined paths, a block scans every event for first breaches rather
# than gathering the ruined paths' events: on Exp(1) blocks of 12k events the two cost
# the same near 15% ruined, and at 80% gathering takes 2.4 times as long
DENSE_RUIN = 0.125


@dataclass(frozen=True)
class SimulationPlan:
    """Everything needed to reproduce a simulation bit-for-bit.

    Frequency estimators: ``tail_probes`` asks for P(S(t) >= t*x) per
    (t, x) with 0 < t <= horizon; ``ruin_levels`` for the frequency of
    ruin by the horizon per capital u >= 0; ``hitting_levels`` for passage
    of U = S - c*t down to -u by the horizon, per u > 0;
    ``collect_ruin_times`` for the ruin frequency at one more capital
    u >= 0, whose conditional ruin-time samples are kept as well. These are
    the domains of the analytic twins (``ruin_panjer``, ``hitting_below``);
    a level outside them raises ``DomainError``. ``chunk_paths`` fixes the
    paths per chunk (default: about 2e6 expected events per chunk); it is
    part of the stream, so it changes the results. ``simulate`` refuses a
    plan that expects more than ``EVENT_BUDGET`` claim events.
    """

    system: RiskSystem
    horizon: float
    n_paths: int
    seed: int
    tail_probes: tuple[tuple[float, float], ...] = ()
    ruin_levels: tuple[float, ...] = ()
    hitting_levels: tuple[float, ...] = ()
    collect_ruin_times: float | None = None
    workers: int = 1
    chunk_paths: int | None = None

    def __post_init__(self):
        if self.n_paths < 1:
            raise DomainError(f"need at least one path, got {self.n_paths}")
        if not 0 <= self.seed < 2**64:
            raise DomainError(f"seed must lie in [0, 2**64), got {self.seed}")
        if not self.horizon > 0.0:
            raise DomainError(f"horizon must be positive, got {self.horizon}")
        if self.workers < 1:
            raise DomainError(f"workers must be >= 1, got {self.workers}")
        if self.chunk_paths is not None and self.chunk_paths < 1:
            raise DomainError(f"chunk_paths must be >= 1, got {self.chunk_paths}")
        for t, _ in self.tail_probes:
            if not 0.0 < t <= self.horizon:
                raise DomainError(f"tail_probes times must lie in (0, {self.horizon:g}], got {t:g}")
        for field, levels in (("ruin_levels", self.ruin_levels),
                              ("collect_ruin_times", _collected(self))):
            for u in levels:
                if not u >= 0.0:
                    raise DomainError(f"{field} must be >= 0, got {u:g}")
        for u in self.hitting_levels:
            if not u > 0.0:
                raise DomainError(f"hitting_levels must be positive, got {u:g}")


@dataclass(frozen=True)
class EstimateWithError:
    value: float
    std_error: float
    n_effective: int


@dataclass
class SimulationResult:
    seed: int
    n_paths: int
    horizon: float
    estimates: dict[str, EstimateWithError]
    ruin_times: np.ndarray | None
    diagnostics: dict[str, float]


def _frequency(hits: float, n: int) -> EstimateWithError:
    p = hits / n
    se = math.sqrt(max(p * (1.0 - p), 0.0) / max(n - 1, 1))
    return EstimateWithError(p, se, n)


def _collected(plan: SimulationPlan) -> tuple[float, ...]:
    return () if plan.collect_ruin_times is None else (plan.collect_ruin_times,)


def estimate_key(kind: str, **levels: float) -> str:
    """The name of an estimate in ``SimulationResult.estimates``: ``kind``
    and its levels at 12 significant digits, the precision the CLI prints,
    as in ``ruin(u=2)`` or ``tail(t=10;x=1.5)``."""
    return f"{kind}(" + ";".join(f"{name}={v:.12g}" for name, v in levels.items()) + ")"


def _estimator_names(plan: SimulationPlan) -> list[str]:
    """The estimate named by each entry of a chunk's count vector, in order:
    tail probes, ruin levels, hitting levels, then the collected ruin level."""
    return (
        [estimate_key("tail", t=t, x=x) for t, x in plan.tail_probes]
        + [estimate_key("ruin", u=u) for u in plan.ruin_levels]
        + [estimate_key("hitting", u=u) for u in plan.hitting_levels]
        + [estimate_key("ruin", u=u) for u in _collected(plan)]
    )


# ---------------------------------------------------------------------------
# Chunked vectorized engine
# ---------------------------------------------------------------------------


@dataclass
class _ChunkOut:
    hits: np.ndarray  # paths counted by each entry of _estimator_names(plan)
    ruin_times: np.ndarray | None
    n_events: int


def _cursor(bit_generator: np.random.Philox, words: int) -> np.random.Generator:
    """A generator on ``bit_generator``'s stream whose first 64-bit word is
    the one ``words`` past the next word ``bit_generator`` would give.

    Philox makes its words four at a time from a counter: once ``counter``
    blocks have been made, the next word is ``buffer_pos`` into the last of
    them. The cursor is a fresh Philox on the same key, ``advance``d past
    the blocks before the target word and then moved to it within its
    block, so none of the words in between is drawn and ``bit_generator``
    is not moved. Every draw of a chunk takes whole 64-bit words (one per
    uniform), so no half-word is ever pending.
    """
    state = bit_generator.state
    counter = sum(int(v) << (64 * i) for i, v in enumerate(state["state"]["counter"]))
    target = 4 * (counter - 1) + state["buffer_pos"] + words
    cursor = np.random.Philox(key=state["state"]["key"])
    cursor.advance(target // 4)
    cursor.random_raw(target % 4)
    return np.random.Generator(cursor)


def _path_blocks(
    counts: np.ndarray,
    gaps: np.random.Generator,
    closing: np.random.Generator,
    claims: np.random.Generator,
    sampler: Sampler,
    horizon: float,
    block_paths: int,
) -> Iterator[tuple[int, np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]]:
    """Arrival times and running losses of a chunk, ``block_paths`` paths at a time.

    Yields ``(p0, starts, counts, t_ev, x_ev, cum_loss)`` per block of
    paths ``p0, p0 + 1, ...``, with ``starts`` local to the block's events.
    Each block draws its unit exponential inner gaps from ``gaps``, one
    closing gap per path from ``closing`` and its claims from ``claims``
    through ``sampler``, so only one block's draws exist at a time. The
    claims of a chunk are one run of ``sampler`` calls on one cursor, which
    gives the claims of one whole-chunk call because a sampler's draws do
    not depend on how a run of claims is split (``SeverityModel.sample``).
    The gaps become arrival times by the exponential-spacings
    representation of uniform order statistics, so no sort is needed. The
    running sums of the gaps and of the claims carry across blocks as
    ``cumsum([carry, *block])``; ``add.accumulate`` is sequential, so each
    value has the bits of one cumulative sum over the whole chunk.
    """
    t_carry = x_carry = 0.0
    for p0 in range(0, counts.size, block_paths):
        cnt = counts[p0 : p0 + block_paths]
        n_ev = int(cnt.sum())
        starts = np.cumsum(cnt) - cnt
        cum = np.cumsum(np.concatenate([[t_carry], exponential_draws(gaps, n_ev)]))
        denom = cum[starts + cnt] - cum[starts] + exponential_draws(closing, cnt.size)
        t_ev = horizon * (cum[1:] - np.repeat(cum[starts], cnt)) / np.repeat(denom, cnt)
        t_carry = cum[-1]
        del cum, denom  # each running sum goes once read: few block arrays live at once
        x_ev = sampler(claims, n_ev)
        cum_x = np.cumsum(np.concatenate([[x_carry], x_ev]))
        cum_loss = cum_x[1:] - np.repeat(cum_x[starts], cnt)
        x_carry = cum_x[-1]
        del cum_x
        yield p0, starts, cnt, t_ev, x_ev, cum_loss
        del t_ev, x_ev, cum_loss  # freed before the next block's draws


def _segment(
    ufunc: np.ufunc, values: np.ndarray, starts: np.ndarray, counts: np.ndarray, empty: float
) -> np.ndarray:
    """``ufunc`` reduced over each path's events; ``empty`` for a path without any."""
    out = np.full(counts.size, empty)
    nz = np.flatnonzero(counts > 0)
    if nz.size:
        out[nz] = ufunc.reduceat(values, starts[nz])
    return out


def _trough(
    t_ev: np.ndarray,
    cum_loss: np.ndarray,
    starts: np.ndarray,
    counts: np.ndarray,
    premium: float,
    horizon: float,
) -> np.ndarray:
    """Lowest value of S - c*t per path up to the horizon. Between jumps it
    only drifts down, so it lies at the end of a drift segment: just before
    the path's first or next jump, or at the horizon."""
    drift = np.empty_like(t_ev)  # the next jump's time, then cum_loss - c*t there in place
    drift[:-1] = t_ev[1:]
    drift[(starts + counts - 1)[counts > 0]] = horizon
    drift *= -premium
    drift += cum_loss
    first_jump = _segment(np.minimum, t_ev, starts, counts, horizon)
    low = _segment(np.minimum, drift, starts, counts, np.inf)
    return np.minimum(low, -premium * first_jump)


def _first_breach(
    excess: np.ndarray,
    t_ev: np.ndarray,
    starts: np.ndarray,
    counts: np.ndarray,
    peak: np.ndarray,
    u: float,
) -> np.ndarray:
    """Per path, the first jump epoch whose excess is above ``u`` (inf if none).

    Only paths whose ``peak`` passes ``u`` have such an epoch. When they are
    few, only their events are gathered and scanned; when they are many, one
    scan of every event is cheaper. Both take the least breach time of each
    ruined path's events, so both give the same bits.
    """
    out = np.full(counts.size, np.inf)
    ruined = np.flatnonzero(peak > u)
    if ruined.size > DENSE_RUIN * counts.size:
        # from one ruined path's start to the next, the other paths add no breach
        out[ruined] = np.minimum.reduceat(np.where(excess > u, t_ev, np.inf), starts[ruined])
    elif ruined.size:
        n = counts[ruined]
        local = np.cumsum(n) - n  # each ruined path's first event among the gathered
        idx = np.arange(int(n.sum())) + np.repeat(starts[ruined] - local, n)
        out[ruined] = np.minimum.reduceat(np.where(excess[idx] > u, t_ev[idx], np.inf), local)
    return out


def _run_chunk(plan: SimulationPlan, sampler: Sampler, n_paths: int, chunk_id: int) -> _ChunkOut:
    """Count one chunk's paths for every estimator of the plan.

    The Poisson counts come first. The scan then takes blocks of whole
    paths of about ``BLOCK_EVENTS`` expected events (``_path_blocks``),
    each drawing its gaps and claims from cursors on the chunk's stream
    (``_cursor``) at the words the whole-chunk schedule gives them: inner
    gaps right after the counts, closing gaps E words later and claims
    E + P words later, for E events and P paths. It fills per-path
    outputs: the loss by each tail probe's time, the highest post-jump
    excess S - c*t (``peak``), its lowest value by the horizon (``_trough``)
    and the collected level's ruin time (the first jump epoch whose excess
    is above the level). The excess rises only at jumps, so ruin at u is
    ``peak > u`` and passage to -u is ``trough <= -u``: one peak and one
    trough answer every level. The counts come from those outputs after
    the last block.
    """
    sys = plan.system
    lam, c, horizon = sys.model.rate, sys.premium_rate, plan.horizon
    # uint64 words: a list holding a seed past 2**63 would become a float64 array
    key = np.array([plan.seed, chunk_id], dtype=np.uint64)
    bit_generator = np.random.Philox(key=key)
    counts = np.random.Generator(bit_generator).poisson(lam * horizon, n_paths)
    n_events = int(counts.sum())
    gaps, closing, claims = (
        _cursor(bit_generator, words) for words in (0, n_events, n_events + n_paths)
    )

    collected = _collected(plan)
    tail_loss = np.empty((len(plan.tail_probes), n_paths))
    peak = np.empty(n_paths) if plan.ruin_levels or collected else None
    trough = np.empty(n_paths) if plan.hitting_levels else None
    first_ruin = np.empty(n_paths) if collected else None
    block_paths = max(1, int(BLOCK_EVENTS / max(lam * horizon, 1.0)))
    blocks = _path_blocks(counts, gaps, closing, claims, sampler, horizon, block_paths)
    for p0, starts, cnt, t_ev, x_blk, cum_loss in blocks:
        p = slice(p0, p0 + cnt.size)
        for i, (t, _) in enumerate(plan.tail_probes):
            tail_loss[i, p] = _segment(np.add, np.where(t_ev <= t, x_blk, 0.0), starts, cnt, 0.0)
        if trough is not None:
            trough[p] = _trough(t_ev, cum_loss, starts, cnt, c, horizon)
        if peak is not None:
            excess = t_ev * -c  # then cum_loss - c*t_ev in place, bit for bit, with no temporary
            excess += cum_loss
            peak[p] = _segment(np.maximum, excess, starts, cnt, -np.inf)
            for u in collected:
                first_ruin[p] = _first_breach(excess, t_ev, starts, cnt, peak[p], u)
            del excess
        del t_ev, x_blk, cum_loss  # freed before the next block is drawn

    hits = [np.count_nonzero(loss >= t * x) for (t, x), loss in zip(plan.tail_probes, tail_loss)]
    hits += [np.count_nonzero(peak > u) for u in plan.ruin_levels]
    hits += [np.count_nonzero(trough <= -u) for u in plan.hitting_levels]
    hits += [np.count_nonzero(peak > u) for u in collected]
    ruin_times = None if first_ruin is None else first_ruin[np.isfinite(first_ruin)]
    return _ChunkOut(np.array(hits, dtype=float), ruin_times, n_events)


def _resolve_chunk_paths(plan: SimulationPlan) -> int:
    if plan.chunk_paths is not None:
        return plan.chunk_paths
    expected = plan.system.model.rate * plan.horizon
    return max(256, min(65536, int(2_000_000 / max(expected, 1.0))))


def _pairwise_sum(blocks: list[np.ndarray]) -> np.ndarray:
    while len(blocks) > 1:
        blocks = [
            blocks[i] + blocks[i + 1] if i + 1 < len(blocks) else blocks[i]
            for i in range(0, len(blocks), 2)
        ]
    return blocks[0]


def simulate(plan: SimulationPlan) -> SimulationResult:
    """Run the plan and return every requested estimator with its error.

    Expected event count lambda * horizon * n_paths is checked against
    ``EVENT_BUDGET`` before any work happens. Each chunk counts its paths
    for every frequency estimator into one vector, and one pairwise sum
    over the chunks, in chunk order, gives the totals. A level asked for
    twice, or collected and also among ``ruin_levels``, keeps its first
    place among the estimates.
    """
    sys = plan.system
    expected_events = sys.model.rate * plan.horizon * plan.n_paths
    if expected_events > EVENT_BUDGET:
        raise BudgetError(
            f"expected {expected_events:.3g} events exceed the budget {EVENT_BUDGET:.3g}"
        )
    sampler = severity_sampler(sys.model.severity)
    chunk = _resolve_chunk_paths(plan)
    n_chunks = (plan.n_paths + chunk - 1) // chunk

    def job(cid: int) -> _ChunkOut:
        start = cid * chunk
        return _run_chunk(plan, sampler, min(chunk, plan.n_paths - start), cid)

    if plan.workers == 1 or n_chunks == 1:
        outs = [job(cid) for cid in range(n_chunks)]
    else:
        with ThreadPoolExecutor(max_workers=plan.workers) as pool:
            outs = list(pool.map(job, range(n_chunks)))

    n = plan.n_paths
    totals = _pairwise_sum([o.hits for o in outs])
    estimates = {
        name: _frequency(float(hits), n) for name, hits in zip(_estimator_names(plan), totals)
    }
    ruin_times = None
    if plan.collect_ruin_times is not None:
        ruin_times = np.concatenate([o.ruin_times for o in outs])

    diagnostics: dict[str, float] = {
        "events": float(sum(o.n_events for o in outs)),
        "chunk_paths": float(chunk),
    }
    return SimulationResult(plan.seed, n, plan.horizon, estimates, ruin_times, diagnostics)


# ---------------------------------------------------------------------------
# Conditional ruin-time study
# ---------------------------------------------------------------------------


@dataclass
class RuinTimeStudy:
    """Conditional ruin-time samples with moments and their targets.

    ``expected_mean`` (u*tbar) and ``expected_variance`` (u*tbar^3*g''(R))
    are the leading-order asymptotic targets of the ruin-time normal
    limit, not the exact moments of the simulated law. The overshoot
    above u and the horizon cut both move the sample mean: for Exp(1)
    claims at u = 20, c = 1.25 the exact conditional mean is 68.000 with
    no horizon and 66.975 on a horizon of 320, against u*tbar = 64.
    """

    times: np.ndarray
    mean: float
    mean_se: float
    variance: float
    expected_mean: float
    expected_variance: float
    ruin_frequency: EstimateWithError
    pre_asymptotic: bool


def default_horizon(system: RiskSystem, u: float) -> float:
    """Five asymptotic mean ruin times 5*u*tbar at capital u: the horizon a
    Monte Carlo command uses unless one is given, and the shortest that
    ``ruin_time_samples`` accepts."""
    return 5.0 * u * lundberg(system).time_scale


def ruin_time_samples(plan: SimulationPlan) -> RuinTimeStudy:
    """Simulate and summarize T(u) among ruined paths.

    Requires positive loading and a horizon of at least five times the
    asymptotic mean ruin time u*tbar. Paths still alive at the horizon are
    dropped, so the statistics describe T(u) given T(u) <= horizon; five
    mean ruin times does not make that cut negligible. For Exp(1) claims
    at u = 20, c = 1.25 a horizon of 320 cuts 0.33% of the conditional
    law and moves its mean by -1.03, about 2.6 standard errors at 10^6
    paths. Small R*u is flagged: the normal regime has not set in yet.
    """
    if plan.collect_ruin_times is None:
        raise DomainError("plan must set collect_ruin_times")
    u = plan.collect_ruin_times
    plan.system._require_positive_loading("the ruin-time study")
    sol = lundberg(plan.system)
    shortest = default_horizon(plan.system, u)
    if plan.horizon < shortest * (1.0 - 1e-12):
        raise DomainError(f"horizon {plan.horizon} is below five mean ruin times {shortest:g}")
    result = simulate(plan)
    times = result.ruin_times
    if times.size < 100:
        raise InsufficientRuinsError(
            f"only {times.size} ruined paths; need at least 100 for conditional statistics"
        )
    mean = float(times.mean())
    var = float(times.var(ddof=1))
    return RuinTimeStudy(
        times=times,
        mean=mean,
        mean_se=math.sqrt(var / times.size),
        variance=var,
        expected_mean=u * sol.time_scale,
        expected_variance=u * sol.time_scale**3 * sol.sigma_sq,
        ruin_frequency=result.estimates[estimate_key("ruin", u=u)],
        pre_asymptotic=sol.R * u < 2.0,
    )


# ---------------------------------------------------------------------------
# Text interfaces
# ---------------------------------------------------------------------------


def ruin_times_text(times: np.ndarray) -> str:
    """Raw conditional ruin-time samples, one per line, full precision."""
    return "\n".join(repr(float(t)) for t in times) + ("\n" if times.size else "")
