"""Span tracing from outside the library, for the benchmark's traced passes.

``Tracer.install`` replaces collrisk's public functions with timing
wrappers in the module namespaces their callers look them up in, and the
transform methods and ``LatticeDistribution.__post_init__`` on their
classes. ``uninstall`` puts the originals back, so untraced passes run the
library untouched.

Each call becomes a span (name, start, end, parent, query id). Self time,
the span's duration minus the time its child spans cover, is summed per
name as the spans close, along with call counts and the work counters
derived from arguments and results. The span records themselves are kept
in memory up to ``MAX_SPANS`` and written out by ``write``.

One span stack serves all spans: every traced pass runs on one thread
(the Monte Carlo queries pass ``--workers 1``).
"""

from __future__ import annotations

import math
import time
from collections import defaultdict
from pathlib import Path

TRANSFORMS = ("mgf", "mgf_m1", "mgf_prime", "mgf_second")
MAX_SPANS = 200_000  # span records kept for ``write``; totals count every span


def _panjer_work(counts, args, kwargs, result):
    severity, n_out = args[1], args[2]
    n_sev = severity.masses.size - 1
    counts["panjer_cells"] += n_out + 1
    # multiply-adds of the recursion: sum over n = 1..n_out of min(n, n_sev)
    head = min(n_out, n_sev)
    counts["panjer_madds"] += head * (head + 1) // 2 + (n_out - head) * n_sev


def _cg_work(counts, args, kwargs, result):
    counts["cg_cells"] += args[2] + 1


def _discretize_work(counts, args, kwargs, result):
    counts["discretize_cells"] += result.size


def _dist_work(counts, args, kwargs, result):
    counts["dist_cells"] += args[0].masses.size


def _sample_work(counts, args, kwargs, result):
    counts["sample_draws"] += args[1]


def _simulate_work(counts, args, kwargs, result):
    plan = args[0]
    counts["mc_events"] += result.diagnostics["events"]
    counts["mc_chunks"] += math.ceil(plan.n_paths / result.diagnostics["chunk_paths"])
    if plan.collect_ruin_times is not None:
        counts["mc_paths"] += plan.n_paths
        counts["mc_ruined"] += result.ruin_times.size


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.total_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        self.self_by_query: dict[tuple[str, str], float] = defaultdict(float)
        self.calls_by_query: dict[tuple[str, str], int] = defaultdict(int)
        self.query: tuple[int, str] | None = None  # (pass index, query id) of open spans
        self._stack: list[list] = []  # [time covered by children, span id] per open span
        self._next_id = 0
        self._saved: list[tuple] = []

    # -- spans ----------------------------------------------------------------

    def run(self, name: str, fn, /, *args, **kwargs):
        """Call ``fn(*args, **kwargs)`` inside a span called ``name``."""
        stack, span_id = self._stack, self._next_id
        self._next_id += 1
        parent = stack[-1][1] if stack else None
        frame = [0.0, span_id]
        stack.append(frame)
        start = time.process_time()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.process_time()
            stack.pop()
            duration, own = end - start, end - start - frame[0]
            self.calls[name] += 1
            self.total_s[name] += duration
            self.self_s[name] += own
            if self.query is not None:
                self.self_by_query[self.query[1], name] += own
                self.calls_by_query[self.query[1], name] += 1
            if len(self.spans) < MAX_SPANS:
                self.spans.append((name, start, end, span_id, parent, self.query))
            if stack:
                stack[-1][0] += duration

    def wrap(self, name: str, fn, work=None, prepare=None):
        def traced(*args, **kwargs):
            if prepare is not None:
                args = prepare(args)
            result = self.run(name, fn, *args, **kwargs)
            if work is not None:
                work(self.counts, args, kwargs, result)
            return result

        return traced

    # -- patching -------------------------------------------------------------

    def _set(self, owner, attr: str, replacement) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def _patch(self, owner, attr: str, name: str, **how) -> None:
        self._set(owner, attr, self.wrap(name, owner.__dict__[attr], **how))

    def _count_evals(self, args):
        counts = self.counts

        def counted(f):
            def inner(x):
                counts["newton_evals"] += 1
                return f(x)

            return inner

        return (counted(args[0]), counted(args[1]), *args[2:])

    def _wrap_sampler_factory(self, factory):
        """Trace ``severity_sampler`` and every sampler it returns."""
        traced = self.wrap("severity.sampler", factory)

        def severity_sampler(*args, **kwargs):
            return self.wrap("severity.sample", traced(*args, **kwargs), work=_sample_work)

        return severity_sampler

    def install(self, lib) -> None:
        plan = [
            ("lattice.panjer", "panjer", (lib.ruin, lib.cli), dict(work=_panjer_work)),
            ("lattice.cg", "compound_geometric", (lib.ruin,), dict(work=_cg_work)),
            ("severity.discretize", "discretize", (lib.ruin, lib.cli, lib.severity),
             dict(work=_discretize_work)),
            ("severity.discretize_ladder", "discretize_ladder", (lib.ruin,), {}),
            ("cumulant.entropy", "entropy", (lib.cumulant, lib.ruin), {}),
            ("cumulant.esscher", "esscher_tail", (lib.cumulant, lib.cli), {}),
            ("cumulant.esscher", "esscher_tail_lattice", (lib.cumulant, lib.cli), {}),
            ("ruin.lundberg", "lundberg", (lib.ruin, lib.cli, lib.montecarlo), {}),
            ("ruin.mixture", "mixture_exact", (lib.ruin, lib.cli), {}),
            ("ruin.seal", "seal", (lib.cli,), {}),
            ("ruin.hitting", "hitting_below", (lib.ruin,), {}),
            ("rootfind.newton", "safeguarded_newton", (lib.cumulant, lib.ruin),
             dict(prepare=self._count_evals)),
            ("montecarlo.simulate", "simulate", (lib.montecarlo,), dict(work=_simulate_work)),
            ("cli.parse", "parse_model_file", (lib.cli,), {}),
            ("cli.parse", "_parse_policies", (lib.cli,), {}),
            ("cli.parse", "build_parser", (lib.cli,), {}),
        ]
        for name, attr, owners, how in plan:
            for owner in owners:
                self._patch(owner, attr, name, **how)
        mc = lib.montecarlo
        self._set(mc, "severity_sampler", self._wrap_sampler_factory(mc.severity_sampler))
        sev = lib.severity
        for cls in (sev.Exponential, sev.Gamma, sev.PointMass, sev.MixtureOfExponentials,
                    sev.Lattice):
            for attr in TRANSFORMS:
                self._patch(cls, attr, "severity.transform")
        self._patch(lib.lattice.LatticeDistribution, "__post_init__", "lattice.dist",
                    work=_dist_work)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- output ---------------------------------------------------------------

    def write(self, path: Path) -> None:
        """Spans as tab-separated name, start, end, id, parent, query id."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            fh.write("name\tstart_s\tend_s\tid\tparent\tquery\n")
            for name, start, end, span_id, parent, query in self.spans:
                fh.write(f"{name}\t{start:.9f}\t{end:.9f}\t{span_id}\t"
                         f"{'' if parent is None else parent}\t"
                         f"{'' if query is None else '%d:%s' % query}\n")
