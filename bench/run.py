"""Run one benchmark workload against the collrisk sources next to this directory.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

The process imports collrisk from ../src, writes the workload's model
files under bench/.work/, and sends the workload's queries one at a time
(closed loop) in whole passes until S seconds of passes have run. Every
answer is checked; see workloads.py. The last line of stdout is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``:

* ``--trace 0``: setup_s, pass_cpu_s, query_p50_cpu_ms and peak_rss_mb.
  pass_cpu_s is the upper quartile of the passes' times, and
  query_p50_cpu_ms the upper quartile of the passes' median query times;
  see ``upper_quartile``;
* ``--trace 1``: per-layer metrics. Passes alternate untraced and traced;
  layer figures are per traced pass, and trace.overhead_ms is the median
  traced pass minus the median untraced pass. Spans go to
  bench/results/trace-<workload>.tsv.

Every time in the metrics is CPU time of this process (all its threads)
and of any child process it has waited for, read by ``cpu_clock``. The
program is single-threaded compute, so on an unshared core this equals
wall time. On a shared virtual machine the wall time also holds the time
the hypervisor gives the core to others (steal), which changed one fixed
1.2 s query's wall time by up to 2x from call to call while its CPU time
moved by under 20%. The wall-clock pass times are printed on a "#" line.
The run's length, ``--seconds``, is wall time.
"""

import os

# One BLAS/OpenMP thread; set before numpy is imported anywhere.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402
from types import SimpleNamespace  # noqa: E402

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
MODULES = ("cli", "cumulant", "lattice", "montecarlo", "ruin", "severity")
SETUP_REPEATS = 9


def import_collrisk() -> SimpleNamespace:
    """Import collrisk afresh from SRC (dropping any earlier import)."""
    for name in [m for m in sys.modules if m == "collrisk" or m.startswith("collrisk.")]:
        del sys.modules[name]
    importlib.import_module("collrisk")
    lib = SimpleNamespace(**{m: importlib.import_module(f"collrisk.{m}") for m in MODULES})
    if Path(lib.cli.__file__).resolve().parent != SRC / "collrisk":
        raise SystemExit(f"collrisk was imported from {lib.cli.__file__}, not {SRC}")
    return lib


def cpu_clock() -> float:
    """CPU seconds used by this process and its waited-for children."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def check_worker_invariance(lib, seed: int) -> list[str]:
    """simulate must give bit-identical results with 1 and 2 workers."""
    model = lib.cumulant.CompoundModel(1.0, lib.severity.Exponential(1.0))
    system = lib.ruin.RiskSystem(model, 1.25, 0.0)
    results = []
    for workers in (1, 2):
        plan = lib.montecarlo.SimulationPlan(
            system=system, horizon=50.0, n_paths=20_000, seed=seed, chunk_paths=2_000,
            tail_probes=((10.0, 1.5),), ruin_levels=(2.0, 5.0), hitting_levels=(3.0,),
            collect_ruin_times=5.0, workers=workers)
        results.append(lib.montecarlo.simulate(plan))
    one, two = results
    problems = []
    if one.estimates != two.estimates:
        problems.append("simulate estimates differ between 1 and 2 workers")
    if one.ruin_times.tobytes() != two.ruin_times.tobytes():
        problems.append("simulate ruin times differ between 1 and 2 workers")
    return problems


def time_setup(workload_cls, workdir: Path, seed: int):
    """Median of SETUP_REPEATS set-ups: import collrisk, write inputs, build pass 0.

    Also returns the median time of each of the three steps.
    """
    times, steps = [], []
    for _ in range(SETUP_REPEATS):
        shutil.rmtree(workdir, ignore_errors=True)
        workdir.mkdir(parents=True)
        gc.collect()
        start = cpu_clock()
        lib = import_collrisk()
        imported = cpu_clock()
        workload = workload_cls(lib, workdir, seed)
        built = cpu_clock()
        first = workload.queries(0)
        end = cpu_clock()
        times.append(end - start)
        steps.append((imported - start, built - imported, end - built))
    step_medians = [statistics.median(column) for column in zip(*steps)]
    return lib, workload, first, statistics.median(times), step_medians


def upper_quartile(values: list[float]) -> float:
    """Q3 over a run's passes, the figure the run reports.

    The machine's speed moves by up to 1.7x for seconds to minutes at a
    time, mostly faster. A run's median pass follows a fast stretch that
    covers half its passes; the upper quartile only one that covers three
    quarters of them.
    """
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=4, method="inclusive")[2]


def tail_percentile(values: list[float]) -> tuple[int, float] | None:
    """Highest whole percentile with at least ten samples beyond it (needs 40 samples)."""
    if len(values) < 40:
        return None
    pct = math.floor(100.0 * (1.0 - 10.0 / len(values)))
    return pct, statistics.quantiles(values, n=100)[pct - 1]


def ruin_panjer_calls_per_query(tracer) -> float:
    """panjer calls per `seal` or `hitting_below` query; 0 where there are none."""
    by_query = tracer.calls_by_query
    qids = {qid for qid, _ in by_query if qid.startswith(("seal", "hitting"))}
    queries = sum(n for (qid, name), n in by_query.items()
                  if qid in qids and name.startswith("query."))
    panjer = sum(by_query.get((qid, "lattice.panjer"), 0) for qid in qids)
    return panjer / queries if queries else 0.0


def layer_metrics(tracer, passes: int, overhead_s: float) -> dict:
    calls, self_ms, counts = tracer.calls, tracer.self_s, tracer.counts

    def ms(*names):
        return 1e3 * sum(self_ms.get(n, 0.0) for n in names) / passes

    def per_pass(value):
        return value / passes

    sim_s = tracer.total_s.get("montecarlo.simulate", 0.0)
    metrics = {
        "severity.discretize_ms": (ms("severity.discretize", "severity.discretize_ladder"), "ms"),
        "severity.discretize_cells": (per_pass(counts["discretize_cells"]), "count"),
        "severity.sample_ms": (ms("severity.sample", "severity.sampler"), "ms"),
        "severity.sample_draws": (per_pass(counts["sample_draws"]), "count"),
        "severity.transform_calls": (per_pass(calls["severity.transform"]), "count"),
        "severity.transform_ms": (ms("severity.transform"), "ms"),
        "cumulant.entropy_calls": (per_pass(calls["cumulant.entropy"]), "count"),
        "cumulant.entropy_ms": (ms("cumulant.entropy"), "ms"),
        "cumulant.esscher_ms": (ms("cumulant.esscher"), "ms"),
        "rootfind.newton_solves": (per_pass(calls["rootfind.newton"]), "count"),
        "rootfind.newton_evals": (per_pass(counts["newton_evals"]), "count"),
        "rootfind.newton_ms": (ms("rootfind.newton"), "ms"),
        "ruin.lundberg_ms": (ms("ruin.lundberg"), "ms"),
        "ruin.mixture_ms": (ms("ruin.mixture"), "ms"),
        "lattice.panjer_calls": (per_pass(calls["lattice.panjer"]), "count"),
        "lattice.panjer_cells": (per_pass(counts["panjer_cells"]), "count"),
        "lattice.panjer_madds": (per_pass(counts["panjer_madds"]), "count"),
        "lattice.panjer_ms": (ms("lattice.panjer"), "ms"),
        "lattice.cg_cells": (per_pass(counts["cg_cells"]), "count"),
        "lattice.cg_ms": (ms("lattice.cg"), "ms"),
        "lattice.dist_cells": (per_pass(counts["dist_cells"]), "count"),
        "lattice.dist_ms": (ms("lattice.dist"), "ms"),
        "ruin.seal_self_ms": (ms("ruin.seal"), "ms"),
        "ruin.hitting_self_ms": (ms("ruin.hitting"), "ms"),
        "ruin.panjer_calls_per_query": (ruin_panjer_calls_per_query(tracer), "count"),
        "montecarlo.simulate_ms": (1e3 * sim_s / passes, "ms"),
        "montecarlo.self_ms": (ms("montecarlo.simulate"), "ms"),
        "montecarlo.events": (per_pass(counts["mc_events"]), "count"),
        "montecarlo.chunks": (per_pass(counts["mc_chunks"]), "count"),
        "montecarlo.events_per_s": (counts["mc_events"] / sim_s if sim_s else 0.0, "1/s"),
        "montecarlo.useful_path_ratio": (
            counts["mc_ruined"] / counts["mc_paths"] if counts["mc_paths"] else 0.0, "ratio"),
        "cli.parse_ms": (ms("cli.parse"), "ms"),
        "cli.self_ms": (ms("query.cli"), "ms"),
        "trace.overhead_ms": (1e3 * overhead_s, "ms"),
        "trace.spans": (per_pass(sum(calls.values())), "count"),
    }
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}


def print_self_by_query(tracer, passes: int) -> None:
    """The three largest self times per query id, in ms per traced pass."""
    by_query: dict[str, list[tuple[float, str]]] = {}
    for (qid, name), seconds in tracer.self_by_query.items():
        by_query.setdefault(qid, []).append((1e3 * seconds / passes, name))
    for qid, rows in sorted(by_query.items()):
        top = ", ".join(f"{name} {ms:.1f}" for ms, name in sorted(rows, reverse=True)[:3])
        print(f"# self ms per traced pass, {qid}: {top}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "collrisk" / "__init__.py").is_file():
        print(f"error: no collrisk sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # collrisk needs numpy and scipy.special; the checks also need scipy.stats,
    # integrate and optimize. All are imported here, before any timing, so
    # setup_s holds collrisk's own import only.
    start = cpu_clock()
    import numpy  # noqa: E402, F401
    import scipy.special  # noqa: E402, F401
    library_deps_s = cpu_clock() - start
    library_deps_mb = peak_rss_mb()
    import workloads  # noqa: E402
    from tracer import Tracer  # noqa: E402
    bench_deps_mb = peak_rss_mb()

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    workdir = BENCH / ".work" / f"{args.workload}-{os.getpid()}"
    try:
        lib, workload, queries, setup_s, setup_steps = time_setup(
            workloads.WORKLOADS[args.workload], workdir, args.seed)
        problems = check_worker_invariance(lib, args.seed)
        tracer = Tracer() if args.trace else None

        attempted = failed = 0
        faults: dict[str, str] = {}
        gone: set[str] = set()  # known-fault queries whose fault no longer shows
        pass_times: dict[bool, list[float]] = {False: [], True: []}
        wall_pass_times: list[float] = []
        query_times: list[float] = []
        pass_query_p50s: list[float] = []  # median query time of each untraced pass
        deadline = time.perf_counter() + args.seconds
        index = 0
        while True:
            traced = tracer is not None and index % 2 == 1
            if index:
                queries = workload.queries(index)
            gc.collect()
            if traced:
                tracer.install(lib)
            answers = []
            wall_start, pass_start = time.perf_counter(), cpu_clock()
            for query in queries:
                start = cpu_clock()
                try:
                    if traced:
                        tracer.query = (index, query.qid)
                        answers.append(tracer.run(f"query.{query.via}", query.run))
                    else:
                        answers.append(query.run())
                except Exception as exc:  # a crashing query is a failed query
                    answers.append(exc)
                if not traced:
                    query_times.append(cpu_clock() - start)
            pass_times[traced].append(cpu_clock() - pass_start)
            if not traced:
                pass_query_p50s.append(statistics.median(query_times[-len(queries):]))
                wall_pass_times.append(time.perf_counter() - wall_start)
            if traced:
                tracer.uninstall()

            for query, answer in zip(queries, answers):
                attempted += 1
                found = ([f"raised {answer!r}"] if isinstance(answer, Exception)
                         else query.check(answer))
                fault = query.fault
                if fault is not None and not found:
                    gone.add(query.qid)
                if not found:
                    continue
                failed += 1
                if fault is not None and all(fault.explains(p) for p in found):
                    faults[query.qid] = f"{fault.cause} [{found[0]}]"
                else:
                    problems.append(f"pass {index} {query.qid}: {'; '.join(found)}")
            index += 1
            if time.perf_counter() >= deadline and (tracer is None or index >= 2):
                break

        peak_mb = peak_rss_mb()
        pass_s = upper_quartile(pass_times[False])
        print(f"# workload {args.workload}, seed {args.seed}: {index} passes of "
              f"{len(queries)} queries, pass upper quartile {pass_s:.4f} CPU s")
        print("# untraced passes, CPU s: " + " ".join(f"{t:.3f}" for t in pass_times[False]))
        print("# untraced passes, wall s: " + " ".join(f"{t:.3f}" for t in wall_pass_times))
        print("# setup_s steps (median s): import collrisk {:.4f}, write inputs {:.4f}, "
              "build pass 0 {:.4f}; not in it: first import of numpy and "
              "scipy.special {:.4f}".format(*setup_steps, library_deps_s))
        print(f"# peak RSS before collrisk is imported: {library_deps_mb:.1f} MB after numpy "
              f"and scipy.special, {bench_deps_mb:.1f} MB after the benchmark's own imports")
        tail = tail_percentile(query_times)
        if tail is not None:
            print(f"# query CPU time over {len(query_times)} queries: "
                  f"p50 {1e3 * statistics.median(query_times):.4f} ms, "
                  f"p{tail[0]} {1e3 * tail[1]:.4f} ms")
        for qid, text in sorted(faults.items()):
            print(f"# known fault, {qid}: {text}")
        for qid in sorted(gone):
            print(f"# fault no longer shows, {qid}: update bench/README.md and CHANGES.md")
        for text in problems[:20]:
            print(f"# WRONG: {text}")

        if tracer is not None:
            overhead = (statistics.median(pass_times[True])
                        - statistics.median(pass_times[False]))
            metrics = layer_metrics(tracer, len(pass_times[True]), overhead)
            print_self_by_query(tracer, len(pass_times[True]))
            tracer.write(BENCH / "results" / f"trace-{args.workload}.tsv")
        else:
            metrics = {
                "setup_s": {"value": setup_s, "unit": "s"},
                "pass_cpu_s": {"value": pass_s, "unit": "s"},
                "query_p50_cpu_ms": {"value": 1e3 * upper_quartile(pass_query_p50s),
                                     "unit": "ms"},
                "peak_rss_mb": {"value": peak_mb, "unit": "MB"},
            }
        print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed,
                          "metrics": metrics}))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if not any(workdir.parent.iterdir()):
            workdir.parent.rmdir()


if __name__ == "__main__":
    sys.exit(main())
