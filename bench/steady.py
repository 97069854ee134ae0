"""Run one workload several times and report the spread of every metric.

    python3 bench/steady.py --workload NAME [--runs 10] [--first-seed 1]

Each run is a fresh untraced ``bench/run.py`` process with its own seed
and BENCHMARK.json's run_seconds, started only after the previous one
ended. For every metric the table gives the median, the quartiles
(``statistics.quantiles(values, n=4)``), min, max and the quartile
spread (Q3 - Q1) / median, which is what the benchmark's bounds are set
against. Raw result lines, with each run's "#" summary
lines under "notes", are appended to bench/results/steady-<workload>.jsonl.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)
    seconds = json.loads((BENCH.parent / "BENCHMARK.json").read_text())["run_seconds"]

    out_path = BENCH / "results" / f"steady-{args.workload}.jsonl"
    out_path.parent.mkdir(parents=True, exist_ok=True)
    results = []
    for seed in range(args.first_seed, args.first_seed + args.runs):
        proc = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            capture_output=True, text=True, check=False, timeout=600)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        result["seed"] = seed
        result["notes"] = [line for line in lines[:-1] if line.startswith("#")]
        results.append(result)
        with out_path.open("a") as fh:
            fh.write(json.dumps(result) + "\n")
        share = result["failed"] / result["attempted"]
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} ({share:.6f})", flush=True)
        for note in result["notes"]:
            if "CPU time over" in note or "WRONG" in note:
                print(f"  {note}", flush=True)

    print(f"\n{args.workload}, {len(results)} runs")
    print(f"{'metric':34s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'min':>12s} "
          f"{'max':>12s} {'spread':>8s}")
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
        spread = (q3 - q1) / med if med else float("nan")
        print(f"{name:34s} {med:12.6g} {q1:12.6g} {q3:12.6g} {min(values):12.6g} "
              f"{max(values):12.6g} {spread:8.4f}")
    shares = {r["failed"] / r["attempted"] for r in results}
    print(f"failed share: {sorted(shares)}; all correct: {all(r['correct'] for r in results)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
