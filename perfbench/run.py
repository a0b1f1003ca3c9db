"""Benchmark of the twostate package.

Run from the repository root:

    python3 perfbench/run.py --workload run-fit --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

One workload runs in this process and prints, as its last stdout line,
{"correct", "attempted", "failed", "metrics"}: with --trace 0 the
end-to-end metrics of BENCHMARK.json, with --trace 1 the per-layer ones.
`--workload all` runs each workload in a fresh process of its own, so that
peak memory belongs to that workload alone, and prints a table.

The package is imported from ./src, warm, and driven in-process through its
library names and `twostate.cli.main(argv)`, on one thread; BLAS threads
are capped at the number of usable CPUs.  Exits 2 without a result when the
package or BENCHMARK.json cannot be found.

End-to-end metrics (--trace 0):
  setup_s      median wall time of a cold `python -m twostate --version`
  ops_per_s    median over cycles of the cycle's work over its program time;
               the work unit is a simulated study, a symbol or a fit (WORK_UNIT)
  peak_rss_mb  peak resident memory of this process
Both times are scaled by a machine-speed probe (see bench.SpeedProbe); the
unscaled values are printed on a comment line above the result.  Failed ops
are the result's `failed` out of `attempted`; their share is printed as
failed_frac.  The run-fit pairs the fit is known to miss are reported on
`# fit-miss` lines, with their share as fit_miss_frac, and are not counted
in `failed`.  Per-layer metrics (--trace 1) come from spans recorded around
the program's functions (see tracer.py): `.s` is seconds per op, counts are
per op, and rates divide a layer's sizes by its time.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
# What one unit of `ops_per_s` is, per workload.
WORK_UNIT = {"funnel-calibration": "studies", "long-sequence": "symbols", "run-fit": "fits"}


def cap_blas_threads() -> None:
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    for var in BLAS_THREAD_VARS:
        current = os.environ.get(var, "")
        if not current.isdigit() or int(current) > nproc:
            os.environ[var] = str(nproc)


def declared_metrics() -> dict:
    """{'end_to_end': {name: unit}, 'per_layer': {name: unit}, 'workloads': [...]}."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {
        "end_to_end": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "per_layer": {m["name"]: m["unit"] for m in spec["per_layer"]},
        "workloads": [w["name"] for w in spec["workloads"]],
    }


def run_one(args, declared) -> int:
    import bench

    trace = bool(args.trace)
    expected = declared["per_layer" if trace else "end_to_end"]
    out = bench.run_workload(args.workload, args.seed, args.seconds, trace, declared=expected)
    metrics = out["result"]["metrics"]
    if set(metrics) != set(expected):
        print(f"error: emitted {sorted(metrics)} but BENCHMARK.json declares {sorted(expected)}",
              file=sys.stderr)
        return 2
    summary = out["summary"]
    print("# machine " + json.dumps(bench.machine()))
    print(f"# {args.workload}: {summary['cycles']} cycles, {out['result']['attempted']} ops, "
          f"failed_frac {summary['failed_frac']:.4f}, fit_miss_frac {summary['miss_frac']:.4f} "
          f"(work unit: {WORK_UNIT[args.workload]})")
    if summary["unscaled"]:
        print("# unscaled " + json.dumps(summary["unscaled"]))
    for failure in summary["failures"]:
        print(f"# failed {failure}")
    for miss in summary["misses"]:
        print(f"# fit-miss {miss}")
    print(json.dumps(out["result"]))
    return 0


def run_all(args, declared) -> int:
    """Each workload in a fresh process; prints a table and one JSON line."""
    results, code = {}, 0
    for name in declared["workloads"]:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"# {name}: exited {proc.returncode}", file=sys.stderr)
            code = 1
            continue
        for line in lines[:-1]:
            print(line)
        results[name] = json.loads(lines[-1])
    for name, res in results.items():
        cells = [f"{name:<20}"]
        for metric, m in res["metrics"].items():
            shown = f"{WORK_UNIT[name]}/s" if metric == "ops_per_s" else m["unit"]
            cells.append(f"{metric}={m['value']:.6g} {shown}")
        cells.append(f"failed_frac={res['failed'] / res['attempted']:.4f} ({res['failed']}/{res['attempted']})")
        print("  ".join(cells))
    print(json.dumps({"workloads": results}))
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        declared = declared_metrics()
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: cannot read BENCHMARK.json: {exc}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args, declared)
    if args.workload not in declared["workloads"]:
        parser.error(f"unknown workload {args.workload!r}; choose from {declared['workloads']} or all")

    cap_blas_threads()
    if not (ROOT / "src" / "twostate" / "__init__.py").is_file():
        print(f"error: no twostate package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    return run_one(args, declared)


if __name__ == "__main__":
    sys.exit(main())
