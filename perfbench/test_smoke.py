"""Smoke test of the benchmark's own code at tiny sizes.

Run from the repository root:  python3 -m pytest perfbench/test_smoke.py
"""

import math
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import bench  # noqa: E402
import run  # noqa: E402
from tracer import Tracer  # noqa: E402

WORKLOADS = ["funnel-calibration", "long-sequence", "run-fit"]
END_TO_END = {"setup_s": "s", "ops_per_s": "1/s", "peak_rss_mb": "MB"}
CLI_LAYERS = [f"cli.main.{cmd}.{kind}" for cmd in ("simulate", "runs", "fit-runs", "analyze")
              for kind in ("s", "self_s")]
PER_LAYER = {
    "simulate.ensemble.s": "s", "simulate.ensemble.members": "count",
    "simulate.ensemble.us_per_member": "us",
    "simulate.generate.s": "s", "simulate.generate.steps": "count",
    "simulate.generate.ns_per_step": "ns", "simulate.generate.peak_bytes_per_step": "B",
    "dataio.sequence_text.mb_per_s": "MB/s", "dataio.parse_sequence.mb_per_s": "MB/s",
    "dataio.write_text_atomic.s": "s",
    "runs.extract_runs.ns_per_symbol": "ns", "runs.average_and_normalize.s": "s",
    "runs.memoryfree_curve.s": "s",
    "estimate.fit_runs_simulated.s": "s", "estimate.run_curve_objective.calls": "count",
    "estimate.run_curve_objective.us_per_call": "us",
    "estimate.fit_scatter.s": "s", "funnel.coverage.s": "s", "funnel.z_from_level.calls": "count",
    "dataio.parse_studies.rows_per_s": "1/s",
    **{name: "s" for name in CLI_LAYERS},
    "import.numpy_s": "s", "import.scipy_s": "s", "import.twostate_s": "s",
    "trace.overhead_frac": "fraction", "trace.uncovered_frac": "fraction",
}
# The layer each workload must exercise, by one of its per-layer metrics.
EXERCISED = {
    "funnel-calibration": ["simulate.ensemble.members", "funnel.coverage.s", "cli.main.analyze.s",
                           "dataio.parse_studies.rows_per_s", "estimate.fit_scatter.s"],
    "long-sequence": ["simulate.generate.peak_bytes_per_step", "dataio.sequence_text.mb_per_s",
                      "dataio.parse_sequence.mb_per_s", "runs.extract_runs.ns_per_symbol",
                      "cli.main.simulate.s", "cli.main.runs.s"],
    "run-fit": ["estimate.run_curve_objective.calls", "estimate.fit_runs_simulated.s",
                "simulate.generate.steps", "cli.main.fit-runs.s"],
}


def test_benchmark_json_declares_the_named_metrics():
    declared = run.declared_metrics()
    assert declared["workloads"] == WORKLOADS
    assert declared["end_to_end"] == END_TO_END
    assert declared["per_layer"] == PER_LAYER


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    units = END_TO_END if not trace else PER_LAYER
    out = bench.run_workload(workload, seed=3, seconds=0, trace=trace, sizes=bench.TINY,
                             declared=units)
    result = out["result"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and 0 <= result["failed"] <= result["attempted"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == units
    assert all(math.isfinite(m["value"]) for m in result["metrics"].values())
    assert out["summary"]["failed_frac"] == result["failed"] / result["attempted"]
    values = {name: m["value"] for name, m in result["metrics"].items()}
    if trace:
        assert all(values[name] > 0 for name in EXERCISED[workload]), values
        assert 0.0 <= values["trace.uncovered_frac"] < 0.5
    else:
        assert all(value > 0 for value in values.values())


def test_non_zero_exit_breaks_the_op(tmp_path):
    op = bench.Op("missing input", 1)
    missing = tmp_path / "missing.txt"
    assert op.cli(["runs", "--input", missing, "--out-on", tmp_path / "on.csv",
                   "--out-off", tmp_path / "off.csv"]) != 0
    assert op.result.failure and op.result.broken


def test_throughput_is_total_work_over_total_time_of_finished_ops():
    ref = bench.PROBE_REFERENCE_S
    cycle = [bench.OpResult("a", 3.0, 1.0, probe_seconds=ref),
             bench.OpResult("b", 1.0, 3.0, probe_seconds=ref),
             bench.OpResult("cut short", 5.0, 0.1, "exited 1", True, probe_seconds=ref)]
    assert bench.throughput([(False, cycle)]) == pytest.approx(1.0)
    slow = [bench.OpResult("a", 4.0, 2.0, probe_seconds=2 * ref)]
    assert bench.throughput([(False, slow)]) == pytest.approx(2.0 * 2 ** bench.PROBE_EXPONENT)
    assert bench.throughput([(False, slow)], scaled=False) == pytest.approx(2.0)


def test_absent_layer_is_recorded_not_fatal():
    module = types.ModuleType("gone")
    tracer = Tracer()
    tracer.install([(module, "vanished")])
    tracer.uninstall()
    assert tracer.absent == ["gone.vanished"]


def test_spans_nest_and_restore():
    module = types.ModuleType("twostate.fake")

    def inner(x):
        return x + 1

    def outer(x):
        return module.inner(x) * 2

    inner.__module__ = outer.__module__ = module.__name__
    module.inner, module.outer = inner, outer
    tracer = Tracer()
    tracer.install([(module, "inner"), (module, "outer")])
    assert module.outer(1) == 4
    tracer.uninstall()
    assert module.inner is inner and module.outer is outer
    names = [(s.name, s.parent) for s in tracer.spans]
    assert names == [("fake.outer", -1), ("fake.inner", 0)]
    assert all(s.end >= s.start for s in tracer.spans)


def test_parse_importtime_takes_outermost_scipy_imports():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |     numpy.core",
        "import time:       200 |        300 |   numpy",
        "import time:        50 |         50 |       scipy._lib",
        "import time:       100 |        150 |     scipy",
        "import time:       400 |        600 |     scipy.stats",
        "import time:        10 |        760 |   twostate.funnel",
        "import time:        40 |       1100 | twostate",
    ])
    assert bench.parse_importtime(text) == pytest.approx(
        {"numpy": 300e-6, "scipy": 750e-6, "twostate": 1100e-6})


def test_fails_without_a_result_when_the_package_is_missing(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    (tmp_path / "perfbench").mkdir()
    for path in (ROOT / "perfbench").glob("*.py"):
        shutil.copy(path, tmp_path / "perfbench")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "run-fit", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())

