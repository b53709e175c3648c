"""The benchmark's own test: tiny sizes, every metric named, nothing failing.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
import run  # noqa: E402

# The end-to-end figures each workload prints in its report.
REPORTED = {
    "census": ["wall_s", "walk_nodes_per_s", "par_nodes_per_s",
               "pruned_nodes_per_s", "setup_s", "peak_rss_mib", "error_rate"],
    "sweeps": ["wall_s", "sweep_nodes_per_s", "setup_s", "peak_rss_mib",
               "error_rate"],
    "oracle": ["wall_s", "points_per_s", "semigroups_per_s", "setup_s",
               "peak_rss_mib", "error_rate"],
}
UNITS = {**run.END_TO_END, **run.WORKLOAD_RATES, "error_rate": "fraction"}


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args, "--seconds", "0.5", "--smoke"],
        capture_output=True, text=True, cwd=cwd, timeout=300)


def result_of(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    return result


def record_of(proc: subprocess.CompletedProcess) -> dict:
    line = next(l for l in proc.stdout.splitlines() if l.startswith("record "))
    return json.loads(line[len("record "):])


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_end_to_end_metrics(workload):
    proc = bench("--workload", workload, "--seed", "3", "--trace", "0")
    metrics = result_of(proc)["metrics"]
    assert {k: v["unit"] for k, v in metrics.items()} == run.END_TO_END
    assert all(v["value"] > 0 for v in metrics.values())
    for name in REPORTED[workload]:
        line = re.search(rf"^  {name} +(\S+) {re.escape(UNITS[name])} ",
                         proc.stdout, re.M)
        assert line, f"{name} missing from the report"
        value = float(line.group(1))
        assert value == 0 if name == "error_rate" else value > 0
    record = record_of(proc)
    assert record["seed"] == 3
    assert record["seed_used"] == (workload == "oracle")
    for key in ("nproc", "python", "platform", "host.steal_frac", "host.calib_s"):
        assert key in record


def test_traced_run_reports_every_layer_metric():
    proc = bench("--workload", "sweeps", "--seed", "3", "--trace", "1")
    metrics = result_of(proc)["metrics"]
    assert {k: v["unit"] for k, v in metrics.items()} == run.PER_LAYER
    for name, metric in metrics.items():
        # Differences of two timings may dip below zero at these sizes.
        if not (name.startswith(("trace.overhead_frac", "host.steal_frac"))
                or name.endswith("visit_ns_per_node")):
            assert metric["value"] > 0, name
    for workload in (*run.WORKLOADS, "cli"):
        assert (run.OUT / f"trace-sweeps-seed3-{workload}.jsonl.gz").is_file()


def test_seed_decides_the_oracle_inputs():
    digests = [record_of(bench("--workload", "oracle", "--seed", seed,
                               "--trace", "0"))["inputs"]
               for seed in ("5", "5", "6")]
    assert digests[0] == digests[1] != digests[2]


def test_benchmark_json_names_the_metrics_emitted():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def test_refuses_to_run_without_the_package():
    bare = run.OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = bench("--workload", "census", "--seed", "1", "--trace", "0",
                     cwd=bare)
        assert proc.returncode != 0
        assert proc.stdout.strip() == ""
    finally:
        shutil.rmtree(bare)
