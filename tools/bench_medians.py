"""Medians of the benchmark's end-to-end metrics, written as one JSON file.

    python3 tools/bench_medians.py BENCH_6.json

Runs ``perfbench/run.py --workload W --seed S --seconds T --trace 0`` for
seeds 1..3 on each workload in turn, never two at once, with the run
length and the workloads that ``BENCHMARK.json`` declares.  The file holds
each end-to-end metric's median and per-run values, every run's check
counts, and the host's nproc, the Python version and the git revision
from the runs' ``record`` lines.  Run it from a clean checkout of the
revision it measures: the revision is read from ``.git``, not from the
working tree.  Exits 1, writing nothing, if a run fails or its checks do.
Needs only the standard library.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from bench_pairs import run_once

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (1, 2, 3)


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("out", type=Path, help="JSON file to write")
    args = p.parse_args(argv)
    seconds = bench["run_seconds"]
    workloads, host = {}, set()
    for name in (w["name"] for w in bench["workloads"]):
        runs = []
        for seed in SEEDS:
            try:
                record, result = run_once(ROOT, name, seed, seconds)
            except (RuntimeError, subprocess.SubprocessError,
                    json.JSONDecodeError) as exc:
                print(f"error: {name} seed {seed}: {exc}", file=sys.stderr)
                return 1
            host.add((record["nproc"], record["python"],
                      record["git_revision"]))
            runs.append(result)
            print(f"{name} seed {seed}: " + ", ".join(
                f"{k} {v['value']:.4g}" for k, v in result["metrics"].items()),
                file=sys.stderr)
        workloads[name] = {
            metric: {"median": statistics.median(
                         r["metrics"][metric]["value"] for r in runs),
                     "unit": runs[0]["metrics"][metric]["unit"],
                     "runs": [r["metrics"][metric]["value"] for r in runs]}
            for metric in runs[0]["metrics"]}
        workloads[name]["checks"] = {
            "attempted": [r["attempted"] for r in runs],
            "failed": [r["failed"] for r in runs]}
    if len(host) != 1:
        print(f"error: the runs disagree on host or revision: {sorted(host)}",
              file=sys.stderr)
        return 1
    (nproc, python, revision), = host
    args.out.write_text(json.dumps({
        "nproc": nproc, "python": python, "git_revision": revision,
        "seconds": seconds, "runs": len(SEEDS), "seeds": list(SEEDS),
        "workloads": workloads,
    }, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
