"""Alternating before-and-after benchmark pairs of two git revisions.

    python3 tools/bench_pairs.py PARENT CHANGE [--pairs 10] [--seconds S] [--smoke]

Exports both revisions with ``git archive`` into a temporary directory and,
for pair k = 1..N, runs ``perfbench/run.py --workload W --seed k --trace 0``
on each side for every workload that ``BENCHMARK.json`` declares: the
parent first on odd pairs, the change first on even ones.  The run length
defaults to the benchmark's ``run_seconds``; ``--smoke`` is passed through.
Exits 1 if any run fails or reports a failed check.

For each workload and end-to-end metric it prints both medians, the
parent's quartiles, how many pairs the change won (ties count for
neither), the relative change of the medians, whether that change is
within the parent's IQR and within the metric's bound, and whether a gain
could be claimed: at least ten pairs ran, the change won at least nine
tenths of them and its median is better by more than the parent's IQR.
Writes nothing into the repository.  Needs only the standard library and
git.
"""

from __future__ import annotations

import argparse
import io
import json
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def export(rev: str, dest: Path) -> None:
    """Extract the tree of ``rev`` into ``dest``."""
    data = subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT,
                          stdout=subprocess.PIPE, check=True).stdout
    # The archive is this repository's own; the filter only silences newer
    # Pythons' warning about extracting without one.
    safe = {"filter": "data"} if hasattr(tarfile, "data_filter") else {}
    with tarfile.open(fileobj=io.BytesIO(data)) as tar:
        tar.extractall(dest, **safe)


def run_once(tree: Path, workload: str, seed: int, seconds: float,
             smoke: bool = False) -> tuple[dict, dict]:
    """One benchmark run in ``tree``: its last ``record`` line and its JSON
    result.  Raises RuntimeError if the run fails, prints no result or
    fails a check."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    if smoke:
        cmd.append("--smoke")
    proc = subprocess.run(cmd, cwd=tree, stdout=subprocess.PIPE, text=True,
                          timeout=10 * seconds + 120)
    lines = proc.stdout.strip().splitlines()
    records = [line[len("record "):] for line in lines
               if line.startswith("record ")]
    if proc.returncode != 0 or not records or not lines[-1].startswith("{"):
        raise RuntimeError(f"run.py exited {proc.returncode} without a result")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise RuntimeError(f"{result['failed']} of {result['attempted']} "
                           "checks failed")
    return json.loads(records[-1]), result


def quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def summary(metric: dict, parent: list[float], change: list[float]) -> str:
    """One report line for one metric of one workload."""
    sign = 1 if metric["better"] == "lower" else -1
    p_med, c_med = statistics.median(parent), statistics.median(change)
    q1, q3 = quartiles(parent)
    won = sum(sign * (p - c) > 0 for p, c in zip(parent, change))
    gap = sign * (p_med - c_med)               # > 0: the change is better
    rel = (c_med - p_med) / p_med if p_med else 0.0
    in_iqr = abs(c_med - p_med) <= q3 - q1
    in_bound = -gap <= metric["bound"] * p_med
    claim = (len(parent) >= 10 and won >= 0.9 * len(parent)
             and gap > q3 - q1)
    return (f"{metric['name']:<13} {p_med:>10.4g} {c_med:>10.4g} "
            f"{q1:>10.4g}..{q3:<10.4g} {won:>3}/{len(parent):<3} "
            f"{rel:>+8.1%}  {'yes' if in_iqr else 'no':<10} "
            f"{'ok' if in_bound else 'WORSE':<7} {'yes' if claim else 'no'}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("parent", help="revision measured as the baseline")
    p.add_argument("change", help="revision measured against it")
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seconds", type=float, default=None,
                   help="run length (default: BENCHMARK.json run_seconds)")
    p.add_argument("--smoke", action="store_true",
                   help="pass --smoke to perfbench/run.py")
    args = p.parse_args(argv)
    if args.pairs < 1:
        p.error("--pairs must be >= 1")
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        sides = {"parent": Path(tmp, "parent"), "change": Path(tmp, "change")}
        try:
            for side, tree in sides.items():
                export(getattr(args, side), tree)
        except subprocess.CalledProcessError as exc:
            print(f"error: git archive failed: {exc}", file=sys.stderr)
            return 1
        bench = json.loads((sides["parent"] / "BENCHMARK.json").read_text())
        seconds = args.seconds or bench["run_seconds"]
        workloads = [w["name"] for w in bench["workloads"]]
        runs = {(side, w): [] for side in sides for w in workloads}
        for pair in range(1, args.pairs + 1):
            order = ("parent", "change") if pair % 2 else ("change", "parent")
            for workload in workloads:
                for side in order:
                    try:
                        _, result = run_once(sides[side], workload, pair,
                                             seconds, args.smoke)
                    except (RuntimeError, subprocess.SubprocessError,
                            json.JSONDecodeError) as exc:
                        print(f"error: pair {pair} {workload} {side}: {exc}",
                              file=sys.stderr)
                        return 1
                    values = {k: v["value"]
                              for k, v in result["metrics"].items()}
                    runs[side, workload].append(values)
                    print(f"pair {pair} {workload} {side}: " + ", ".join(
                        f"{k} {v:.4g}" for k, v in values.items()),
                        file=sys.stderr)
    print(f"{args.pairs} pairs, {seconds:g} s runs, {args.parent} -> "
          f"{args.change}; parent first on odd pairs")
    print(f"{'metric':<13} {'parent':>10} {'change':>10} {'parent Q1..Q3':^22} "
          f"{'won':^7} {'change':>8}  {'in IQR':<10} {'bound':<7} claim")
    for workload in workloads:
        print(workload)
        for metric in bench["end_to_end"]:
            name = metric["name"]
            print(summary(metric,
                          [r[name] for r in runs["parent", workload]],
                          [r[name] for r in runs["change", workload]]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
