"""sgforge benchmark: one workload per run, checked, with its metrics.

    python3 perfbench/run.py --workload census --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from
``src/`` of that checkout, never from an installed copy.  With ``--trace 0``
the run reports the end-to-end metrics of the named workload; its times
are rescaled to a nominal host speed by a calibration probe run around
each measurement (see ``common.at_nominal_speed``), and the report shows
them as measured too.  With
``--trace 1`` it runs every workload with per-call spans, plus the no-op
collector walks and the CLI probes, and reports the per-layer metrics;
spans go to ``perfbench/out/``.  The last stdout line is the JSON result;
the exit code is 0 only when every check passed.  ``--smoke`` shrinks
every size for the benchmark's own test.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import monotonic

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

sys.path.insert(0, str(HERE))
from reference import genus_row  # noqa: E402
from common import (FULL, SMOKE, Checks, Sizes, at_nominal_speed,  # noqa: E402
                    calibrate)
from tracing import Recorder  # noqa: E402

WORKLOADS = ("census", "sweeps", "oracle")

# End-to-end metrics every workload reports in its JSON result.
END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mib": "MiB"}

# Workload-specific end-to-end figures, printed in the report above the
# JSON line.  They exist only on the workload named, so they are not in
# the JSON result, which carries the same metrics on every workload.
WORKLOAD_RATES = {
    "walk_nodes_per_s": "nodes/s",
    "par_nodes_per_s": "nodes/s",
    "pruned_nodes_per_s": "nodes/s",
    "sweep_nodes_per_s": "nodes/s",
    "points_per_s": "points/s",
    "semigroups_per_s": "1/s",
}

# Per-layer metrics of the traced run, with their units.
PER_LAYER = {
    "tree.walk.s": "s", "tree.walk.nodes": "count",
    "tree.walk.ns_per_node": "ns/node",
    "tree.parallel.s": "s", "tree.parallel.speedup": "x",
    "tree.parallel.efficiency": "fraction",
    "tree.parallel.child_rss_mib": "MiB",
    "tree.pruned.s": "s", "tree.pruned.nodes": "count",
    "tree.pruned.ns_per_node": "ns/node",
    "tree.rich.s": "s", "tree.rich.nodes": "count",
    "tree.rich.ns_per_node": "ns/node",
    **{f"conjectures.{sweep}.{kind}": unit
       for sweep in ("pflueger", "ordinarization", "buchweitz", "zhai")
       for kind, unit in (("s", "s"), ("nodes", "count"),
                          ("visit_ns_per_node", "ns/node"))},
    "conjectures.census_checks.s": "s", "conjectures.checked": "count",
    "kunz.count.s": "s", "kunz.points": "count", "kunz.cells": "count",
    "kunz.ns_per_point": "ns/point", "kunz.bijection.s": "s",
    "kunz.bijection.cells": "count", "kunz.round_trip.us": "us",
    "core.from_generators.us": "us", "core.to_record.us": "us",
    "core.weight_data.us": "us", "core.effective_generators.us": "us",
    "core.from_gaps.us": "us", "core.inspect.p99_us": "us",
    "core.semigroups": "count",
    "cli.import_s": "s", "cli.count_s": "s", "cli.verify_s": "s",
    "census.tree.self_s": "s", "census.conjectures.self_s": "s",
    "census.bench.self_s": "s", "sweeps.conjectures.self_s": "s",
    "sweeps.bench.self_s": "s", "oracle.kunz.self_s": "s",
    "oracle.core.self_s": "s", "oracle.conjectures.self_s": "s",
    "oracle.bench.self_s": "s",
    **{f"trace.overhead_frac.{w}": "fraction" for w in WORKLOADS},
    "trace.spans": "count",
    "host.steal_frac": "fraction", "host.calib_s": "s",
}


class Failure(Exception):
    """The benchmark could not run; no result is printed."""


def child_env() -> dict:
    """Environment for every interpreter the benchmark starts: the working
    tree's ``src`` on the path, and no SGFORGE_THREADS, which would
    override ``--workers``."""
    env = dict(os.environ)
    env.pop("SGFORGE_THREADS", None)
    env["PYTHONPATH"] = str(SRC)
    return env


def worker(workload: str, seed: int, mode: str, seconds: float, smoke: bool,
           spans: Path | None = None) -> dict:
    cmd = [sys.executable, str(HERE / "workloads.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--mode", mode]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    if smoke:
        cmd.append("--smoke")
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, env=child_env(),
                          cwd=ROOT, text=True, timeout=170)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise Failure(f"{workload} {mode} process exited {proc.returncode}")
    return json.loads(lines[-1])


def setup_seconds(workload: str, seed: int, smoke: bool) -> float:
    """Fresh interpreter start until sgforge is imported and the inputs are
    generated; the child reports the (system-wide monotonic) clock then."""
    start = monotonic()
    ready = worker(workload, seed, "setup", 0, smoke)["ready"]
    return ready - start


def cli_probe(rec: Recorder, name: str, args: list[str]) -> tuple[float, subprocess.CompletedProcess]:
    """One fresh CLI process, timed from its start until its output ends."""
    with rec.phase(name) as sid:
        proc = subprocess.run([sys.executable, *args], capture_output=True,
                              env=child_env(), cwd=ROOT, text=True, timeout=120)
    return rec.seconds(sid), proc


def cli_metrics(sz: Sizes, checks: Checks) -> tuple[dict, Recorder]:
    rec = Recorder("cli", traced=True)
    rec.pass_id = "cli"
    expected = "genus,count\n" + "".join(
        f"{g},{n}\n" for g, n in enumerate(genus_row(sz.cli_count_genus)))
    runs = {"cli.import_s": [], "cli.count_s": [], "cli.verify_s": []}
    for _ in range(sz.cli_samples):
        seconds, proc = cli_probe(rec, "cli.import", ["-c", "import sgforge"])
        runs["cli.import_s"].append(seconds)
        checks.expect(proc.returncode == 0, "cli: import sgforge")
        seconds, proc = cli_probe(rec, "cli.count", [
            "-m", "sgforge.cli", "count", "--max-genus",
            str(sz.cli_count_genus), "--workers", "1"])
        runs["cli.count_s"].append(seconds)
        checks.expect(proc.returncode == 0 and proc.stdout == expected,
                      "cli: count stdout equals the A007323 row")
        seconds, proc = cli_probe(rec, "cli.verify", [
            "-m", "sgforge.cli", "verify", "zhai-lemma", "--max-genus",
            str(sz.cli_verify_frobenius)])
        runs["cli.verify_s"].append(seconds)
        checks.expect(proc.returncode == 0
                      and proc.stderr.startswith("verify zhai-lemma: ok"),
                      "cli: verify zhai-lemma exits 0 and reports ok")
    return {k: statistics.median(v) for k, v in runs.items()}, rec


def cpu_jiffies() -> tuple[int, int] | None:
    """(steal, total) jiffies of the whole host, or None without /proc."""
    try:
        with open("/proc/stat") as fh:
            fields = [int(x) for x in fh.readline().split()[1:9]]
    except (OSError, ValueError):
        return None
    return fields[7], sum(fields)


def git_revision() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def run_timed(args, sz: Sizes, checks: Checks) -> tuple[dict, dict]:
    setups, scaled = [], []
    calib = [calibrate()]
    for _ in range(sz.setup_samples):
        setups.append(setup_seconds(args.workload, args.seed, args.smoke))
        calib.append(calibrate())
        scaled.append(at_nominal_speed(setups[-1], calib[-2], calib[-1]))
    res = worker(args.workload, args.seed, "timed", args.seconds, args.smoke)
    checks.add(*res["checks"])
    if not res["walls"]:
        raise Failure(f"no {args.workload} pass completed")
    metrics = {
        "wall_s": statistics.median(res["scaled_walls"]),
        "setup_s": statistics.median(scaled),
        "peak_rss_mib": res["peak_rss_mib"],
    }
    passes = len(res["walls"])
    print(f"workload {args.workload}: {passes} passes, closed loop, one client; "
          f"times marked * are at the nominal host speed")
    rows = [("wall_s", metrics["wall_s"], "s", f"* median of {passes} passes"),
            ("wall_raw_s", statistics.median(res["walls"]), "s",
             f"median of {passes} passes as measured")]
    rows += [(k, v, WORKLOAD_RATES[k], "median over passes as measured")
             for k, v in res["rates"].items()]
    rows += [("setup_s", metrics["setup_s"], "s",
              f"* median of {len(setups)} fresh interpreters"),
             ("setup_raw_s", statistics.median(setups), "s",
              f"median of {len(setups)} fresh interpreters as measured"),
             ("peak_rss_mib", metrics["peak_rss_mib"], "MiB",
              "ru_maxrss of the workload process"),
             ("error_rate", checks.failed / max(checks.attempted, 1),
              "fraction", f"{checks.failed} of {checks.attempted} checks failed")]
    for name, value, unit, note in rows:
        print(f"  {name:<20} {value:>14.6g} {unit:<9} {note}")
    return metrics, res


def run_traced(args, sz: Sizes, checks: Checks) -> tuple[dict, dict]:
    OUT.mkdir(exist_ok=True)
    tag = f"trace-{args.workload}-seed{args.seed}"
    layer, overhead, spans, calib = {}, {}, 0, []
    for workload in WORKLOADS:
        res = worker(workload, args.seed, "traced", args.seconds / len(WORKLOADS),
                     args.smoke, OUT / f"{tag}-{workload}.jsonl.gz")
        checks.add(*res["checks"])
        layer.update(res["layer"])
        overhead[workload] = res["overhead_frac"]
        spans += res["spans"]
        calib.append(res["calib_s"])
        if workload == "oracle":
            inputs = res["inputs"]
    # The CLI children are started here, outside the workload processes, so
    # they cannot raise a workload's RUSAGE_CHILDREN peak.
    cli, rec = cli_metrics(sz, checks)
    rec.write(OUT / f"{tag}-cli.jsonl.gz")
    layer.update(cli)
    for workload, frac in overhead.items():
        layer[f"trace.overhead_frac.{workload}"] = frac
    layer["trace.spans"] = spans + len(rec.spans)
    layer["host.calib_s"] = statistics.median(calib)
    print(f"traced run: every workload, spans in {OUT.relative_to(ROOT)}/{tag}-*")
    return layer, {"calib_s": layer["host.calib_s"], "inputs": inputs,
                   "seeded": True}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="tiny sizes, for the benchmark's own test")
    args = p.parse_args(argv)
    if not (SRC / "sgforge" / "__init__.py").is_file():
        print(f"error: no sgforge package under {SRC}; run from the root of "
              "a source checkout", file=sys.stderr)
        return 2
    sz = SMOKE if args.smoke else FULL
    checks = Checks()
    jiffies = cpu_jiffies()
    try:
        if args.trace:
            values, res = run_traced(args, sz, checks)
            units = PER_LAYER
        else:
            values, res = run_timed(args, sz, checks)
            units = END_TO_END
    except (Failure, subprocess.SubprocessError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    end = cpu_jiffies()
    steal = None
    if jiffies and end and end[1] > jiffies[1]:
        steal = (end[0] - jiffies[0]) / (end[1] - jiffies[1])
    if args.trace:
        values["host.steal_frac"] = steal if steal is not None else 0.0
        missing = sorted(set(PER_LAYER) - set(values))
        if missing:
            print(f"error: the traced run did not produce {missing}",
                  file=sys.stderr)
            return 2
        for name, unit in PER_LAYER.items():
            print(f"  {name:<40} {values[name]:>14.6g} {unit}")
    record = {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "git_revision": git_revision(),
        "seed": args.seed,
        "seed_used": res["seeded"],
        "seed_note": None if res["seeded"] else
        f"{args.workload} enumerates fixed ranges and ignores the seed",
        "inputs": res["inputs"],
        "seconds": args.seconds,
        "smoke": args.smoke,
        "host.steal_frac": steal,
        "host.calib_s": res["calib_s"],
    }
    print("record " + json.dumps(record))
    attempted, failed = checks.attempted, checks.failed
    print(json.dumps({
        "correct": failed == 0,
        "attempted": max(attempted, 1),
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
