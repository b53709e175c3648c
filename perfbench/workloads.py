"""The three benchmark workloads, each run in a process of its own.

``run.py`` starts this script once per workload.  The process runs passes
back to back (a closed loop with one client), checks every pass's outputs
against ``reference``, and prints one JSON summary as its last stdout line.

    census   enumerate_tree(24) sequentially and on the process pool,
             ns_by_frobenius(30), then the census checks on the table
    sweeps   the pflueger, ordinarization, buchweitz and zhai sweeps
    oracle   Kunz lattice-point counts, the truncation bijection, and
             seeded semigroups through the core constructors

Only ``oracle`` uses the seed.  Sizes here are the full ones; ``SMOKE``
shrinks every range for the benchmark's own test.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import random
import resource
import statistics
import sys
from time import monotonic

import reference as ref
from common import FULL, SMOKE, Checks, Sizes, at_nominal_speed, calibrate
from tracing import Recorder, durations, self_seconds

import sgforge as sf

NPROC = len(os.sched_getaffinity(0))


def _median(values: list):
    """Median; a count stays a whole number."""
    if isinstance(values[0], int):
        return statistics.median_low(values)
    return statistics.median(values)


def _median_us(values: list[float]) -> float:
    return statistics.median(values) * 1e6


class Workload:
    """One workload.  Subclasses define ``run_pass`` (the timed calls),
    ``check`` (the pass's outputs against the references), ``timings`` and
    ``rates`` (the end-to-end figures of a pass) and ``layers`` (the
    per-layer metrics of a traced pass)."""

    name: str
    seeded = False

    def prepare(self) -> dict:
        """Work done after set-up and before the passes; returns a record
        of the inputs."""
        return {}

    def finish_traced(self, rec: Recorder, checks: Checks, layer: dict) -> None:
        """Traced-run extras; adds their metrics to ``layer``."""


# ---------------------------------------------------------------------------
# census

class Census(Workload):
    name = "census"

    def __init__(self, sizes: Sizes, seed: int):
        self.sz = sizes

    def run_pass(self, rec: Recorder) -> dict:
        sz = self.sz
        out = {}
        with rec.phase("bench.census.walk") as out["walk"]:
            out["seq"] = rec.call("tree.enumerate_tree", sf.enumerate_tree,
                                  sz.walk_genus)
        with rec.phase("bench.census.parallel") as out["parallel"]:
            out["par"] = rec.call("tree.enumerate_tree", sf.enumerate_tree,
                                  sz.walk_genus, split_depth=sz.split_depth,
                                  workers=NPROC)
        with rec.phase("bench.census.pruned") as out["pruned"]:
            out["ns"] = rec.call("tree.ns_by_frobenius", sf.ns_by_frobenius,
                                 sz.pruned_frobenius)
        seq = out["seq"]
        with rec.phase("bench.census.checks") as out["checks"]:
            out["reports"] = [
                rec.call("conjectures.wilf_sweep", sf.wilf_sweep,
                         sz.walk_genus, census=seq),
                rec.call("conjectures.ye_sweep", sf.ye_sweep, sz.ye_genus,
                         census=seq),
                rec.call("conjectures.bounds_sweep", sf.bounds_sweep,
                         sz.walk_genus, census=seq),
                rec.call("conjectures.ratio_report", sf.ratio_report, seq),
            ]
        out["nodes"] = sum(seq.n_of_g)
        # The pruned walk visits the root and every semigroup with F <= f_max.
        out["pruned_nodes"] = 1 + sum(out["ns"].values())
        rec.annotate(out["walk"], nodes=out["nodes"])
        rec.annotate(out["parallel"], nodes=sum(out["par"].n_of_g),
                     workers=NPROC)
        rec.annotate(out["pruned"], nodes=out["pruned_nodes"])
        rec.annotate(out["checks"], checked=_cases(out["reports"]))
        return out

    def check(self, out: dict, checks: Checks) -> None:
        g_max = self.sz.walk_genus
        f_max = self.sz.pruned_frobenius
        seq, par = out["seq"], out["par"]
        checks.expect(seq.n_of_g == ref.genus_row(g_max),
                      "census: n_of_g equals the A007323 row")
        checks.expect(out["pruned_nodes"] == ref.pruned_nodes(f_max),
                      "census: the pruned walk's node count")
        checks.expect([out["ns"].get(f) for f in range(1, f_max + 1)]
                      == ref.frobenius_row(f_max),
                      "census: ns_by_frobenius equals the A124506 row")
        for g in range(1, g_max + 1):
            checks.expect(seq.f_lt_2m[g] == ref.fibonacci(g + 1),
                          f"census: f_lt_2m[{g}] == fibonacci({g + 1})")
        checks.expect(seq.counts_equal(par),
                      "census: sequential and parallel tables count equally")
        for view in ("rows_by_genus", "rows_by_multiplicity", "rows_by_efficacy"):
            checks.expect(getattr(seq, view)() == getattr(par, view)(),
                          f"census: sequential and parallel {view}() agree")
        for report in out["reports"]:
            checks.expect(report.ok and _cases([report]) > 0,
                          f"census: {report.name} is ok and non-vacuous")

    def timings(self, rec: Recorder, out: dict) -> dict:
        return {
            "walk_s": rec.seconds(out["walk"]),
            "parallel_s": rec.seconds(out["parallel"]),
            "pruned_s": rec.seconds(out["pruned"]),
            "checks_s": rec.seconds(out["checks"]),
            "checked": _cases(out["reports"]),
            "nodes": out["nodes"],
            "pruned_nodes": out["pruned_nodes"],
        }

    def rates(self, t: dict) -> dict:
        return {
            "walk_nodes_per_s": t["nodes"] / t["walk_s"],
            "par_nodes_per_s": t["nodes"] / t["parallel_s"],
            "pruned_nodes_per_s": t["pruned_nodes"] / t["pruned_s"],
        }

    def layers(self, rec: Recorder, out: dict) -> dict:
        t = self.timings(rec, out)
        own = self_seconds(rec.spans, rec.pass_id)
        speedup = t["walk_s"] / t["parallel_s"]
        return {
            "tree.walk.s": t["walk_s"],
            "tree.walk.nodes": t["nodes"],
            "tree.walk.ns_per_node": t["walk_s"] / t["nodes"] * 1e9,
            "tree.parallel.s": t["parallel_s"],
            "tree.parallel.speedup": speedup,
            "tree.parallel.efficiency": speedup / NPROC,
            "tree.pruned.s": t["pruned_s"],
            "tree.pruned.nodes": t["pruned_nodes"],
            "tree.pruned.ns_per_node": t["pruned_s"] / t["pruned_nodes"] * 1e9,
            "conjectures.census_checks.s": t["checks_s"],
            "conjectures.checked": t["checked"],
            "census.tree.self_s": own.get("tree", 0.0),
            "census.conjectures.self_s": own.get("conjectures", 0.0),
            "census.bench.self_s": own.get("bench", 0.0),
        }

    def finish_traced(self, rec: Recorder, checks: Checks, layer: dict) -> None:
        children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        layer["tree.parallel.child_rss_mib"] = children / 1024


def _cases(reports) -> int:
    """Cases the census checks covered: nodes for wilf, genera for ye, rows
    for the bounds and ratio reports."""
    total = 0
    for report in reports:
        stats = report.stats
        total += stats["checked"] if "checked" in stats else len(stats["rows"])
    return total


# ---------------------------------------------------------------------------
# sweeps

class NoopCollector:
    """Collector that does nothing: prices the collector walk itself."""

    def visit(self, frame) -> None:
        pass

    def merge(self, other: "NoopCollector") -> "NoopCollector":
        return self


class Sweeps(Workload):
    name = "sweeps"

    def __init__(self, sizes: Sizes, seed: int):
        self.sz = sizes
        # (sweep, function, bound, Frobenius-pruned walk, nodes it visits)
        self.plan = [
            ("pflueger", sf.pflueger_sweep, sizes.pflueger_genus, False,
             ref.walk_nodes(sizes.pflueger_genus)),
            ("ordinarization", sf.ordinarization_sweep,
             sizes.ordinarization_genus, False,
             ref.walk_nodes(sizes.ordinarization_genus)),
            ("buchweitz", sf.buchweitz_sweep, sizes.buchweitz_genus, False,
             ref.walk_nodes(sizes.buchweitz_genus)),
            ("zhai", sf.zhai_sweep, sizes.zhai_frobenius, True,
             ref.pruned_nodes(sizes.zhai_frobenius)),
        ]
        self.nodes = sum(p[4] for p in self.plan)

    def run_pass(self, rec: Recorder) -> dict:
        out = {}
        for name, fn, bound, _pruned, nodes in self.plan:
            with rec.phase(f"bench.sweeps.{name}") as sid:
                report = rec.call(f"conjectures.{fn.__name__}", fn, bound)
            rec.annotate(sid, nodes=nodes)
            out[name] = (sid, report)
        return out

    def check(self, out: dict, checks: Checks) -> None:
        sz = self.sz
        for name, (_sid, report) in out.items():
            checks.expect(report.ok, f"sweeps: {name} is ok")
        rows = out["pflueger"][1].stats["rows"]
        checks.expect(len(rows) == sz.pflueger_genus,
                      "sweeps: pflueger has one row per genus")
        levels = out["ordinarization"][1].stats["levels"]
        checks.expect([levels.get(g) for g in range(sz.ordinarization_genus + 1)]
                      == ref.genus_row(sz.ordinarization_genus),
                      "sweeps: ordinarization levels equal the A007323 row")
        totals = out["buchweitz"][1].stats["totals"]
        checks.expect([totals.get(g) for g in range(2, sz.buchweitz_genus + 1)]
                      == ref.genus_row(sz.buchweitz_genus)[2:],
                      "sweeps: buchweitz totals equal the A007323 row")
        cells = out["zhai"][1].stats["cells"]
        checks.expect(cells == ref.zhai_cells(sz.zhai_frobenius) and cells > 0,
                      "sweeps: zhai checked every (m, F) class")

    def timings(self, rec: Recorder, out: dict) -> dict:
        return {f"{name}_s": rec.seconds(sid) for name, (sid, _) in out.items()}

    def rates(self, t: dict) -> dict:
        return {"sweep_nodes_per_s": self.nodes / sum(t.values())}

    def layers(self, rec: Recorder, out: dict) -> dict:
        own = self_seconds(rec.spans, rec.pass_id)
        metrics = {
            "sweeps.conjectures.self_s": own.get("conjectures", 0.0),
            "sweeps.bench.self_s": own.get("bench", 0.0),
        }
        for name, _fn, _bound, _pruned, nodes in self.plan:
            metrics[f"conjectures.{name}.s"] = rec.seconds(out[name][0])
            metrics[f"conjectures.{name}.nodes"] = nodes
        return metrics

    def finish_traced(self, rec: Recorder, checks: Checks, layer: dict) -> None:
        """The collector walk with a no-op collector, at each sweep's bound
        and pruning, the median of ``rich_repeats`` walks.  A sweep's
        ns/node above it is its collector's cost."""
        total_s = 0.0
        total_nodes = 0
        for name, _fn, bound, pruned, nodes in self.plan:
            times = []
            for i in range(self.sz.rich_repeats):
                rec.pass_id = f"rich{i + 1}"
                with rec.phase(f"bench.rich.{name}") as sid:
                    table = rec.call("tree.enumerate_tree", sf.enumerate_tree,
                                     bound, frobenius_max=bound if pruned else None,
                                     collectors={"noop": NoopCollector})
                walked = sum(table.n_of_g)
                rec.annotate(sid, nodes=walked)
                checks.expect(walked == nodes, f"sweeps: no-op collector walk "
                                               f"for {name} visits {nodes} nodes")
                times.append(rec.seconds(sid))
            seconds = statistics.median(times)
            total_s += seconds
            total_nodes += nodes
            layer[f"conjectures.{name}.visit_ns_per_node"] = \
                (layer[f"conjectures.{name}.s"] - seconds) / nodes * 1e9
        layer["tree.rich.s"] = total_s
        layer["tree.rich.nodes"] = total_nodes
        layer["tree.rich.ns_per_node"] = total_s / total_nodes * 1e9


# ---------------------------------------------------------------------------
# oracle

def _generator_set(rng: random.Random) -> tuple[int, ...]:
    """Multiplicity m uniform in 3..20, then 1 to 5 more generators in
    (m, 3m); gcd 1.  Median genus about 36, with a tail to about 550."""
    while True:
        m = rng.randint(3, 20)
        others = rng.sample(range(m + 1, 3 * m), rng.randint(1, 5))
        gens = tuple(sorted([m] + others))
        if math.gcd(*gens) == 1:
            return gens


def oracle_inputs(seed: int, sz: Sizes):
    """Cell order and generator sets, both drawn from ``seed``."""
    rng = random.Random(seed)
    cells = [(m, g) for g in range(1, sz.kunz_genus + 1) for m in range(2, g + 2)]
    rng.shuffle(cells)
    sets = [_generator_set(rng) for _ in range(sz.semigroups)]
    return cells, sets


def _regap(s):
    return sf.from_gaps(s.gaps())


def _kunz_round_trip(s):
    kv = sf.kunz_vector(s)
    return kv, sf.semigroup_from_kunz(kv.m, kv.coords)


def _inspect(rec: Recorder, gens):
    with rec.span("bench.inspect"):
        s = rec.call("core.from_generators", sf.from_generators, gens)
        record = rec.call("core.to_record", s.to_record)
        weight = rec.call("core.weight_data", s.weight_data)
        tags = rec.call("core.effective_generators", s.effective_generators)
        again = rec.call("core.from_gaps", _regap, s)
        kunz = rec.call("kunz.round_trip", _kunz_round_trip, s)
        wilf = rec.call("conjectures.check_wilf", sf.check_wilf, s)
    return s, record, weight, tags, again, kunz, wilf


class Oracle(Workload):
    name = "oracle"
    seeded = True

    def __init__(self, sizes: Sizes, seed: int):
        self.sz = sizes
        self.cells, self.sets = oracle_inputs(seed, sizes)
        self.bijection = [(m, g) for g in range(1, sizes.bijection_genus + 1)
                          for m in range(3, g + 2) if 2 * g < 3 * m]

    def prepare(self) -> dict:
        """Reference invariants, and a digest showing which work was drawn."""
        self.refs = [ref.reference(gens) for gens in self.sets]
        blob = json.dumps([self.cells, self.sets]).encode()
        return {"digest": hashlib.sha256(blob).hexdigest()[:16],
                "total_gaps": sum(r.genus for r in self.refs)}

    def run_pass(self, rec: Recorder) -> dict:
        out = {}
        with rec.phase("bench.oracle.kunz") as out["kunz"]:
            out["counts"] = [rec.call("kunz.count_by_polytope",
                                      sf.count_by_polytope, m, g)
                             for m, g in self.cells]
        with rec.phase("bench.oracle.bijection") as out["bijection"]:
            out["bij"] = [rec.call("kunz.recurrence_bijection_check",
                                   sf.recurrence_bijection_check, m, g)[0]
                          for m, g in self.bijection]
        with rec.phase("bench.oracle.core") as out["core"]:
            out["inspected"] = [_inspect(rec, gens) for gens in self.sets]
        rec.annotate(out["kunz"], points=sum(out["counts"]), cells=len(self.cells))
        rec.annotate(out["bijection"], cells=len(self.bijection))
        rec.annotate(out["core"], semigroups=len(self.sets))
        return out

    def check(self, out: dict, checks: Checks) -> None:
        rows = [0] * (self.sz.kunz_genus + 1)
        for (_m, g), count in zip(self.cells, out["counts"]):
            rows[g] += count
        pins = ref.genus_row(self.sz.kunz_genus)
        for g in range(1, self.sz.kunz_genus + 1):
            checks.expect(rows[g] == pins[g],
                          f"oracle: Kunz row sum at genus {g} equals A007323")
        for (m, g), ok in zip(self.bijection, out["bij"]):
            checks.expect(ok, f"oracle: truncation bijection at m={m}, g={g}")
        for gens, r, item in zip(self.sets, self.refs, out["inspected"]):
            _check_semigroup(gens, r, item, checks)

    def timings(self, rec: Recorder, out: dict) -> dict:
        return {
            "kunz_s": rec.seconds(out["kunz"]),
            "points": sum(out["counts"]),
            "bijection_s": rec.seconds(out["bijection"]),
            "core_s": rec.seconds(out["core"]),
        }

    def rates(self, t: dict) -> dict:
        return {"points_per_s": t["points"] / t["kunz_s"],
                "semigroups_per_s": len(self.sets) / t["core_s"]}

    def layers(self, rec: Recorder, out: dict) -> dict:
        t = self.timings(rec, out)
        own = self_seconds(rec.spans, rec.pass_id)
        spans = durations(rec.spans, rec.pass_id)
        inspect = spans["bench.inspect"]
        return {
            "kunz.count.s": t["kunz_s"],
            "kunz.points": t["points"],
            "kunz.cells": len(self.cells),
            "kunz.ns_per_point": t["kunz_s"] / t["points"] * 1e9,
            "kunz.bijection.s": t["bijection_s"],
            "kunz.bijection.cells": len(self.bijection),
            "kunz.round_trip.us": _median_us(spans["kunz.round_trip"]),
            "core.from_generators.us": _median_us(spans["core.from_generators"]),
            "core.to_record.us": _median_us(spans["core.to_record"]),
            "core.weight_data.us": _median_us(spans["core.weight_data"]),
            "core.effective_generators.us":
                _median_us(spans["core.effective_generators"]),
            "core.from_gaps.us": _median_us(spans["core.from_gaps"]),
            "core.inspect.p99_us": _p99(inspect) * 1e6,
            "core.semigroups": len(inspect),
            "oracle.kunz.self_s": own.get("kunz", 0.0),
            "oracle.core.self_s": own.get("core", 0.0),
            "oracle.conjectures.self_s": own.get("conjectures", 0.0),
            "oracle.bench.self_s": own.get("bench", 0.0),
        }


def _p99(values: list[float]) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100)[98]


def _check_semigroup(gens, r: ref.Reference, item, checks: Checks) -> None:
    s, record, (weight, ewt, partition), tags, again, (kv, back), wilf = item
    where = f"oracle: generators {list(gens)}"
    checks.expect(s.gaps() == r.gaps and s.min_generators == r.min_generators
                  and s.frobenius == r.frobenius
                  and s.multiplicity == r.multiplicity,
                  f"{where}: from_generators matches the Apéry reference")
    checks.expect(record == {
        "generators": list(r.min_generators), "multiplicity": r.multiplicity,
        "frobenius": r.frobenius, "genus": r.genus, "gaps": list(r.gaps),
        "efficacy": len(r.effective), "weight": r.weight, "ewt": r.ewt,
        "kunz": list(r.kunz)}, f"{where}: to_record matches the reference")
    checks.expect((weight, ewt) == (r.weight, r.ewt)
                  and partition.size == weight + r.genus,
                  f"{where}: weight_data, and partition size == weight + genus")
    strong = dict(r.effective)
    expected = [(n, "not-effective" if n not in strong
                 else "strong" if strong[n] else "weak") for n in r.min_generators]
    checks.expect([(t.value, t.strength.value) for t in tags] == expected,
                  f"{where}: effective_generators and their strengths")
    checks.expect(again == s, f"{where}: from_gaps(gaps()) round trip")
    checks.expect(kv.coords == r.kunz and back == s,
                  f"{where}: kunz_vector / semigroup_from_kunz round trip")
    n = r.frobenius + 1 - r.genus
    e = len(r.min_generators)
    checks.expect(tuple(wilf) == (r.frobenius + 1 <= n * e, r.frobenius + 1, n, e),
                  f"{where}: check_wilf")


WORKLOADS = {"census": Census, "sweeps": Sweeps, "oracle": Oracle}


# ---------------------------------------------------------------------------
# driving the passes

def _one_pass(workload, rec: Recorder, checks: Checks, pass_id, traced: bool):
    """Run, time and check one pass; returns (wall seconds, output) or None."""
    rec.pass_id = pass_id
    rec.traced = traced
    try:
        with rec.phase("bench.pass") as sid:
            out = workload.run_pass(rec)
    except Exception:
        checks.exception(f"{workload.name} pass {pass_id}")
        return None
    finally:
        rec.traced = False
    workload.check(out, checks)
    return rec.seconds(sid), out


def run_timed(workload, sz: Sizes, seconds: float) -> dict:
    """Passes until the next one would overrun ``seconds``, each between two
    runs of the calibration probe."""
    rec = Recorder(workload.name, traced=False)
    checks = Checks()
    walls, scaled, timings = [], [], []
    calib = [calibrate()]
    start = monotonic()
    attempts = 0
    while True:
        attempts += 1
        done = _one_pass(workload, rec, checks, attempts, traced=False)
        wall = None
        if done is not None:
            wall = done[0]
            timings.append(workload.rates(workload.timings(rec, done[1])))
        done = None   # free the pass's outputs before the probe runs
        calib.append(calibrate())
        if wall is not None:
            walls.append(wall)
            scaled.append(at_nominal_speed(wall, calib[-2], calib[-1]))
        elapsed = monotonic() - start
        estimate = statistics.median(walls) if walls else 0.0
        if attempts >= sz.min_passes and elapsed + estimate > seconds:
            break
    rates = {}
    if timings:
        rates = {k: statistics.median(t[k] for t in timings) for k in timings[0]}
    return {
        "walls": walls,
        "scaled_walls": scaled,
        "rates": rates,
        "calib_s": statistics.median(calib),
        "checks": [checks.attempted, checks.failed],
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def run_traced(workload, sz: Sizes, seconds: float, spans_path: str) -> dict:
    """Untraced and traced passes in turn; per-layer metrics from the traced."""
    rec = Recorder(workload.name, traced=False)
    checks = Checks()
    plain, traced, layer_runs = [], [], []
    calib = [calibrate()]
    start = monotonic()
    i = 0
    while True:
        i += 1
        done = _one_pass(workload, rec, checks, f"u{i}", traced=False)
        wall = done and done[0]
        done = None
        calib.append(calibrate())
        if wall:
            plain.append(at_nominal_speed(wall, calib[-2], calib[-1]))
        done = _one_pass(workload, rec, checks, f"t{i}", traced=True)
        wall = done and done[0]
        if done is not None:
            layer_runs.append(workload.layers(rec, done[1]))
        done = None
        calib.append(calibrate())
        if wall:
            traced.append(at_nominal_speed(wall, calib[-2], calib[-1]))
        elapsed = monotonic() - start
        estimate = 2 * statistics.median(plain + traced) if plain or traced else 0.0
        if elapsed + estimate > seconds:
            break
    rec.traced = True
    layer = {}
    if layer_runs:
        layer = {k: _median([run[k] for run in layer_runs])
                 for k in layer_runs[0]}
    try:
        workload.finish_traced(rec, checks, layer)
    except Exception:
        checks.exception(f"{workload.name} traced extras")
    rec.write(spans_path)
    overhead = None
    if plain and traced:
        overhead = statistics.median(traced) / statistics.median(plain) - 1
    return {
        "layer": layer,
        "overhead_frac": overhead,
        "spans": len(rec.spans),
        "calib_s": statistics.median(calib),
        "checks": [checks.attempted, checks.failed],
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--mode", choices=["setup", "timed", "traced"], required=True)
    p.add_argument("--spans", default=None, help="traced mode: spans output path")
    p.add_argument("--smoke", action="store_true")
    args = p.parse_args(argv)
    sz = SMOKE if args.smoke else FULL
    workload = WORKLOADS[args.workload](sz, args.seed)
    if args.mode == "setup":
        # Import and input generation are done: report the clock, which
        # run.py compares with the moment it started this interpreter.
        print(json.dumps({"ready": monotonic()}))
        return 0
    inputs = workload.prepare() if hasattr(workload, "prepare") else {}
    if args.mode == "timed":
        result = run_timed(workload, sz, args.seconds)
    else:
        result = run_traced(workload, sz, args.seconds, args.spans)
    result["inputs"] = inputs
    result["seeded"] = workload.seeded
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
