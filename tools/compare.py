"""Hash a fixed set of library results and CLI runs on two source trees and
report every case whose hash differs.

    python3 tools/compare.py OLD/src NEW/src [--smoke]

Each tree runs in a fresh side process with ``PYTHONPATH`` set to it, both
sides at once; a side whose ``sgforge`` fails to import, or comes from
elsewhere, fails the run.  A case is one of (``--smoke`` sizes in
parentheses):

- one counter or witness list of ``enumerate_tree(g, frobenius_max=F,
  workers=w)``, for g in 0..16 (0..9), F unbounded and F <= 1, 3 and
  2g + 1, and w = 1 and 2;
- ``ns_by_frobenius(F, workers=w)`` for F on the same range as g, and
  w = 1 and 2, or what it raises there;
- the public state of one stock collector (strong classes,
  ordinarization, Buchweitz, effective weight and concentration, all five
  in one walk) from ``enumerate_tree(...).extras`` and from ``collect``,
  on the same grid but g <= 12 (<= 9), and one counter or witness list of
  that ``enumerate_tree`` table: collectors make the walk build every
  node, so these cases check the tally block that visits the last layer,
  and the first cases the block that a run without collectors folds it
  into;
- the ``to_json()`` bytes and the ``repr()`` of the report of every
  ``sgforge verify`` sweep and of ``bounds_sweep``, at bounds 2, 9 and 14
  (2 and 9) with ``workers`` 1 and 2, or what a sweep raises there;
- the ``repr()`` of ``strongly_descended_census(enumerate_tree(g))`` on
  the first grid, and of ``weight_data()`` and ``kunz_vector()`` of a few
  fixed semigroups, so a change of record type shows;
- the ``repr()`` of ``to_record``, ``weight_data``,
  ``effective_generators``, ``gaps``, ``kunz_vector``, ``check_wilf`` and
  ``to_record`` again, called in turn on one instance of each of those
  semigroups, so the later calls read what the earlier ones cached;
- the exit code, stdout and stderr of ``python -m sgforge.cli ARGV`` in a
  fresh process, named ``cli ARGV``: every verify name in csv and json at
  ``--max-genus`` 2, 3 and 9 (2 and 9) with no ``--workers``, 1 and 2;
  every name at ``--max-genus`` -1, 0 and 1 and at ``--workers 0``; the
  default bound in csv and json for every name but the slow ``wilf`` and
  ``bras-amoros`` (none); ``verify --help``, ``--help``, an unknown name
  and a bare ``verify``; ``inspect`` on five generator sets up to
  <20, 59> (genus 551), a set with gcd 2 and one holding 0; every
  ``count --by`` in csv and json at ``--max-genus`` 0, 1, 2, 9, 16 and 20
  (0, 2 and 9) with ``--workers`` 1 and 2; and ``count`` at
  ``--max-genus -1`` for each ``--by``, at ``--workers 0`` and at a genus
  too large to allocate.

It prints one SHA-256 per case and the number of cases that differ, and
exits 1 if any does.  A differing case shows both digests and, for a CLI
case, both exit codes, the first 120 bytes of stdout and the first 200 of
stderr.  Needs only the standard library.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from functools import partial
from pathlib import Path

COUNTERS = ("n_mg_flat", "t_gh_flat", "s_gh_flat", "f_lt_2m", "f_lt_3m",
            "ns_flat", "wilf_violations", "wilf_witnesses", "frobenius_cap",
            "pruned")
# The public fields each stock collector has had since before ``collect``.
COLLECTORS = {
    "strong": ("StrongClassCollector", ("classes",)),
    "ordinarization": ("OrdinarizationCollector", ("counts",)),
    "buchweitz": ("BuchweitzCollector", ("failures", "witnesses")),
    "ewt": ("EwtMaxCollector", ("max_by_genus", "argmax")),
    "concentration": ("ConcentrationCollector", ("eps", "a_band")),
}


# Generator sets of the semigroups whose records are compared by repr.
SEMIGROUPS = ((1,), (2, 3), (3, 5, 7), (4, 6, 9), (5, 7, 9, 11), (6, 9, 20),
              (7, 8, 9, 10, 11, 12, 13))

NAMES = ("wilf", "ye", "bras-amoros", "ordinarization", "pflueger",
         "zhai-lemma", "kunz-oracle", "recurrence", "buchweitz")
SLOW_DEFAULTS = ("wilf", "bras-amoros")
INSPECT_SETS = ("1", "2 5", "3 5 7", "6 9 20", "20 59", "4 6", "0 3")
COUNT_BYS = ("genus", "multiplicity", "efficacy", "frobenius")


def grid(smoke: bool) -> dict:
    return {"genera": range(10 if smoke else 17),
            "collector_genera": range(10 if smoke else 13),
            "sweep_bounds": (2, 9) if smoke else (2, 9, 14),
            "verify_bounds": ("2", "9") if smoke else ("2", "3", "9"),
            "count_bounds": ("0", "2", "9") if smoke else
                            ("0", "1", "2", "9", "16", "20")}


def cases(smoke: bool) -> list[list[str]]:
    """The argv of every CLI case."""
    sizes = grid(smoke)
    out = []
    for name in NAMES:
        for fmt in ("csv", "json"):
            for bound in sizes["verify_bounds"]:
                for knob in ([], ["--workers", "1"], ["--workers", "2"]):
                    out.append(["verify", name, "--format", fmt,
                                "--max-genus", bound, *knob])
    for name in NAMES:
        for bound in ("-1", "0", "1"):
            out.append(["verify", name, "--max-genus", bound])
        out.append(["verify", name, "--workers", "0"])
    for name in NAMES:
        if name not in SLOW_DEFAULTS and not smoke:
            for fmt in ("csv", "json"):
                out.append(["verify", name, "--format", fmt])
    out += [["verify", "--help"], ["--help"], ["verify", "nosuch"],
            ["verify"]]
    out += [["inspect", *gens.split()] for gens in INSPECT_SETS]
    for by in COUNT_BYS:
        for fmt in ("csv", "json"):
            for bound in sizes["count_bounds"]:
                for workers in ("1", "2"):
                    out.append(["count", "--by", by, "--format", fmt,
                                "--max-genus", bound, "--workers", workers])
    out += [["count", "--by", by, "--max-genus", "-1"] for by in COUNT_BYS]
    out += [["count", "--max-genus", "3", "--workers", "0"],
            ["count", "--max-genus", "9" * 20]]
    return out


def canonical(value) -> str:
    """A repr that does not depend on dict insertion order."""
    if isinstance(value, dict):
        items = sorted((canonical(k), canonical(v)) for k, v in value.items())
        return "{" + ", ".join(f"{k}: {v}" for k, v in items) + "}"
    if isinstance(value, (list, tuple)):
        inner = ", ".join(canonical(v) for v in value)
        return f"[{inner}]" if isinstance(value, list) else f"({inner})"
    return repr(value)


def shown(call) -> str:
    """``repr(call())``, or the type and message of what it raises."""
    try:
        return repr(call())
    except Exception as exc:        # compared like a result
        return f"{type(exc).__name__}: {exc}"


def frobenius_bounds(g: int) -> tuple:
    return (None, 1, 3, 2 * g + 1)


def side_cases(smoke: bool):
    """Yield (case, text, preview) for every case, in this tree; the
    preview is empty but for CLI cases."""
    import sgforge as sf
    from sgforge import conjectures

    src = Path(os.environ["PYTHONPATH"]).resolve()
    if Path(sf.__file__).resolve().parents[1] != src:
        raise ImportError(f"sgforge came from {sf.__file__}, not {src}")
    sizes = grid(smoke)
    for g in sizes["genera"]:
        for f_max in frobenius_bounds(g):
            for workers in (1, 2):
                table = sf.enumerate_tree(g, frobenius_max=f_max,
                                          workers=workers)
                for name in COUNTERS:
                    yield (f"enumerate_tree g={g} F={f_max} w={workers} "
                           f"{name}", canonical(getattr(table, name)), "")
        for workers in (1, 2):
            yield (f"ns_by_frobenius F={g} w={workers}",
                   shown(lambda: sf.ns_by_frobenius(g, workers=workers)), "")
        yield (f"strongly_descended_census g={g}",
               shown(lambda: sf.strongly_descended_census(
                   sf.enumerate_tree(g))), "")
    for gens in SEMIGROUPS:
        sg = sf.from_generators(gens)
        yield f"weight_data {gens}", shown(sg.weight_data), ""
        yield f"kunz_vector {gens}", shown(lambda: sf.kunz_vector(sg)), ""
        warm = sf.from_generators(gens)
        calls = (warm.to_record, warm.weight_data, warm.effective_generators,
                 warm.gaps, lambda: sf.kunz_vector(warm),
                 lambda: sf.check_wilf(warm), warm.to_record)
        yield f"warm {gens}", repr([shown(call) for call in calls]), ""
    stock = {name: getattr(conjectures, cls) for name, (cls, _)
             in COLLECTORS.items()}
    stock["concentration"] = partial(stock["concentration"], 0.5)
    for g in sizes["collector_genera"]:
        for f_max in frobenius_bounds(g):
            for workers in (1, 2):
                table = sf.enumerate_tree(g, frobenius_max=f_max,
                                          workers=workers, collectors=stock)
                for name in COUNTERS:
                    yield (f"collectors g={g} F={f_max} w={workers} {name}",
                           canonical(getattr(table, name)), "")
                extras = table.extras
                found = sf.collect(g, stock, frobenius_max=f_max,
                                   workers=workers)
                for via, colls in (("extras", extras), ("collect", found)):
                    for name, (_, fields) in COLLECTORS.items():
                        state = {k: getattr(colls[name], k) for k in fields}
                        yield (f"{via} g={g} F={f_max} w={workers} {name}",
                               canonical(state), "")
    sweeps = {name: sweep.run for name, sweep in conjectures.SWEEPS.items()}
    sweeps["bounds"] = lambda b, w: sf.bounds_sweep(b)
    for name, run in sweeps.items():
        for bound in sizes["sweep_bounds"]:
            for workers in (1, 2):
                case = f"sweep {name} bound={bound} w={workers}"
                try:
                    report = run(bound, workers)
                except Exception as exc:    # compared like a result
                    yield case, f"{type(exc).__name__}: {exc}", ""
                    continue
                yield case, json.dumps(report.to_json()), ""
                yield f"{case} repr", repr(report), ""
    for argv in cases(smoke):
        # Run in the tree, which ``-m`` puts first on sys.path.
        proc = subprocess.run([sys.executable, "-m", "sgforge.cli", *argv],
                              capture_output=True, cwd=src)
        code, out, err = proc.returncode, proc.stdout, proc.stderr
        yield (f"cli {' '.join(argv)}", repr((code, out, err)),
               f"exit {code}, stdout {out[:120]!r}, stderr {err[:200]!r}")


def run_side(src: str, smoke: bool) -> dict[str, tuple[str, str]]:
    """{case: (sha256, preview)} from a fresh process that imports ``src``."""
    env = dict(os.environ, PYTHONPATH=src)
    cmd = [sys.executable, __file__, "--side"] + ["--smoke"] * smoke
    proc = subprocess.run(cmd, capture_output=True, text=True, env=env)
    if proc.returncode != 0:
        raise RuntimeError(f"{src}: exit {proc.returncode}\n{proc.stderr}")
    lines = map(json.loads, proc.stdout.splitlines())
    return {case: (digest, preview) for case, digest, preview in lines}


def main(argv: list[str]) -> int:
    smoke = "--smoke" in argv
    args = [a for a in argv if a != "--smoke"]
    if args == ["--side"]:
        for case, text, preview in side_cases(smoke):
            digest = hashlib.sha256(text.encode()).hexdigest()
            print(json.dumps([case, digest, preview]))
        return 0
    if len(args) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 1
    try:
        with ThreadPoolExecutor(2) as pool:
            old, new = pool.map(partial(run_side, smoke=smoke), args)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    differ = 0
    for case in sorted(old.keys() | new.keys()):
        a, b = old.get(case), new.get(case)
        if a == b:
            print(f"{a[0]}  {case}")
        else:
            differ += 1
            print(f"differs: {case}")
            for label, side in (("old", a), ("new", b)):
                print(f"  {label} " + ("missing" if side is None
                                       else " ".join(side).rstrip()))
    print(f"{len(old.keys() | new.keys())} cases, {differ} differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
