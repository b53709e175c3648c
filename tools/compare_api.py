"""Hash a fixed set of library results on two source trees and report every
case whose hash differs: the library-level twin of ``compare_cli.py``.

    python3 tools/compare_api.py OLD/src NEW/src [--smoke]

Each tree is imported in a fresh process with ``PYTHONPATH`` set to it.
A case is one of:

- one counter or witness list of ``enumerate_tree(g, frobenius_max=F,
  workers=w)``, for g in 0..16 (0..9 with ``--smoke``), F unbounded and
  F <= 1, 3 and 2g + 1, and w = 1 and 2;
- the public state of one stock collector (strong classes,
  ordinarization, Buchweitz, effective weight and concentration, all five
  in one walk) from ``enumerate_tree(...).extras`` and from ``collect``,
  on the same grid but g <= 12 (<= 9); a tree without ``collect``
  answers with ``enumerate_tree(...).extras``, which ``collect`` must
  equal;
- the ``to_json()`` bytes and the ``repr()`` of the report of every
  ``sgforge verify`` sweep and of ``bounds_sweep``, at bounds 2, 9 and 14
  (2 and 9) with ``workers`` 1 and 2, or the type and message of what a
  sweep raises there;
- the ``repr()`` of ``strongly_descended_census(enumerate_tree(g))`` on
  the first grid, and of ``weight_data()`` and ``kunz_vector()`` of a few
  fixed semigroups, so a change of record type that changes a repr
  shows.

It prints one SHA-256 per case (both, when they differ) and the number of
cases that differ, and exits 1 if any does.  Needs only the standard
library.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from functools import partial

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


def grid(smoke: bool) -> dict:
    return {"genera": range(10 if smoke else 17),
            "collector_genera": range(10 if smoke else 13),
            "sweep_bounds": (2, 9) if smoke else (2, 9, 14)}


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
    """Yield (case, text) for every case, in this tree."""
    import sgforge as sf
    from sgforge import conjectures

    sizes = grid(smoke)
    for g in sizes["genera"]:
        for f_max in frobenius_bounds(g):
            for workers in (1, 2):
                table = sf.enumerate_tree(g, frobenius_max=f_max,
                                          workers=workers)
                for name in COUNTERS:
                    yield (f"enumerate_tree g={g} F={f_max} w={workers} "
                           f"{name}", canonical(getattr(table, name)))
        yield (f"strongly_descended_census g={g}",
               shown(lambda: sf.strongly_descended_census(
                   sf.enumerate_tree(g))))
    for gens in SEMIGROUPS:
        sg = sf.from_generators(gens)
        yield f"weight_data {gens}", shown(sg.weight_data)
        yield f"kunz_vector {gens}", shown(lambda: sf.kunz_vector(sg))
    stock = {name: getattr(conjectures, cls) for name, (cls, _)
             in COLLECTORS.items()}
    stock["concentration"] = partial(stock["concentration"], 0.5)
    collect = getattr(sf, "collect", None)
    for g in sizes["collector_genera"]:
        for f_max in frobenius_bounds(g):
            for workers in (1, 2):
                extras = sf.enumerate_tree(g, frobenius_max=f_max,
                                           workers=workers,
                                           collectors=stock).extras
                found = extras if collect is None else \
                    collect(g, stock, frobenius_max=f_max, workers=workers)
                for via, colls in (("extras", extras), ("collect", found)):
                    for name, (_, fields) in COLLECTORS.items():
                        state = {k: getattr(colls[name], k) for k in fields}
                        yield (f"{via} g={g} F={f_max} w={workers} {name}",
                               canonical(state))
    sweeps = {name: sweep.run for name, sweep in conjectures.SWEEPS.items()}
    sweeps["bounds"] = lambda b, w: sf.bounds_sweep(b)
    for name, run in sweeps.items():
        for bound in sizes["sweep_bounds"]:
            for workers in (1, 2):
                case = f"sweep {name} bound={bound} w={workers}"
                try:
                    report = run(bound, workers)
                except Exception as exc:    # compared like a result
                    yield case, f"{type(exc).__name__}: {exc}"
                    continue
                yield case, json.dumps(report.to_json())
                yield f"{case} repr", repr(report)


def run_side(src: str, smoke: bool) -> dict[str, str]:
    """{case: sha256} from a fresh process that imports ``src``."""
    env = dict(os.environ, PYTHONPATH=src)
    cmd = [sys.executable, __file__, "--side"] + ["--smoke"] * smoke
    proc = subprocess.run(cmd, capture_output=True, text=True, env=env)
    if proc.returncode != 0:
        raise RuntimeError(f"{src}: exit {proc.returncode}\n{proc.stderr}")
    return dict(line.split(" ", 1)[::-1]
                for line in proc.stdout.splitlines())


def main(argv: list[str]) -> int:
    smoke = "--smoke" in argv
    args = [a for a in argv if a != "--smoke"]
    if args == ["--side"]:
        for case, text in side_cases(smoke):
            digest = hashlib.sha256(text.encode()).hexdigest()
            print(f"{digest} {case}")
        return 0
    if len(args) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 1
    try:
        old, new = (run_side(src, smoke) for src in args)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    differ = 0
    for case in sorted(old.keys() | new.keys()):
        a, b = old.get(case), new.get(case)
        if a == b:
            print(f"{a}  {case}")
        else:
            differ += 1
            print(f"differs: {case}\n  old {a}\n  new {b}")
    print(f"{len(old.keys() | new.keys())} cases, {differ} differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
