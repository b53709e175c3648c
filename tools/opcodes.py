"""Count the bytecodes that the tree walks execute, on two source trees.

    python3 tools/opcodes.py OLD/src NEW/src [--smoke]

Each tree runs in a fresh side process with ``PYTHONPATH`` set to it, both
sides at once; a side whose ``sgforge`` fails to import, or comes from
elsewhere, fails the run.  A side makes a fixed set of calls, each with
``workers=1`` so that every batch runs in that process (``--smoke`` sizes
in parentheses):

- ``enumerate_tree(16)`` (9), the census walk with its folded leaf block;
- ``ns_by_frobenius(20)`` (10), the spine and then the count-only walk;
- ``pflueger_sweep(14)`` (8), the collector walk through ``collect``.

A ``sys.settrace`` tracer with ``f_trace_opcodes`` set counts one event
per bytecode executed in a frame of ``sgforge.tree._walk``,
``sgforge.tree._count_walk`` or ``sgforge.tree._spine`` (which builds and
tallies the spine nodes that ``_walk`` once built), and none elsewhere:
a function that such a frame calls counts only if it is one of the three.
The counts depend on the Python version but not on the host's speed, so
they compare two trees whose timings differ by less than the noise.

It prints, per call and function, both counts and the relative change,
then the three functions' total, and exits 1 only if a side fails.  A
function that one tree lacks counts as missing.  Needs only the standard
library.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from functools import partial
from pathlib import Path

FUNCTIONS = ("_walk", "_count_walk", "_spine")
# (label, module attribute, full size, smoke size)
CALLS = (("enumerate_tree", "enumerate_tree", 16, 9),
         ("ns_by_frobenius", "ns_by_frobenius", 20, 10),
         ("pflueger_sweep", "pflueger_sweep", 14, 8))


def side_counts(smoke: bool):
    """Yield (call, {function: opcodes}) for every call, in this tree."""
    import sgforge as sf
    from sgforge import tree

    src = Path(os.environ["PYTHONPATH"]).resolve()
    if Path(sf.__file__).resolve().parents[1] != src:
        raise ImportError(f"sgforge came from {sf.__file__}, not {src}")
    names = {getattr(tree, name).__code__: name for name in FUNCTIONS
             if hasattr(tree, name)}
    tally = {}

    def tracer(frame, event, arg):
        name = names.get(frame.f_code)
        if name is None:
            return None
        frame.f_trace_opcodes = True
        frame.f_trace_lines = False

        def local(frame, event, arg):
            if event == "opcode":
                tally[name] += 1
            return local
        return local

    for label, attr, full, small in CALLS:
        size = small if smoke else full
        tally.clear()
        tally.update(dict.fromkeys(names.values(), 0))
        call = getattr(sf, attr)
        sys.settrace(tracer)
        try:
            call(size, workers=1)
        finally:
            sys.settrace(None)
        yield f"{label}({size})", dict(tally)


def run_side(src: str, smoke: bool) -> dict[str, dict[str, int]]:
    """{call: {function: opcodes}} from a fresh process that imports
    ``src``."""
    env = dict(os.environ, PYTHONPATH=src)
    cmd = [sys.executable, __file__, "--side"] + ["--smoke"] * smoke
    proc = subprocess.run(cmd, capture_output=True, text=True, env=env)
    if proc.returncode != 0:
        raise RuntimeError(f"{src}: exit {proc.returncode}\n{proc.stderr}")
    return dict(map(json.loads, proc.stdout.splitlines()))


def main(argv: list[str]) -> int:
    smoke = "--smoke" in argv
    args = [a for a in argv if a != "--smoke"]
    if args == ["--side"]:
        for call, counts in side_counts(smoke):
            print(json.dumps([call, counts]))
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
    print(f"{'call':<22} {'function':<12} {'old':>12} {'new':>12}  change")
    for call in old:
        mine, theirs = old[call], new.get(call, {})
        rows = [(name, mine.get(name), theirs.get(name)) for name in FUNCTIONS]
        rows.append(("total", sum(mine.values()), sum(theirs.values())))
        for name, a, b in rows:
            if a is None and b is None:
                continue
            change = (f"{(b - a) / a:+.1%}" if a and b is not None
                      else "n/a")
            print(f"{call:<22} {name:<12} "
                  f"{'missing' if a is None else f'{a:,}':>12} "
                  f"{'missing' if b is None else f'{b:,}':>12}  {change}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
