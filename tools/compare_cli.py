"""Run a fixed set of ``sgforge verify``, ``inspect`` and ``count`` cases
on two source trees and report every case whose stdout, stderr or exit
code differs.

    python3 tools/compare_cli.py OLD/src NEW/src

Each case runs ``python -m sgforge.cli`` in a fresh process with
``PYTHONPATH`` set to one tree.  The 309 cases are every verify name in
csv and json at ``--max-genus`` 2, 3 and 9, with no ``--workers``, with 1
and with 2 (every name takes ``--workers``, and the three should print
the same); every name at ``--max-genus`` -1, 0 and 1 and with
``--workers 0``, which every name rejects; the default bound in csv and json for every name but
``wilf`` and ``bras-amoros``, whose genus-30 walks take tens of seconds;
``verify --help``, ``--help``, an unknown name and a bare ``verify``;
``inspect`` on five generator sets from the trivial semigroup to
<20, 59> (genus 551), a set with gcd 2 and a set holding 0; every
``count --by`` in csv and json at ``--max-genus`` 0, 1, 2, 9 and 16 with
``--workers`` 1 and 2; and ``count`` with each ``--by`` at
``--max-genus -1``, with ``--workers 0`` and with a genus too large to
allocate.  Runs two cases at a time.  Exits 1 if any case differs.  Needs only the
standard library.
"""

from __future__ import annotations

import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor

NAMES = ("wilf", "ye", "bras-amoros", "ordinarization", "pflueger",
         "zhai-lemma", "kunz-oracle", "recurrence", "buchweitz")
SLOW_DEFAULTS = ("wilf", "bras-amoros")
INSPECT_SETS = ("1", "2 5", "3 5 7", "6 9 20", "20 59", "4 6", "0 3")
COUNT_BYS = ("genus", "multiplicity", "efficacy", "frobenius")


def cases() -> list[list[str]]:
    out = []
    for name in NAMES:
        for fmt in ("csv", "json"):
            for bound in ("2", "3", "9"):
                for knob in ([], ["--workers", "1"], ["--workers", "2"]):
                    out.append(["verify", name, "--format", fmt,
                                "--max-genus", bound, *knob])
    for name in NAMES:
        for bound in ("-1", "0", "1"):
            out.append(["verify", name, "--max-genus", bound])
        out.append(["verify", name, "--workers", "0"])
    for name in NAMES:
        if name not in SLOW_DEFAULTS:
            for fmt in ("csv", "json"):
                out.append(["verify", name, "--format", fmt])
    out += [["verify", "--help"], ["--help"], ["verify", "nosuch"],
            ["verify"]]
    out += [["inspect", *gens.split()] for gens in INSPECT_SETS]
    for by in COUNT_BYS:
        for fmt in ("csv", "json"):
            for bound in ("0", "1", "2", "9", "16"):
                for workers in ("1", "2"):
                    out.append(["count", "--by", by, "--format", fmt,
                                "--max-genus", bound, "--workers", workers])
    out += [["count", "--by", by, "--max-genus", "-1"] for by in COUNT_BYS]
    out += [["count", "--max-genus", "3", "--workers", "0"],
            ["count", "--max-genus", "9" * 20]]
    return out


def run(src: str, argv: list[str]) -> tuple[int, bytes, bytes]:
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-m", "sgforge.cli", *argv],
                          capture_output=True, env=env)
    return proc.returncode, proc.stdout, proc.stderr


def main() -> int:
    if len(sys.argv) != 3:
        print(__doc__.strip(), file=sys.stderr)
        return 1
    old, new = sys.argv[1:]
    todo = cases()
    differ = 0
    with ThreadPoolExecutor(2) as pool:
        pairs = pool.map(lambda argv: (run(old, argv), run(new, argv)), todo)
        for argv, (a, b) in zip(todo, pairs):
            if a != b:
                differ += 1
                print("differs:", " ".join(argv))
                for label, (code, out, err) in (("old", a), ("new", b)):
                    print(f"  {label}: exit {code}, stdout {out[:120]!r}, "
                          f"stderr {err[:200]!r}")
    print(f"{len(todo)} cases, {differ} differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
