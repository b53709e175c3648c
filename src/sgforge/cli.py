"""Command-line surface: census tables, single-semigroup records, and
verification sweeps with machine-readable output.  Each ``verify`` name is
an entry of :data:`sgforge.conjectures.SWEEPS`.

Exit codes: 0 success / property holds, 1 usage or input error, 2 a verify
sweep found violations (witnesses are printed as JSON lines).
"""

from __future__ import annotations

import argparse
import io
import json
import os
import stat
import sys
from typing import Sequence

from . import conjectures
from .core import from_generators
from .errors import SemigroupError
from .tree import _counts, enumerate_tree, ns_by_frobenius


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad flags; the verify contract reserves 2 for
    # genuine violations, so usage errors exit 1 instead, with the same one
    # stderr line as every other bad input.
    def error(self, message):
        sys.stderr.write(f"error: {message}\n")
        sys.exit(1)


def _count_parser(sub):
    p = sub.add_parser("count", help="census tables from the tree walk")
    p.add_argument("--max-genus", type=int, required=True, metavar="G")
    p.add_argument("--by", choices=["genus", "multiplicity", "efficacy", "frobenius"],
                   default="genus")
    p.add_argument("--workers", type=int, default=1,
                   help="default 1; N > 1 runs the walk in parallel")
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.add_argument("--output", default=None, metavar="PATH")


def _inspect_parser(sub):
    p = sub.add_parser("inspect", help="full JSON record of one semigroup")
    p.add_argument("generators", type=int, nargs="+")
    p.add_argument("--output", default=None, metavar="PATH")


def _verify_parser(sub):
    p = sub.add_parser("verify", help="run a named verification sweep")
    p.add_argument("name", choices=conjectures.SWEEPS)
    p.add_argument("--max-genus", type=int, default=None, metavar="G",
                   help="sweep bound (Frobenius bound for zhai-lemma)")
    p.add_argument("--workers", type=int, default=1,
                   help="default 1; N > 1 runs the walk in parallel")
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.add_argument("--output", default=None, metavar="PATH")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="sgforge",
                     description="numerical semigroup census and verification")
    sub = parser.add_subparsers(dest="command", required=True)
    _count_parser(sub)
    _inspect_parser(sub)
    _verify_parser(sub)
    return parser


def _render_table(headers: Sequence[str], rows: list[tuple], fmt: str) -> str:
    if fmt == "json":
        objs = [dict(zip(headers, row)) for row in rows]
        return json.dumps(objs) + "\n"
    lines = [",".join(headers)]
    lines.extend(",".join(str(v) for v in row) for row in rows)
    return "\n".join(lines) + "\n"


def _cmd_count(args, out) -> int:
    g_max = args.max_genus
    if g_max < 0:
        raise ValueError("--max-genus must be nonnegative")
    if args.by == "frobenius":
        if g_max < 1:
            raise ValueError("frobenius counts need --max-genus >= 1")
        headers = ["F", "count"]
        rows = sorted(ns_by_frobenius(g_max, workers=args.workers).items())
    elif args.by == "efficacy":
        headers = ["g", "h", "count"]
        rows = enumerate_tree(g_max, workers=args.workers).rows_by_efficacy()
    else:
        nmg = _counts(g_max, workers=args.workers)[0]
        width = g_max + 1
        if args.by == "genus":
            headers = ["genus", "count"]
            rows = [(g, sum(nmg[g::width])) for g in range(width)]
        else:
            headers = ["m", "g", "count"]
            rows = [(*divmod(i, width), c) for i, c in enumerate(nmg) if c]
    out.write(_render_table(headers, rows, args.format))
    return 0


def _cmd_inspect(args, out) -> int:
    sg = from_generators(args.generators)
    record = sg.to_record()
    record["partition"] = list(sg.weight_data()[2].parts)
    wilf = conjectures.check_wilf(sg)
    record["wilf"] = {"holds": wilf.holds, "f_plus_1": wilf.f_plus_1,
                      "n": wilf.n, "e": wilf.e}
    out.write(json.dumps(record) + "\n")
    return 0


def _cmd_verify(args, out) -> int:
    sweep = conjectures.SWEEPS[args.name]
    bound = sweep.default_bound if args.max_genus is None else args.max_genus
    report = sweep.run(bound, args.workers)
    if args.format == "json":
        out.write(json.dumps(report.to_json()) + "\n")
    else:
        rows = sweep.rows(report.stats)
        if rows:
            out.write(_render_table(sweep.headers, rows, "csv"))
        status = "ok" if report.ok else "VIOLATIONS"
        print(f"verify {report.name}: {status} "
              f"({json.dumps(report.params)})", file=sys.stderr)
    if not report.ok:
        for witness in report.violations:
            print(json.dumps(witness))
        return 2
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    commands = {"count": _cmd_count, "inspect": _cmd_inspect,
                "verify": _cmd_verify}
    try:
        # Opened before the walk, so a bad path fails fast; append mode
        # keeps an existing file until the command succeeds, and a file
        # made here goes again if the command fails.
        existed = args.output is not None and os.path.lexists(args.output)
        target = None if args.output is None else \
            open(args.output, "a", newline="")
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    out = sys.stdout if target is None else io.StringIO()
    code = 1
    try:
        status = commands[args.command](args, out)
        if target is not None:
            # Only a regular file can be truncated; seekable() is also
            # True for /dev/null and /dev/full.
            if stat.S_ISREG(os.fstat(target.fileno()).st_mode):
                target.truncate(0)
            target.write(out.getvalue())
            target.flush()
        code = status
    except (SemigroupError, OSError, ValueError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
    finally:
        if target is not None:
            try:
                target.close()
            except OSError:     # the failed flush, reported above
                pass
            if code == 1 and not existed:
                os.remove(args.output)
    return code


if __name__ == "__main__":
    sys.exit(main())
