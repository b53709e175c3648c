"""Command-line surface: census tables, single-semigroup records, and
verification sweeps with machine-readable output.

Exit codes: 0 success / property holds, 1 usage or input error, 2 a verify
sweep found violations (witnesses are printed as JSON lines).
"""

from __future__ import annotations

import argparse
import json
import sys

from . import conjectures
from .core import from_generators
from .errors import SemigroupError
from .tree import enumerate_tree, ns_by_frobenius


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad flags; the verify contract reserves 2 for
    # genuine violations, so usage errors exit 1 instead.
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
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


VERIFY_NAMES = ["wilf", "ye", "bras-amoros", "ordinarization", "pflueger",
                "zhai-lemma", "kunz-oracle", "recurrence", "buchweitz"]

# Sweeps without a parallel path; they reject --workers.
_SEQUENTIAL_SWEEPS = ("zhai-lemma", "kunz-oracle", "recurrence")

_VERIFY_DEFAULT_RANGE = {
    "wilf": 30,
    "ye": 20,
    "bras-amoros": 30,
    "ordinarization": 18,
    "pflueger": 25,
    "zhai-lemma": 20,      # interpreted as the Frobenius bound
    "kunz-oracle": 15,
    "recurrence": 18,
    "buchweitz": 16,
}


def _verify_parser(sub):
    p = sub.add_parser("verify", help="run a named verification sweep")
    p.add_argument("name", choices=VERIFY_NAMES)
    p.add_argument("--max-genus", type=int, default=None, metavar="G",
                   help="sweep bound (Frobenius bound for zhai-lemma)")
    # None tells an explicit --workers apart from the default of 1.
    p.add_argument("--workers", type=int, default=None,
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


def _emit(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", newline="") as fh:
            fh.write(text)


def _render_table(headers: list[str], rows: list[tuple], fmt: str) -> str:
    if fmt == "json":
        objs = [dict(zip(headers, row)) for row in rows]
        return json.dumps(objs) + "\n"
    lines = [",".join(headers)]
    lines.extend(",".join(str(v) for v in row) for row in rows)
    return "\n".join(lines) + "\n"


def _cmd_count(args) -> int:
    g_max = args.max_genus
    if g_max < 0:
        print("error: --max-genus must be nonnegative", file=sys.stderr)
        return 1
    if args.by == "frobenius":
        if g_max < 1:
            print("error: frobenius counts need --max-genus >= 1", file=sys.stderr)
            return 1
        counts = ns_by_frobenius(g_max, workers=args.workers)
        rows = sorted(counts.items())
        text = _render_table(["F", "count"], rows, args.format)
    else:
        table = enumerate_tree(g_max, workers=args.workers)
        if args.by == "genus":
            text = _render_table(["genus", "count"], table.rows_by_genus(),
                                 args.format)
        elif args.by == "multiplicity":
            text = _render_table(["m", "g", "count"],
                                 table.rows_by_multiplicity(), args.format)
        else:
            text = _render_table(["g", "h", "count"],
                                 table.rows_by_efficacy(), args.format)
    _emit(text, args.output)
    return 0


def _cmd_inspect(args) -> int:
    sg = from_generators(args.generators)
    record = sg.to_record()
    weight, ewt, partition = sg.weight_data()
    record["partition"] = list(partition.parts)
    wilf = conjectures.check_wilf(sg)
    record["wilf"] = {"holds": wilf.holds, "f_plus_1": wilf.f_plus_1,
                      "n": wilf.n, "e": wilf.e}
    _emit(json.dumps(record) + "\n", args.output)
    return 0


def _run_verify(name: str, bound: int, workers: int):
    if name == "wilf":
        return conjectures.wilf_sweep(bound, workers=workers)
    if name == "ye":
        return conjectures.ye_sweep(bound, workers=workers)
    if name == "bras-amoros":
        return conjectures.ratio_report(enumerate_tree(bound, workers=workers))
    if name == "ordinarization":
        return conjectures.ordinarization_sweep(bound, workers=workers)
    if name == "pflueger":
        return conjectures.pflueger_sweep(bound, workers=workers)
    if name == "zhai-lemma":
        return conjectures.zhai_sweep(bound)
    if name == "kunz-oracle":
        return conjectures.kunz_oracle_sweep(bound)
    if name == "recurrence":
        return conjectures.recurrence_sweep(bound, min(bound, 15))
    return conjectures.buchweitz_sweep(bound, workers=workers)


def _report_rows(report) -> tuple[list[str], list[tuple]]:
    # Tabular side-channel for the sweeps that have a natural table.
    stats = report.stats
    if report.name == "bras-amoros":
        return ["g", "fib_ratio", "phi_ratio"], [
            (g, f"{a:.6f}", f"{b:.6f}") for g, a, b in stats.get("rows", [])
        ]
    if report.name == "pflueger":
        return ["g", "max_ewt", "bound"], stats.get("rows", [])
    if report.name == "ordinarization":
        return ["g", "r", "count"], stats.get("rows", [])
    if report.name == "wilf":
        return ["g", "violations"], stats.get("rows", [])
    if report.name == "kunz-oracle":
        return ["m", "g", "count_polytope", "count_tree", "match"], \
            stats.get("rows", [])
    if report.name == "buchweitz":
        totals = stats.get("totals", {})
        failures = stats.get("failures", {})
        return ["g", "failures", "total"], [
            (g, failures.get(g, 0), totals[g]) for g in sorted(totals)
        ]
    return [], []


def _cmd_verify(args) -> int:
    if args.name in _SEQUENTIAL_SWEEPS and args.workers is not None:
        raise ValueError(f"verify {args.name} runs sequentially and takes "
                         "no --workers")
    workers = 1 if args.workers is None else args.workers
    bound = args.max_genus if args.max_genus is not None \
        else _VERIFY_DEFAULT_RANGE[args.name]
    report = _run_verify(args.name, bound, workers)
    if args.format == "json":
        _emit(json.dumps(report.to_json()) + "\n", args.output)
    else:
        headers, rows = _report_rows(report)
        if rows:
            _emit(_render_table(headers, rows, "csv"), args.output)
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
        return commands[args.command](args)
    except (SemigroupError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
