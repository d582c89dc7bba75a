"""Command-line frontend.

Subcommands: check (applicability and class group), zeta (elementary
solution for a prime), solve (enumerate solutions for a hypotenuse),
count, factor (zeta factorization of a group element), mul (product of
two solutions), table (solution table over a range of hypotenuses), and
verify (brute-force cross-check sweep).

Every command takes D first, then its own integers. Output is plain
decimal in one of three formats (--format human|json|csv) and is
byte-identical across runs. Exit codes: 0 success, 1 usage error,
2 domain error (and a failed verify sweep).
"""

from __future__ import annotations

import argparse
import csv
import json
import sys

from .gdgroup import NormalizedSolution, make_element
from .oracle import sweep_csv_rows, verify_sweep
from .quadform import enumerate_class_group
from .solutions import (
    check_applicability,
    count_solutions,
    describe_solutions,
    factor_element,
    multiply_solutions,
    require_applicable,
    zeta,
)

USAGE_ERROR = 1
DOMAIN_ERROR = 2


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on bad usage by default; 2 is reserved for domain
    errors here, so usage problems exit 1 instead."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(USAGE_ERROR, f"{self.prog}: error: {message}\n")


def _csv_writer():
    return csv.writer(sys.stdout, lineterminator="\n")


def _print_json(payload: dict) -> None:
    print(json.dumps(payload, indent=2))


def _format_factorization(fact: dict) -> str:
    """A {"sign", "terms"} factorization as sign * zeta_p^e * ..."""
    if not fact["terms"]:
        return str(fact["sign"])
    body = " * ".join(f"zeta_{p}^{e}" for p, e in fact["terms"])
    return f"-{body}" if fact["sign"] < 0 else body


def _pack_terms(fact: dict) -> str:
    """A {"sign", "terms"} factorization's terms as p^e;p^e;..."""
    return ";".join(f"{p}^{e}" for p, e in fact["terms"])


def _cmd_check(args) -> int:
    verdict = check_applicability(args.D)
    descriptor = enumerate_class_group(-4 * args.D)
    if args.format == "json":
        _print_json(
            {
                "D": args.D,
                "applicable": verdict.applicable,
                "reason": verdict.reason,
                "class_group": descriptor.to_json_dict(),
            }
        )
    elif args.format == "csv":
        writer = _csv_writer()
        writer.writerow(["D", "applicable", "class_number", "free_z2", "reason"])
        writer.writerow(
            [
                args.D,
                str(verdict.applicable).lower(),
                descriptor.class_number,
                str(descriptor.is_free_z2).lower(),
                verdict.reason or "",
            ]
        )
    else:
        print(f"D = {args.D} (discriminant {descriptor.K})")
        status = "yes" if verdict.applicable else f"no ({verdict.reason})"
        print(f"applicable: {status}")
        print(f"class number: {descriptor.class_number}")
        print(f"free Z2-module: {'yes' if descriptor.is_free_z2 else 'no'}")
        print("reduced forms:")
        width = max(len(str(f)) for f in descriptor.reduced_forms)
        for f in descriptor.reduced_forms:
            print(f"  {str(f):<{width}}  order {descriptor.orders[f]}")
    return 0


def _cmd_zeta(args) -> int:
    zf = zeta(args.D, args.p)
    if args.format == "json":
        _print_json({"D": zf.D, "p": zf.p, "x0": zf.x0, "y0": zf.y0})
    elif args.format == "csv":
        writer = _csv_writer()
        writer.writerow(["D", "p", "x0", "y0"])
        writer.writerow([zf.D, zf.p, zf.x0, zf.y0])
    else:
        print(f"zeta_{zf.p} = ({zf.x0} + {zf.y0}*sqrt(-{zf.D}))/{zf.p}")
    return 0


def _solution_csv_row(writer, report: dict) -> None:
    for entry in report["solutions"]:
        fact = entry["factorization"]
        writer.writerow(
            [
                report["D"],
                report["c"],
                entry["a"],
                entry["b"],
                fact["sign"],
                _pack_terms(fact),
            ]
        )


def _cmd_solve(args) -> int:
    report = describe_solutions(args.D, args.c)
    if args.format == "json":
        _print_json(report)
    elif args.format == "csv":
        writer = _csv_writer()
        writer.writerow(["D", "c", "a", "b", "sign", "factorization"])
        _solution_csv_row(writer, report)
    else:
        n = report["count"]
        print(f"D = {args.D}, c = {args.c}: {n} solution{'s' if n != 1 else ''}")
        for entry in report["solutions"]:
            print(
                f"  ({entry['a']}, {entry['b']}, {entry['c']})"
                f"  =  {_format_factorization(entry['factorization'])}"
            )
    return 0


def _cmd_count(args) -> int:
    n = count_solutions(args.D, args.c)
    if args.format == "json":
        _print_json({"D": args.D, "c": args.c, "count": n})
    elif args.format == "csv":
        writer = _csv_writer()
        writer.writerow(["D", "c", "count"])
        writer.writerow([args.D, args.c, n])
    else:
        print(n)
    return 0


def _cmd_factor(args) -> int:
    z = make_element(args.D, args.a, args.b, args.c)
    fact = factor_element(z).to_json_dict()
    if args.format == "json":
        _print_json(
            {
                "D": z.D,
                "a": z.a,
                "b": z.b,
                "c": z.c,
                "factorization": fact,
            }
        )
    elif args.format == "csv":
        writer = _csv_writer()
        writer.writerow(["D", "a", "b", "c", "sign", "factorization"])
        writer.writerow([z.D, z.a, z.b, z.c, fact["sign"], _pack_terms(fact)])
    else:
        print(f"{z} = {_format_factorization(fact)}")
    return 0


def _cmd_mul(args) -> int:
    s1 = NormalizedSolution(args.D, args.a1, args.b1, args.c1)
    s2 = NormalizedSolution(args.D, args.a2, args.b2, args.c2)
    product = multiply_solutions(s1, s2)
    if args.format == "json":
        _print_json(product.to_json_dict())
    elif args.format == "csv":
        writer = _csv_writer()
        writer.writerow(["D", "a", "b", "c"])
        writer.writerow([product.D, product.a, product.b, product.c])
    else:
        print(f"({product.a}, {product.b}, {product.c})")
    return 0


def _cmd_table(args) -> int:
    require_applicable(args.D)
    reports = [describe_solutions(args.D, c) for c in range(3, args.cmax + 1, 2)]
    reports = [r for r in reports if r["count"] > 0]
    if args.format == "json":
        rows = [
            {"c": r["c"], "count": r["count"], "solutions": r["solutions"]}
            for r in reports
        ]
        _print_json({"D": args.D, "cmax": args.cmax, "rows": rows})
    elif args.format == "csv":
        writer = _csv_writer()
        writer.writerow(["D", "c", "count", "solutions"])
        for r in reports:
            packed = ";".join(f"{s['a']}:{s['b']}" for s in r["solutions"])
            writer.writerow([args.D, r["c"], r["count"], packed])
    else:
        print(f"D = {args.D}, odd c up to {args.cmax}")
        print(f"{'c':>6}  {'count':>5}  solutions")
        for r in reports:
            packed = "  ".join(f"({s['a']}, {s['b']})" for s in r["solutions"])
            print(f"{r['c']:>6}  {r['count']:>5}  {packed}")
    return 0


def _cmd_verify(args) -> int:
    summary = verify_sweep(args.D, args.cmax)
    if args.format == "json":
        _print_json(
            {
                "D": summary.D,
                "cmax": summary.c_max,
                "agreements": summary.agreements,
                "disagreements": [
                    {
                        "c": r.c,
                        "oracle": [[s.a, s.b] for s in r.solutions],
                    }
                    for r in summary.disagreements
                ],
                "rows": [
                    {
                        "c": row.c,
                        "k": row.k,
                        "theory_count": row.theory_count,
                        "oracle_count": row.oracle_count,
                        "agree": row.agree,
                    }
                    for row in summary.rows
                ],
            }
        )
    elif args.format == "csv":
        for line in sweep_csv_rows(summary):
            print(line)
    else:
        checked = len(summary.rows)
        print(
            f"D = {summary.D}: checked {checked} odd hypotenuses up to "
            f"{summary.c_max}: {summary.agreements} agree, "
            f"{len(summary.disagreements)} disagree"
        )
        for r in summary.disagreements:
            packed = " ".join(f"({s.a}, {s.b})" for s in r.solutions)
            print(f"  c = {r.c}: oracle found {packed or 'nothing'}")
    if summary.disagreements:
        print("verification failed: theory disagrees with brute force", file=sys.stderr)
        return DOMAIN_ERROR
    return 0


def _add_format(sub) -> None:
    sub.add_argument(
        "--format",
        choices=("human", "json", "csv"),
        default="human",
        help="output format (default: human)",
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="pelltriples",
        description="Count and enumerate coprime solutions of a^2 + D*b^2 = c^2.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    p = sub.add_parser("check", help="applicability of D and its class group")
    p.add_argument("D", type=int)
    _add_format(p)
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("zeta", help="elementary solution for an odd prime p")
    p.add_argument("D", type=int)
    p.add_argument("p", type=int)
    _add_format(p)
    p.set_defaults(func=_cmd_zeta)

    p = sub.add_parser("solve", help="all normalized solutions with hypotenuse c")
    p.add_argument("D", type=int)
    p.add_argument("c", type=int)
    _add_format(p)
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("count", help="number of normalized solutions for c")
    p.add_argument("D", type=int)
    p.add_argument("c", type=int)
    _add_format(p)
    p.set_defaults(func=_cmd_count)

    p = sub.add_parser("factor", help="zeta factorization of (a + b*sqrt(-D))/c")
    p.add_argument("D", type=int)
    p.add_argument("a", type=int)
    p.add_argument("b", type=int)
    p.add_argument("c", type=int)
    _add_format(p)
    p.set_defaults(func=_cmd_factor)

    p = sub.add_parser("mul", help="product of two normalized solutions")
    p.add_argument("D", type=int)
    p.add_argument("a1", type=int)
    p.add_argument("b1", type=int)
    p.add_argument("c1", type=int)
    p.add_argument("a2", type=int)
    p.add_argument("b2", type=int)
    p.add_argument("c2", type=int)
    _add_format(p)
    p.set_defaults(func=_cmd_mul)

    p = sub.add_parser("table", help="solution table for odd c up to --cmax")
    p.add_argument("D", type=int)
    p.add_argument("--cmax", type=int, required=True)
    _add_format(p)
    p.set_defaults(func=_cmd_table)

    p = sub.add_parser("verify", help="brute-force cross-check up to --cmax")
    p.add_argument("D", type=int)
    p.add_argument("--cmax", type=int, required=True)
    _add_format(p)
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return DOMAIN_ERROR


if __name__ == "__main__":
    sys.exit(main())
