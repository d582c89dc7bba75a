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

Adding a command means one _COMMANDS entry (help, integer parameters,
function) plus one function. The function computes its result once and
returns an _Output: three zero-argument renderings (JSON payload, CSV
header and rows, human lines), of which only the requested one runs.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import sys
from typing import Callable, Iterable, NamedTuple

from .gdgroup import NormalizedSolution, make_element
from .oracle import SweepRow, _require_sweep, verify_sweep
from .quadform import enumerate_class_group
from .solutions import (
    _odd_factorizations,
    check_applicability,
    count_solutions,
    describe_solutions,
    factor_element,
    multiply_solutions,
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


class _Output(NamedTuple):
    """A command's result in three lazy renderings, plus the message of a
    failure that still prints its result (exit 2)."""

    json: Callable[[], dict]
    csv: Callable[[], tuple[list, Iterable[Iterable]]]
    human: Callable[[], Iterable[str]]
    error: str | None = None


def _record(payload: dict) -> tuple[Callable, Callable]:
    """The JSON and CSV renderings of a flat payload: its keys are the CSV
    header and its values the one row."""
    return lambda: payload, lambda: (list(payload), [payload.values()])


def _render(output: _Output, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(output.json(), indent=2))
    elif fmt == "csv":
        header, rows = output.csv()
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(
            [str(v).lower() if isinstance(v, bool) else v for v in row] for row in rows
        )
    else:
        for line in output.human():
            print(line)


def _format_factorization(fact: dict) -> str:
    """A {"sign", "terms"} factorization as sign * zeta_p^e * ..."""
    if not fact["terms"]:
        return str(fact["sign"])
    body = " * ".join(f"zeta_{p}^{e}" for p, e in fact["terms"])
    return f"-{body}" if fact["sign"] < 0 else body


def _sign_terms(fact: dict) -> list:
    """A {"sign", "terms"} factorization as CSV cells: sign, p^e;p^e;..."""
    return [fact["sign"], ";".join(f"{p}^{e}" for p, e in fact["terms"])]


def _check(D: int) -> _Output:
    verdict = check_applicability(D)
    group = enumerate_class_group(-4 * D)
    row = [D, verdict.applicable, group.class_number, group.is_free_z2, verdict.reason]

    def human():
        width = max(len(str(f)) for f in group.reduced_forms)
        return [
            f"D = {D} (discriminant {group.K})",
            f"applicable: {'yes' if verdict.applicable else f'no ({verdict.reason})'}",
            f"class number: {group.class_number}",
            f"free Z2-module: {'yes' if group.is_free_z2 else 'no'}",
            "reduced forms:",
            *(f"  {str(f):<{width}}  order {n}" for f, n in group.orders.items()),
        ]

    return _Output(
        lambda: {
            "D": D,
            "applicable": verdict.applicable,
            "reason": verdict.reason,
            "class_group": group.to_json_dict(),
        },
        lambda: (["D", "applicable", "class_number", "free_z2", "reason"], [row]),
        human,
    )


def _zeta(D: int, p: int) -> _Output:
    zf = zeta(D, p)
    return _Output(
        *_record({"D": zf.D, "p": zf.p, "x0": zf.x0, "y0": zf.y0}),
        lambda: [f"zeta_{zf.p} = ({zf.x0} + {zf.y0}*sqrt(-{zf.D}))/{zf.p}"],
    )


def _solve(D: int, c: int) -> _Output:
    report = describe_solutions(D, c)
    found, n = report["solutions"], report["count"]
    return _Output(
        lambda: report,
        lambda: (
            ["D", "c", "a", "b", "sign", "factorization"],
            [[D, c, s["a"], s["b"], *_sign_terms(s["factorization"])] for s in found],
        ),
        lambda: [
            f"D = {D}, c = {c}: {n} solution{'s' if n != 1 else ''}",
            *(
                f"  ({s['a']}, {s['b']}, {s['c']})"
                f"  =  {_format_factorization(s['factorization'])}"
                for s in found
            ),
        ],
    )


def _count(D: int, c: int) -> _Output:
    n = count_solutions(D, c)
    return _Output(*_record({"D": D, "c": c, "count": n}), lambda: [str(n)])


def _factor(D: int, a: int, b: int, c: int) -> _Output:
    z = make_element(D, a, b, c)
    fact = factor_element(z).to_json_dict()
    return _Output(
        lambda: {**z.to_json_dict(), "factorization": fact},
        lambda: (
            ["D", "a", "b", "c", "sign", "factorization"],
            [[z.D, z.a, z.b, z.c, *_sign_terms(fact)]],
        ),
        lambda: [f"{z} = {_format_factorization(fact)}"],
    )


def _mul(D: int, a1: int, b1: int, c1: int, a2: int, b2: int, c2: int) -> _Output:
    product = multiply_solutions(
        NormalizedSolution(D, a1, b1, c1), NormalizedSolution(D, a2, b2, c2)
    )
    return _Output(
        *_record(product.to_json_dict()),
        lambda: [f"({product.a}, {product.b}, {product.c})"],
    )


def _table(D: int, cmax: int) -> _Output:
    _require_sweep(D, cmax)
    reports = (describe_solutions(D, n) for n in _odd_factorizations(cmax))
    rows = [(r["c"], r["count"], r["solutions"]) for r in reports if r["count"] > 0]
    return _Output(
        lambda: {
            "D": D,
            "cmax": cmax,
            "rows": [{"c": c, "count": n, "solutions": sols} for c, n, sols in rows],
        },
        lambda: (
            ["D", "c", "count", "solutions"],
            [
                [D, c, n, ";".join(f"{s['a']}:{s['b']}" for s in sols)]
                for c, n, sols in rows
            ],
        ),
        lambda: [
            f"D = {D}, odd c up to {cmax}",
            f"{'c':>6}  {'count':>5}  solutions",
            *(
                f"{c:>6}  {n:>5}  " + "  ".join(f"({s['a']}, {s['b']})" for s in sols)
                for c, n, sols in rows
            ),
        ],
    )


def _verify(D: int, cmax: int) -> _Output:
    summary = verify_sweep(D, cmax)
    failed = summary.disagreements
    return _Output(
        lambda: {
            "D": summary.D,
            "cmax": summary.c_max,
            "agreements": summary.agreements,
            "disagreements": [
                {"c": r.c, "oracle": [[s.a, s.b] for s in r.solutions]} for r in failed
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
        },
        lambda: (SweepRow._fields, summary.rows),
        lambda: [
            f"D = {summary.D}: checked {len(summary.rows)} odd hypotenuses up to "
            f"{summary.c_max}: {summary.agreements} agree, {len(failed)} disagree",
            *(
                f"  c = {r.c}: oracle found "
                + (" ".join(f"({s.a}, {s.b})" for s in r.solutions) or "nothing")
                for r in failed
            ),
        ],
        "verification failed: theory disagrees with brute force" if failed else None,
    )


# name -> (help, integer parameters in call order, function)
_COMMANDS = {
    "check": ("applicability of D and its class group", "D", _check),
    "zeta": ("elementary solution for an odd prime p", "D p", _zeta),
    "solve": ("all normalized solutions with hypotenuse c", "D c", _solve),
    "count": ("number of normalized solutions for c", "D c", _count),
    "factor": ("zeta factorization of (a + b*sqrt(-D))/c", "D a b c", _factor),
    "mul": ("product of two normalized solutions", "D a1 b1 c1 a2 b2 c2", _mul),
    "table": ("solution table for odd c up to --cmax", "D --cmax", _table),
    "verify": ("brute-force cross-check up to --cmax", "D --cmax", _verify),
}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="pelltriples",
        description="Count and enumerate coprime solutions of a^2 + D*b^2 = c^2.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")
    for name, (help_text, params, _) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for param in params.split():
            if param.startswith("--"):
                p.add_argument(param, type=int, required=True)
            else:
                p.add_argument(param, type=int)
        p.add_argument(
            "--format",
            choices=("human", "json", "csv"),
            default="human",
            help="output format (default: human)",
        )
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    _, params, func = _COMMANDS[args.command]
    try:
        output = func(*(getattr(args, param.lstrip("-")) for param in params.split()))
        _render(output, args.format)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return DOMAIN_ERROR
    if output.error:
        print(output.error, file=sys.stderr)
        return DOMAIN_ERROR
    return 0


if __name__ == "__main__":
    sys.exit(main())
