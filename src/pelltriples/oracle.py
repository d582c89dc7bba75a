"""Brute-force ground truth for the solution counting theory.

The oracle knows no number theory: it scans every candidate b, tests
c^2 - D*b^2 for being a positive perfect square, and keeps the coprime
hits. cross_check compares that exhaustive answer against the theorem-
backed enumeration wherever the theory claims to apply, and verify_sweep
does so for every odd hypotenuse up to a bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

from .arith import factorize
from .gdgroup import NormalizedSolution
from .solutions import (
    check_applicability,
    count_solutions,
    enumerate_solutions,
    require_applicable,
)

AGREE = "agree"
DISAGREE = "disagree"
NOT_APPLICABLE = "theory-not-applicable"


@dataclass(frozen=True)
class OracleReport:
    """Exhaustive solutions for one (D, c) and the comparison verdict."""

    D: int
    c: int
    solutions: tuple[NormalizedSolution, ...]
    agrees_with_theory: str


class SweepRow(NamedTuple):
    D: int
    c: int
    k: int
    theory_count: int
    oracle_count: int
    agree: bool


@dataclass(frozen=True)
class SweepSummary:
    D: int
    c_max: int
    agreements: int
    disagreements: tuple[OracleReport, ...]
    rows: tuple[SweepRow, ...]

    @property
    def all_agree(self) -> bool:
        return not self.disagreements


def brute_force_solutions(D: int, c: int) -> tuple[NormalizedSolution, ...]:
    """Every (a, b, c) with a^2 + D*b^2 = c^2, a, b >= 1, gcd(a, b, c) = 1,
    by exhaustive scan over b; returned sorted by b ascending."""
    if D < 1 or c < 1:
        raise ValueError("need D >= 1 and c >= 1")
    found = []
    for b in range(1, math.isqrt(c * c // D) + 1):
        rest = c * c - D * b * b
        if rest < 1:
            break
        a = math.isqrt(rest)
        if a * a == rest and math.gcd(a, math.gcd(b, c)) == 1:
            found.append(NormalizedSolution(D, a, b, c))
    return tuple(found)


def cross_check(D: int, c: int) -> OracleReport:
    """Compare the oracle's scan against the theory for one hypotenuse.

    Non-applicable D is not an error here: the oracle still reports its
    raw findings, marked theory-not-applicable.
    """
    found = brute_force_solutions(D, c)
    if not check_applicability(D).applicable:
        return OracleReport(D, c, found, NOT_APPLICABLE)
    agrees = set(found) == enumerate_solutions(D, c) and len(found) == count_solutions(
        D, c
    )
    return OracleReport(D, c, found, AGREE if agrees else DISAGREE)


def _require_sweep(D: int, c_max: int) -> None:
    """The checks of a sweep over odd c <= c_max: D applicable, c_max >= 1."""
    require_applicable(D)
    if c_max < 1:
        raise ValueError(f"c_max = {c_max} must be a positive integer")


def verify_sweep(D: int, c_max: int) -> SweepSummary:
    """cross_check every odd c in [3, c_max] for an applicable D, in c
    order."""
    _require_sweep(D, c_max)
    reports = [cross_check(D, c) for c in range(3, c_max + 1, 2)]

    rows = tuple(
        SweepRow(
            D=D,
            c=r.c,
            k=factorize(r.c).distinct_prime_count,
            theory_count=count_solutions(D, r.c),
            oracle_count=len(r.solutions),
            agree=r.agrees_with_theory == AGREE,
        )
        for r in reports
    )
    disagreements = tuple(r for r in reports if r.agrees_with_theory == DISAGREE)
    return SweepSummary(
        D=D,
        c_max=c_max,
        agreements=sum(row.agree for row in rows),
        disagreements=disagreements,
        rows=rows,
    )

