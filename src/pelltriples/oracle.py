"""Brute-force ground truth for the solution counting theory.

The oracle knows no number theory beyond divisibility, and shares no code
with arith. brute_force_solutions scans every candidate b for one c, tests
c^2 - D*b^2 for being a positive perfect square, and keeps the coprime
hits; cross_check compares that exhaustive answer against the theorem-
backed enumeration wherever the theory claims to apply. verify_sweep does
so for every odd hypotenuse up to a bound, from one chord walk instead:
the line through (-1, 0) with slope n/m meets x^2 + D*y^2 = 1 again at
(m^2 - D*n^2, 2*m*n)/(m^2 + D*n^2), so each solution is exactly one
coprime pair m > n*sqrt(D), n >= 1, divided by the gcd of its three terms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

from .gdgroup import NormalizedSolution
from .solutions import (
    _odd_factorizations,
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


def _scan_range(D: int, c_max: int) -> dict[int, list[NormalizedSolution]]:
    """Every (a, b, c) with a^2 + D*b^2 = c^2, a, b >= 1, gcd(a, b, c) = 1
    and c <= c_max, keyed by c and sorted by b ascending, from one chord
    walk over the coprime pairs (m, n) of the module docstring.

    D must be square-free. Then the gcd g of the three terms divides
    2*d with d = gcd(m, D): an odd prime of g divides m and D, and divides
    m^2 + D*n^2 only once, and the 2-part of g is at most 2. So for each
    d | D the walk steps m through the multiples of d with gcd(m, D) = d,
    up to m^2 + D*n^2 <= 2*d*c_max.
    """
    assert all(D % (q * q) for q in range(2, math.isqrt(D) + 1)), D
    found: dict[int, list[NormalizedSolution]] = {}
    for d in (d for d in range(1, D + 1) if D % d == 0):
        top = 2 * d * c_max
        for m in range(d, math.isqrt(top) + 1, d):
            if math.gcd(m, D) != d:
                continue
            mm = m * m
            for n in range(1, math.isqrt(min(mm - 1, top - mm) // D) + 1):
                if math.gcd(m, n) == 1:
                    a, b, c = mm - D * n * n, 2 * m * n, mm + D * n * n
                    g = math.gcd(a, b, c)
                    if c <= g * c_max:
                        solution = NormalizedSolution(D, a // g, b // g, c // g)
                        found.setdefault(c // g, []).append(solution)
    for solutions in found.values():
        solutions.sort(key=lambda s: s.b)
    return found


def verify_sweep(D: int, c_max: int) -> SweepSummary:
    """Compare the theory against one oracle pass (_scan_range) on every
    odd c in [3, c_max] for an applicable D, in c order."""
    _require_sweep(D, c_max)
    scanned = _scan_range(D, c_max)
    rows, disagreements = [], []
    for n in _odd_factorizations(c_max):
        c = n.value
        found = tuple(scanned.get(c, ()))
        theory_count = count_solutions(D, n)
        # The split-prime check behind a count of 0 empties the set too.
        theory = enumerate_solutions(D, n) if theory_count else set()
        agree = set(found) == theory and len(found) == theory_count
        if not agree:
            disagreements.append(OracleReport(D, c, found, DISAGREE))
        rows.append(
            SweepRow(D, c, n.distinct_prime_count, theory_count, len(found), agree)
        )
    return SweepSummary(
        D=D,
        c_max=c_max,
        agreements=sum(row.agree for row in rows),
        disagreements=tuple(disagreements),
        rows=tuple(rows),
    )

