"""Brute-force ground truth for the solution counting theory.

The oracle knows no number theory beyond divisibility, and shares no code
with arith. brute_force_solutions scans every candidate b for one c, tests
c^2 - D*b^2 for being a positive perfect square, and keeps the coprime
hits; cross_check compares that exhaustive answer against the theorem-
backed enumeration wherever the theory claims to apply. verify_sweep does
so for every odd hypotenuse up to a bound, from one pass over b instead:
each a^2 + D*b^2 = c^2 is a split D*b^2 = u*v with u = c - a < v = c + a
of equal parity, so the divisors u of D*b^2 give every c at once.
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


def _smallest_prime_factors(n: int) -> list[int]:
    """spf[m] for 0 <= m <= n (spf[m] = m for m < 2 and for primes)."""
    spf = list(range(n + 1))
    for p in range(2, math.isqrt(n) + 1):
        if spf[p] == p:
            for m in range(p * p, n + 1, p):
                if spf[m] == m:
                    spf[m] = p
    return spf


def _prime_powers(m: int, spf: list[int], powers: dict[int, int]) -> None:
    """Add the prime exponents of m >= 1 to powers."""
    while m > 1:
        p = spf[m]
        powers[p] = powers.get(p, 0) + 1
        m //= p


def _scan_range(D: int, c_max: int) -> dict[int, list[NormalizedSolution]]:
    """Every (a, b, c) with a^2 + D*b^2 = c^2, a, b >= 1, gcd(a, b, c) = 1
    and c <= c_max, keyed by c and sorted by b ascending, from one pass
    over b: each divisor u < v = D*b^2/u with u = v (mod 2) gives
    c = (u + v)/2 and a = (v - u)/2."""
    b_max = math.isqrt(max(c_max * c_max - 1, 0) // D)
    spf = _smallest_prime_factors(max(b_max, D))
    found: dict[int, list[NormalizedSolution]] = {}
    for b in range(1, b_max + 1):
        powers: dict[int, int] = {}
        for m in (D, b, b):
            _prime_powers(m, spf, powers)
        divisors = [1]
        for p, e in powers.items():
            divisors = [u * p**i for u in divisors for i in range(e + 1)]
        n = D * b * b
        for u in divisors:
            v = n // u
            if u < v and (u - v) % 2 == 0 and u + v <= 2 * c_max:
                a, c = (v - u) // 2, (u + v) // 2
                if math.gcd(a, math.gcd(b, c)) == 1:
                    found.setdefault(c, []).append(NormalizedSolution(D, a, b, c))
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
        agree = set(found) == enumerate_solutions(D, n) and len(found) == theory_count
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

