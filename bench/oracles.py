"""The benchmark's own number theory, used to build inputs and to check
answers.

Nothing here imports pelltriples: a bug in the package cannot hide itself
by also being in the oracle that checks it.
"""

from __future__ import annotations

import math

# Euler's 65 idoneal numbers (OEIS A000926).
EULER_IDONEAL = (
    1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 12, 13, 15, 16, 18, 21, 22, 24, 25, 28,
    30, 33, 37, 40, 42, 45, 48, 57, 58, 60, 70, 72, 78, 85, 88, 93, 102, 105,
    112, 120, 130, 133, 165, 168, 177, 190, 210, 232, 240, 253, 273, 280, 312,
    330, 345, 357, 385, 408, 462, 520, 760, 840, 1320, 1365, 1848,
)


def smallest_prime_factors(n: int) -> list[int]:
    """spf[m] for 0 <= m <= n (spf[0] = spf[1] = 0), by a sieve."""
    spf = [0] * (n + 1)
    for p in range(2, n + 1):
        if spf[p] == 0:
            for m in range(p, n + 1, p):
                if spf[m] == 0:
                    spf[m] = p
    return spf


def factor_with(spf: list[int], n: int) -> dict[int, int]:
    """Prime factorization {p: e} of 1 <= n < len(spf)."""
    out: dict[int, int] = {}
    while n > 1:
        p = spf[n]
        out[p] = out.get(p, 0) + 1
        n //= p
    return out


def factor_small(n: int) -> dict[int, int]:
    """Prime factorization {p: e} of a small n >= 1 by trial division."""
    out: dict[int, int] = {}
    p = 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def is_square_free(n: int) -> bool:
    return all(e == 1 for e in factor_small(n).values())


# The D this package's theory covers: the square-free idoneal numbers
# D > 1 with -D = 2 or 3 (mod 4), i.e. D = 1 or 2 (mod 4).
APPLICABLE_D = tuple(
    D for D in EULER_IDONEAL if D > 1 and D % 4 in (1, 2) and is_square_free(D)
)


def is_prime_below_2_32(n: int) -> bool:
    """Miller-Rabin with witnesses 2, 3, 5, 7: exact for n < 3,215,031,751."""
    if n < 2:
        return False
    for p in (2, 3, 5, 7):
        if n % p == 0:
            return n == p
    if n >= 3_215_031_751:
        raise ValueError(f"{n} is beyond this test's exact range")
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def splits(D: int, p: int) -> bool:
    """(-D/p) = +1 for an odd prime p, by Euler's criterion."""
    return D % p != 0 and pow(-D % p, (p - 1) // 2, p) == 1


def kronecker_minus_4d(D: int, p: int) -> int:
    """The Kronecker symbol (-4D/p) for a prime p."""
    if p == 2:
        return 0
    r = pow(-4 * D % p, (p - 1) // 2, p)
    return -1 if r == p - 1 else r


def class_group_cost(D: int, primes: list[int]) -> float:
    """A cheap estimate of the work to compute every class order of
    discriminant -4D: h^2 / 2^(t-1), with the class number h from the
    truncated Euler product of L(1, chi) and t the number of primes of 4D
    (genus theory: the 2-rank is t - 1, and each independent involution
    halves the typical element order)."""
    L = 1.0
    for p in primes:
        L /= 1 - kronecker_minus_4d(D, p) / p
    h = 2 * math.sqrt(D) / math.pi * L
    t = 1 + sum(1 for p in factor_small(D) if p != 2)
    return h * h / 2 ** (t - 1)


def reduced_form_count(D: int) -> int:
    """The class number h(-4D): primitive reduced forms [a, b, c] with
    b^2 - 4ac = -4D."""
    K = -4 * D
    count = 0
    for a in range(1, math.isqrt(-K // 3) + 1):
        for b in range(-a + 1, a + 1):
            if (b * b - K) % (4 * a):
                continue
            c = (b * b - K) // (4 * a)
            if c < a or (b < 0 and a == c):
                continue
            if math.gcd(a, math.gcd(b, c)) == 1:
                count += 1
    return count


def check_triple(D: int, a: int, b: int, c: int) -> str | None:
    """None when (a, b, c) is a positive primitive solution of
    a^2 + D*b^2 = c^2, else what is wrong with it."""
    if min(a, b, c) < 1:
        return f"({a}, {b}, {c}) is not positive"
    if a * a + D * b * b != c * c:
        return f"({a}, {b}, {c}) is not a solution for D = {D}"
    if math.gcd(a, b) != 1:
        return f"({a}, {b}, {c}) is not primitive"
    return None


def expected_count(D: int, factors: dict[int, int]) -> int:
    """2^(k-1) when c > 1 is odd and every prime of c splits, else 0."""
    if not factors or 2 in factors or not all(splits(D, p) for p in factors):
        return 0
    return 1 << (len(factors) - 1)


def check_report(D: int, c: int, factors: dict[int, int], report: dict) -> str | None:
    """Check a describe_solutions-shaped report for (D, c) against the known
    factorization of c: the count, each triple, and each zeta
    factorization's primes and |exponents|. None when it is right."""
    want = expected_count(D, factors)
    if report.get("count") != want:
        return f"D={D} c={c}: count {report.get('count')}, expected {want}"
    solutions = report.get("solutions", [])
    if len(solutions) != want:
        return f"D={D} c={c}: {len(solutions)} solutions listed, expected {want}"
    primes = sorted(factors)
    seen_b, seen_signs = set(), set()
    for s in solutions:
        if s["c"] != c:
            return f"D={D} c={c}: solution with hypotenuse {s['c']}"
        problem = check_triple(D, s["a"], s["b"], c)
        if problem:
            return problem
        seen_b.add(s["b"])
        terms = s["factorization"]["terms"]
        if [p for p, _ in terms] != primes or any(
            abs(e) != factors[p] for p, e in terms
        ):
            return f"D={D} c={c}: factorization {terms} does not match {factors}"
        if s["factorization"]["sign"] not in (1, -1):
            return f"D={D} c={c}: bad sign {s['factorization']['sign']}"
        seen_signs.add(tuple(e > 0 for _, e in terms))
    if len(seen_b) != want or len(seen_signs) != want:
        return f"D={D} c={c}: repeated solutions or sign patterns"
    return None
