"""Deciding, counting, and enumerating normalized solutions of
a^2 + D*b^2 = c^2.

The pipeline: a square-free D > 1 with -D = 2 or 3 (mod 4) is admissible
when every class of discriminant -4D has order at most 2. For such D, odd
hypotenuses c whose prime factors p all satisfy (-D/p) = +1 carry exactly
2^(k-1) normalized solutions (k = number of distinct primes of c). The
solutions are built multiplicatively from elementary factors
zeta_p = (x0 + y0*sqrt(-D))/p, and conversely every norm-1 element with
hypotenuse c > 1 factors uniquely as +/- a product of zeta powers.

Enumeration builds each solution from a sign pattern over the zeta_p, so
it knows every solution's factorization by construction; divisibility in
Z[sqrt(-D)] decides the exponent signs only in factor_element, which
factors elements supplied from outside. A hypotenuse may come with its
factorization as a value, so table and verify factor no c of a range.

Outside the admissible D the 2^(k-1) law genuinely fails (D = 26, c = 5
has a positive Legendre symbol but no solution), so those D raise
UnsupportedClassGroupError instead of guessing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from .arith import (
    FactoredInteger,
    _check_odd_prime,
    _hensel_lift,
    _legendre_prime,
    _odd_factorizations,
    _ProvenFactoredInteger,
    factorize,
    is_square_free,
)
from .errors import (
    NotFactorableError,
    NotRepresentableError,
    UnsupportedClassGroupError,
)
from .gdgroup import (
    GroupElement,
    NormalizedSolution,
    conjugate,
    multiply,
    pow as element_pow,
    to_normalized,
)
from .quadform import _CACHE_SIZE, enumerate_class_group

# zeta's cache holds every split prime below 2,000 of all 33 applicable D
# (4,917 pairs) with room to spare.
_ZETA_CACHE_SIZE = 8192


@dataclass(frozen=True)
class Applicability:
    """Verdict on whether the counting theory covers a given D."""

    D: int
    residue_ok: bool
    square_free: bool
    free_z2: bool
    class_number: int

    @property
    def applicable(self) -> bool:
        return self.residue_ok and self.square_free and self.free_z2 and self.D > 1

    @property
    def reason(self) -> str | None:
        """Why D is out of scope, or None when it is applicable."""
        if not self.square_free:
            return f"D = {self.D} is not square-free"
        if not self.residue_ok:
            return f"-D = {-self.D} is not 2 or 3 mod 4"
        if self.D == 1:
            return "D = 1 (Pythagorean triples) has a < b in its normalization; use the classical parametrization"
        if not self.free_z2:
            return (
                f"class group of discriminant {-4 * self.D} is not a free Z2-module"
            )
        return None


@dataclass(frozen=True)
class ZetaFactor:
    """The unique positive coprime representation x0^2 + D*y0^2 = p^2;
    the elementary solution (x0 + y0*sqrt(-D))/p."""

    D: int
    p: int
    x0: int
    y0: int

    def __post_init__(self) -> None:
        if self.x0 < 1 or self.y0 < 1:
            raise ValueError("zeta components must be positive")
        if math.gcd(self.x0, self.y0) != 1:
            raise ValueError("zeta components must be coprime")
        if self.x0**2 + self.D * self.y0**2 != self.p**2:
            raise ValueError(f"{self.x0}^2 + {self.D}*{self.y0}^2 != {self.p}^2")

    def to_element(self) -> GroupElement:
        return GroupElement(self.D, self.x0, self.y0, self.p)


@dataclass(frozen=True)
class Factorization:
    """z = sign * product of zeta_p^e over terms; |e| is the multiplicity
    of p in the hypotenuse, and primes are strictly increasing."""

    D: int
    sign: int
    terms: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        if self.sign not in (1, -1):
            raise ValueError(f"sign must be +1 or -1, got {self.sign}")
        prev = 1
        for p, e in self.terms:
            if p <= prev or e == 0:
                raise ValueError("terms must have ascending primes and nonzero exponents")
            prev = p

    def to_json_dict(self) -> dict:
        return {"sign": self.sign, "terms": [[p, e] for p, e in self.terms]}


@lru_cache(maxsize=_CACHE_SIZE)
def check_applicability(D: int) -> Applicability:
    """Residue class, square-freeness, and the class group condition for D."""
    if D < 1:
        raise ValueError(f"D = {D} must be a positive integer")
    descriptor = enumerate_class_group(-4 * D)
    return Applicability(
        D=D,
        residue_ok=(-D) % 4 in (2, 3),
        square_free=is_square_free(D),
        free_z2=descriptor.is_free_z2,
        class_number=descriptor.class_number,
    )


def require_applicable(D: int) -> Applicability:
    """The applicability verdict, or UnsupportedClassGroupError when D is
    out of scope."""
    verdict = check_applicability(D)
    if not verdict.applicable:
        raise UnsupportedClassGroupError(verdict.reason)
    return verdict


def _split_factors(D: int, c: int | FactoredInteger) -> FactoredInteger | None:
    """c's factorization when normalized solutions with hypotenuse c exist
    (c odd, c > 1, and (-D/p) = +1 for every prime p of c), else None. Its
    primes are proven before Euler's criterion reads them: by factorize or
    arith's sieve, or here, once each, for any other FactoredInteger."""
    require_applicable(D)
    value = c.value if isinstance(c, FactoredInteger) else c
    if value < 1:
        raise ValueError(f"c = {value} must be a positive integer")
    if value == 1 or value % 2 == 0:
        return None
    if not isinstance(c, FactoredInteger):
        c = factorize(c)
    elif not isinstance(c, _ProvenFactoredInteger):
        for p, _ in c.factors:
            _check_odd_prime(p)
    if any(_legendre_prime(-D, p) != 1 for p, _ in c.factors):
        return None
    return c


def solution_exists(D: int, c: int | FactoredInteger) -> bool:
    """True iff a normalized solution with hypotenuse c exists: c odd,
    c > 1, and (-D/p) = +1 for every prime p of c. c is an int, factored at
    most once, or a FactoredInteger; unless factorize made it, its primes
    are proven once each before use, and a non-prime raises ValueError."""
    return _split_factors(D, c) is not None


@lru_cache(maxsize=_ZETA_CACHE_SIZE)
def zeta(D: int, p: int) -> ZetaFactor:
    """The elementary solution for an odd prime p with (-D/p) = +1.

    A root t of t^2 = -D (mod p^2) comes from Hensel lifting; the Euclidean
    remainder sequence of (p^2, t) descends to the representing x0, with a
    bounded scan over y0 <= p/sqrt(D) as fallback. The result is verified
    unconditionally.
    """
    require_applicable(D)
    _check_odd_prime(p)
    if D % p == 0:
        raise ValueError(f"p = {p} divides D = {D}")
    if _legendre_prime(-D, p) != 1:
        raise NotRepresentableError(
            f"(-{D}/{p}) = -1: p^2 has no primitive representation x^2 + {D}*y^2"
        )

    square = p * p
    t = _hensel_lift(D, p, 2)
    for root in (t, square - t):
        hi, lo = square, root
        while lo * lo > square:
            hi, lo = lo, hi % lo
        x0 = lo
        rest = square - x0 * x0
        if rest > 0 and rest % D == 0:
            y0 = math.isqrt(rest // D)
            if y0 >= 1 and D * y0 * y0 == rest and math.gcd(x0, y0) == 1:
                return ZetaFactor(D, p, x0, y0)
    for y0 in range(1, math.isqrt((square - 1) // D) + 1):
        rest = square - D * y0 * y0
        x0 = math.isqrt(rest)
        if x0 >= 1 and x0 * x0 == rest and math.gcd(x0, y0) == 1:
            return ZetaFactor(D, p, x0, y0)
    raise ArithmeticError(f"no representation of {p}^2 found despite (-{D}/{p}) = 1")


def divides(u: tuple[int, int], v: tuple[int, int], D: int) -> tuple[int, int] | None:
    """Quotient of (v[0] + v[1]*sqrt(-D)) by (u[0] + u[1]*sqrt(-D)) when it
    has integer components, else None."""
    x, y = u
    if x == 0 and y == 0:
        raise ValueError("division by zero in Z[sqrt(-D)]")
    a, b = v
    norm = x * x + D * y * y
    real = a * x + D * b * y
    imag = b * x - a * y
    if real % norm or imag % norm:
        return None
    return (real // norm, imag // norm)


def factor_element(z: GroupElement) -> Factorization:
    """Express z as sign * product of zeta_p^(+/- alpha) over the prime
    powers p^alpha of its hypotenuse.

    For each prime power exactly one of zeta_p^alpha and its conjugate
    divides the numerator; that choice fixes the exponent sign, the factor
    is peeled off, and the residual unit fixes the overall sign.
    """
    require_applicable(z.D)
    if z.is_unit:
        return Factorization(z.D, z.a, ())
    primes = factorize(z.c).factors
    for p, _ in primes:
        if p == 2 or _legendre_prime(-z.D, p) != 1:
            raise NotFactorableError(
                f"hypotenuse prime {p} admits no elementary solution for D = {z.D}"
            )
    current = (z.a, z.b)
    terms = []
    for p, alpha in primes:
        # The numerator of zeta_p^alpha is prime to p, so it is not reduced.
        w = element_pow(zeta(z.D, p).to_element(), alpha)
        quotient = divides((w.a, w.b), current, z.D)
        conj_quotient = divides((w.a, -w.b), current, z.D)
        assert (quotient is None) != (conj_quotient is None), (
            f"exactly-one divisibility failed at p = {p} for {z}"
        )
        if quotient is not None:
            current = quotient
            terms.append((p, alpha))
        else:
            current = conj_quotient
            terms.append((p, -alpha))
    assert current in ((1, 0), (-1, 0)), f"nontrivial residual {current} for {z}"
    return Factorization(z.D, current[0], tuple(terms))


def recompose(factorization: Factorization) -> GroupElement:
    """The group element sign * product zeta_p^e; inverse of factor_element."""
    result = GroupElement(factorization.D, factorization.sign, 0, 1)
    for p, e in factorization.terms:
        result = multiply(result, element_pow(zeta(factorization.D, p).to_element(), e))
    return result


def _factored_solutions(
    D: int, c: int | FactoredInteger
) -> dict[NormalizedSolution, Factorization]:
    """Each normalized solution with hypotenuse c, with its factorization.

    The products are zeta_{p1}^a1 * zeta_{p2}^(e2*a2) * ... with the
    smallest prime's exponent fixed positive and the other signs free, one
    per sign pattern: 2^(k-1) in total. Normalizing a product
    z = (A + B*sqrt(-D))/c to (|A|, |B|, c) multiplies it by sign(A), and
    conjugates it, which negates every exponent, when A and B differ in
    sign.
    """
    n = _split_factors(D, c)
    if n is None:
        return {}
    c, primes = n.value, n.factors
    p1, alpha1 = primes[0]
    products = [(element_pow(zeta(D, p1).to_element(), alpha1), (alpha1,))]
    for p, alpha in primes[1:]:
        zp = element_pow(zeta(D, p).to_element(), alpha)
        products = [
            (multiply(z, factor), exps + (e,))
            for z, exps in products
            for factor, e in ((zp, alpha), (conjugate(zp), -alpha))
        ]
    found = {}
    for z, exps in products:
        flip = 1 if (z.a > 0) == (z.b > 0) else -1
        terms = tuple((p, flip * e) for (p, _), e in zip(primes, exps))
        found[to_normalized(z)] = Factorization(D, 1 if z.a > 0 else -1, terms)
    assert len(found) == 1 << (len(primes) - 1), f"count law violated at D={D}, c={c}"
    assert all(s.c == c for s in found)
    return found


def enumerate_solutions(D: int, c: int | FactoredInteger) -> set[NormalizedSolution]:
    """All normalized solutions with hypotenuse c (an int or a
    FactoredInteger, as in solution_exists); empty when none exist."""
    return set(_factored_solutions(D, c))


def count_solutions(D: int, c: int | FactoredInteger) -> int:
    """2^(k-1) over the k distinct primes of c (an int or a FactoredInteger,
    as in solution_exists) when solutions exist, else 0, by arithmetic alone."""
    n = _split_factors(D, c)
    return 0 if n is None else 1 << (n.distinct_prime_count - 1)


def multiply_solutions(
    s1: NormalizedSolution, s2: NormalizedSolution
) -> NormalizedSolution:
    """The solution with hypotenuse c1*c2 from the elliptic product of two
    solutions with coprime hypotenuses."""
    if s1.D != s2.D:
        raise ValueError(f"mismatched D: {s1.D} vs {s2.D}")
    if math.gcd(s1.c, s2.c) != 1:
        raise ValueError(
            f"hypotenuses {s1.c} and {s2.c} share a factor; product is not primitive"
        )
    product = multiply(s1.to_element(), s2.to_element())
    result = to_normalized(product)
    assert math.gcd(result.a, result.b) == 1
    return result


def describe_solutions(D: int, c: int | FactoredInteger) -> dict:
    """JSON-ready report on c (an int or a FactoredInteger, as in
    solution_exists; reported as an int): count plus each solution with its
    factorization, sorted by b ascending (b determines a: a total order)."""
    found = _factored_solutions(D, c)
    return {
        "D": D,
        "c": c.value if isinstance(c, FactoredInteger) else c,
        "count": len(found),
        "solutions": [
            {"a": s.a, "b": s.b, "c": s.c, "factorization": found[s].to_json_dict()}
            for s in sorted(found, key=lambda s: s.b)
        ],
    }
