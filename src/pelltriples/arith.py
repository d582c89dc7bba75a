"""Exact integer primitives: primality, factorization, Legendre symbols,
modular square roots, and Hensel lifting of roots of x^2 + D.

Everything here is deterministic and exact; no floating point and no
probabilistic verdicts escape this module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, NamedTuple

from .errors import NoSquareRootError

# Trial division hands the cofactor to Miller-Rabin and Pollard rho past
# _TRIAL_BOUND. One at or above the Miller-Rabin bound cannot be decided
# there, so trial division goes on to _TRIAL_BOUND_OVER_MR while it stays
# above the bound, and factorize refuses it if it is still there.
_TRIAL_BOUND = 10**4
_TRIAL_BOUND_OVER_MR = 10**6
_RHO_BATCH = 128  # Pollard rho steps per gcd

# Miller-Rabin is deterministic with these witnesses for n below this bound
# (Sorenson & Webster, https://miller-rabin.appspot.com/).
_MR_DETERMINISTIC_BOUND = 3_317_044_064_679_887_385_961_981
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


class PrimePower(NamedTuple):
    prime: int
    exponent: int


@dataclass(frozen=True)
class FactoredInteger:
    """A positive integer together with its complete prime factorization,
    primes strictly ascending."""

    value: int
    factors: tuple[PrimePower, ...]

    def __post_init__(self) -> None:
        prod = 1
        prev = 1
        for p, e in self.factors:
            if p <= prev or e < 1:
                raise ValueError(f"malformed factorization of {self.value}")
            prod *= p**e
            prev = p
        if prod != self.value:
            raise ValueError(f"factorization does not recompose to {self.value}")

    @property
    def distinct_prime_count(self) -> int:
        return len(self.factors)


class _ProvenFactoredInteger(FactoredInteger):
    """A FactoredInteger whose primes are proven; equal to the plain one."""

    def __eq__(self, other):
        if not isinstance(other, FactoredInteger):
            return NotImplemented
        return (self.value, self.factors) == (other.value, other.factors)

    __hash__ = FactoredInteger.__hash__


def is_prime(n: int) -> bool:
    """Deterministic primality test (Miller-Rabin with fixed witnesses).

    Exact for n below ~3.3e24; larger inputs are refused rather than
    answered probabilistically.
    """
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n == p:
            return True
        if n % p == 0:
            return False
    if n >= _MR_DETERMINISTIC_BOUND:
        raise ValueError(f"primality of {n} exceeds the deterministic witness bound")

    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        if a % n == 0:
            continue
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _check_odd_prime(p: int) -> None:
    if p < 3 or p % 2 == 0 or not is_prime(p):
        raise ValueError(f"p = {p} is not an odd prime")


def _legendre_prime(a: int, p: int) -> int:
    """Euler's criterion for an odd p already proven prime. p must be odd:
    for p = 2 the exponent (p - 1) / 2 is 0, and every a would read -1."""
    assert p % 2, "Euler's criterion needs an odd prime"
    r = pow(a % p, (p - 1) // 2, p)
    return -1 if r == p - 1 else r


def legendre(a: int, p: int) -> int:
    """Legendre symbol (a/p) by Euler's criterion: 0 if p | a, +1 if a is a
    nonzero square mod p, -1 otherwise."""
    _check_odd_prime(p)
    return _legendre_prime(a, p)


def sqrt_mod_p(a: int, p: int) -> int:
    """The smaller square root r of a modulo the odd prime p (0 < r <= p - r).

    Uses the a^((p+1)/4) shortcut for p = 3 (mod 4), Tonelli-Shanks otherwise.
    Raises NoSquareRootError when a is not a nonzero residue.
    """
    _check_odd_prime(p)
    return _sqrt_mod_prime(a, p)


def _sqrt_mod_prime(a: int, p: int) -> int:
    """sqrt_mod_p for an odd p already proven prime."""
    a %= p
    if _legendre_prime(a, p) != 1:
        raise NoSquareRootError(f"{a} is not a nonzero square modulo {p}")

    if p % 4 == 3:
        r = pow(a, (p + 1) // 4, p)
        return min(r, p - r)

    # Tonelli-Shanks: write p - 1 = q * 2^s with q odd.
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while _legendre_prime(z, p) != -1:
        z += 1
    c = pow(z, q, p)
    r = pow(a, (q + 1) // 2, p)
    t = pow(a, q, p)
    m = s
    while t != 1:
        i, t2 = 0, t
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        r = r * b % p
        c = b * b % p
        t = t * c % p
        m = i
    return min(r, p - r)


def hensel_lift(D: int, p: int, target_exponent: int) -> int:
    """The root s of x^2 + D = 0 (mod p^target_exponent) lying over the
    canonical base root mod p.

    Lifts one exponent per step: with s_k^2 + D = 0 (mod p^k), the next root
    is s_k + t*p^k where t = -((s_k^2 + D)/p^k) * (2 s_k)^(-1) (mod p).
    The derivative 2s is a unit mod p since p is odd and p does not divide D.
    """
    _check_odd_prime(p)
    return _hensel_lift(D, p, target_exponent)


def _hensel_lift(D: int, p: int, target_exponent: int) -> int:
    """hensel_lift for an odd p already proven prime."""
    if D < 1 or target_exponent < 1:
        raise ValueError("require D >= 1 and target_exponent >= 1")
    if D % p == 0:
        raise ValueError(f"p = {p} divides D = {D}; root of x^2 + D would not lift")
    if _legendre_prime(-D, p) != 1:
        raise NoSquareRootError(f"-{D} is not a square modulo {p}")

    s = _sqrt_mod_prime(-D % p, p)
    pk = p
    for _ in range(target_exponent - 1):
        t = (-((s * s + D) // pk) * pow(2 * s, -1, p)) % p
        s += t * pk
        pk *= p
    return s


def _pollard_rho(n: int) -> int:
    """A nontrivial factor of odd composite n by Brent's cycle finding
    (Brent 1980): one gcd per _RHO_BATCH steps of x -> x^2 + c, and a
    step-by-step replay of the batch when its gcd comes out as n."""
    for c in range(1, 100):
        y, r, q, d = 2, 1, 1, 1
        while d == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and d == 1:
                ys = y
                for _ in range(min(_RHO_BATCH, r - k)):
                    y = (y * y + c) % n
                    q = q * (x - y) % n
                d = math.gcd(q, n)
                k += _RHO_BATCH
            r *= 2
        if d == n:
            d = 1
            while d == 1:
                ys = (ys * ys + c) % n
                d = math.gcd(x - ys, n)
        if d != n:
            return d
    raise ArithmeticError(f"pollard rho failed on {n}")  # pragma: no cover


def _factor_into(n: int, out: dict[int, int]) -> None:
    if n == 1:
        return
    if is_prime(n):
        out[n] = out.get(n, 0) + 1
        return
    d = _pollard_rho(n)
    _factor_into(d, out)
    _factor_into(n // d, out)


def factorize(n: int) -> FactoredInteger:
    """Complete prime factorization of n >= 1, primes ascending.

    Trial division up to 10^4, then deterministic Miller-Rabin plus
    Pollard rho on any remaining cofactor. A cofactor at or above the
    Miller-Rabin bound is trial-divided on up to 10^6 until it drops
    below the bound; one still above it then raises ValueError.
    """
    if n < 1:
        raise ValueError(f"cannot factorize n = {n}; need n >= 1")
    value = n
    powers: dict[int, int] = {}
    for p in (2, 3):
        while n % p == 0:
            powers[p] = powers.get(p, 0) + 1
            n //= p
    f = 5
    while f * f <= n and (
        f <= _TRIAL_BOUND or (f <= _TRIAL_BOUND_OVER_MR and n >= _MR_DETERMINISTIC_BOUND)
    ):
        for p in (f, f + 2):  # 6k-1, 6k+1
            while n % p == 0:
                powers[p] = powers.get(p, 0) + 1
                n //= p
        f += 6
    if n > 1:
        if f * f > n:
            powers[n] = powers.get(n, 0) + 1
        else:
            _factor_into(n, powers)
    factors = tuple(PrimePower(p, powers[p]) for p in sorted(powers))
    return _ProvenFactoredInteger(value, factors)


def _odd_factorizations(n_max: int) -> Iterator[FactoredInteger]:
    """The factorization of each odd n in [3, n_max], ascending, from one
    smallest-prime-factor sieve: n = p * m with p = spf(n) and m < n
    factored already, so no n is divided twice. A p the sieve marks prime
    has no odd factor up to its square root, so every prime is proven."""
    # Smallest odd prime factor of 2i + 1 at index i, 0 when it is prime.
    # Descending p leaves the smallest: a composite p marks only multiples
    # that one of its prime factors marks again later.
    spf = [0] * ((n_max + 1) // 2)
    for p in reversed(range(3, math.isqrt(n_max) + 1, 2)):
        start = p * p // 2
        spf[start::p] = [p] * len(range(start, len(spf), p))
    known = [()]  # factors of the odd m <= n_max / 3 at index m // 2
    for i in range(1, len(spf)):
        n = 2 * i + 1
        p = spf[i] or n
        rest = known[n // p // 2]
        if rest and rest[0].prime == p:
            factors = (PrimePower(p, rest[0].exponent + 1), *rest[1:])
        else:
            factors = (PrimePower(p, 1), *rest)
        if 3 * n <= n_max:
            known.append(factors)
        yield _ProvenFactoredInteger(n, factors)


def is_square_free(n: int) -> bool:
    """True iff no prime squared divides n (n >= 1)."""
    if n < 1:
        raise ValueError(f"square-freeness undefined for n = {n}")
    return all(e == 1 for _, e in factorize(n).factors)
