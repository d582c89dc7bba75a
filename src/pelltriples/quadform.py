"""Primitive positive-definite binary quadratic forms [a, b, c] of
discriminant K = b^2 - 4ac < 0.

Provides reduction to the unique reduced class representative,
composition (Cohen's Algorithm 5.4.7, total on primitive forms with no
fallback), class group enumeration for K = 0 (mod 4), and the test that
every class has order at most 2. That test needs no composition: a class
has order at most 2 exactly when its reduced form is ambiguous (Gauss's
genus theory). Element orders are computed only when a caller asks, in
one walk per cyclic subgroup: the powers f, f^2, ..., f^n = identity of a
form give every f^i its order n / gcd(i, n), so no power is walked twice.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

# Bound of the class-group and applicability caches: room for all 33
# applicable D, so repeated work on them keeps hitting, while a scan over
# many D no longer holds every descriptor for the life of the process.
_CACHE_SIZE = 128


@dataclass(frozen=True, order=True)
class QuadForm:
    """The form a*x^2 + b*x*y + c*y^2, primitive and positive definite."""

    a: int
    b: int
    c: int

    def __post_init__(self) -> None:
        if self.a <= 0 or self.discriminant >= 0:
            raise ValueError(f"[{self.a},{self.b},{self.c}] is not positive definite")
        if math.gcd(self.a, math.gcd(self.b, self.c)) != 1:
            raise ValueError(f"[{self.a},{self.b},{self.c}] is not primitive")

    @property
    def discriminant(self) -> int:
        return self.b * self.b - 4 * self.a * self.c

    # Alias matching the usual letter for the discriminant.
    @property
    def K(self) -> int:
        return self.discriminant

    @property
    def is_reduced(self) -> bool:
        a, b, c = self.a, self.b, self.c
        return abs(b) <= a <= c and (b >= 0 or (abs(b) != a and a != c))

    @property
    def is_ambiguous(self) -> bool:
        """b = 0, b = a or a = c: on a reduced form, exactly when the form
        is its own inverse's reduced representative, so its class has
        order at most 2."""
        return self.b == 0 or self.b == self.a or self.a == self.c

    def conjugate(self) -> "QuadForm":
        """The inverse class's representative [a, -b, c]."""
        return QuadForm(self.a, -self.b, self.c)

    def value_at(self, x: int, y: int) -> int:
        return self.a * x * x + self.b * x * y + self.c * y * y

    def __str__(self) -> str:
        return f"[{self.a},{self.b},{self.c}]"


@dataclass(frozen=True)
class ClassGroupDescriptor:
    """The full class group of a discriminant: its reduced forms in
    lexicographic order.

    is_free_z2 (every class has order at most 2, the free-Z2-module
    condition the solution theory hinges on) holds when every reduced form
    is ambiguous. orders is computed on first access and then kept.
    """

    K: int
    reduced_forms: tuple[QuadForm, ...]

    @property
    def class_number(self) -> int:
        return len(self.reduced_forms)

    @property
    def is_free_z2(self) -> bool:
        return all(f.is_ambiguous for f in self.reduced_forms)

    @cached_property
    def orders(self) -> dict[QuadForm, int]:
        """Each class's order, in reduced_forms order.

        Walks the powers f, f^2, ..., f^n = identity of each form that no
        earlier walk reached; f^i then has order n / gcd(i, n).
        """
        identity = identity_form(self.K)
        found: dict[QuadForm, int] = {}
        for f in self.reduced_forms:
            if f in found:
                continue
            walk = [f]
            while walk[-1] != identity:
                if len(walk) >= self.class_number:
                    raise ArithmeticError(f"powers of {f} outrun the class number")
                walk.append(compose(walk[-1], f))
            n = len(walk)
            for i, g in enumerate(walk, 1):
                found[g] = n // math.gcd(i, n)
        return {f: found[f] for f in self.reduced_forms}

    def to_json_dict(self) -> dict:
        return {
            "K": self.K,
            "class_number": self.class_number,
            "forms": [[f.a, f.b, f.c] for f in self.reduced_forms],
            "orders": [self.orders[f] for f in self.reduced_forms],
            "free_z2": self.is_free_z2,
        }


def identity_form(K: int) -> QuadForm:
    """The principal form [1, 0, -K/4] representing the identity class."""
    if K >= 0 or K % 4 != 0:
        raise ValueError(f"K = {K} is not a negative discriminant divisible by 4")
    return QuadForm(1, 0, -K // 4)


def reduce(f: QuadForm) -> QuadForm:
    """The unique reduced form equivalent to f: |b| <= a <= c, with b >= 0
    whenever |b| = a or a = c."""
    a, b, c = f.a, f.b, f.c
    while True:
        # Translate b into (-a, a].
        r = b % (2 * a)
        if r > a:
            r -= 2 * a
        c += (r * r - b * b) // (4 * a)
        b = r
        if a <= c:
            break
        a, b, c = c, -b, a
    if b < 0 and (-b == a or a == c):
        b = -b
    return QuadForm(a, b, c)


def _xgcd(x: int, y: int) -> tuple[int, int, int]:
    """(g, u, v) with u*x + v*y = g = gcd(x, y), for y > 0."""
    u0, u1, v0, v1 = 1, 0, 0, 1
    while y:
        q = x // y
        x, y = y, x - q * y
        u0, u1 = u1, u0 - q * u1
        v0, v1 = v1, v0 - q * v1
    return x, u0, v0


def compose(f: QuadForm, g: QuadForm) -> QuadForm:
    """The reduced composition of the classes of f and g, by Cohen's
    Algorithm 5.4.7 (A Course in Computational Algebraic Number Theory,
    section 5.4.2): total on primitive forms, with a second extended gcd
    when gcd(a_f, a_g, (b_f + b_g)/2) > 1."""
    K = f.discriminant
    if g.discriminant != K:
        raise ValueError(f"discriminant mismatch: {K} vs {g.discriminant}")
    s = (f.b + g.b) // 2
    d, y1, _ = _xgcd(g.a, f.a)
    d1, x2, v = _xgcd(s, d)
    v1, v2 = f.a // d1, g.a // d1
    # Cohen's y2 = -v and n = b_g - s, so his y1*y2*n is y1*v*(s - b_g).
    r = (y1 * v * (s - g.b) - x2 * g.c) % v1
    A, B = v1 * v2, g.b + 2 * v2 * r
    return reduce(QuadForm(A, B, (B * B - K) // (4 * A)))


@lru_cache(maxsize=_CACHE_SIZE)
def enumerate_class_group(K: int) -> ClassGroupDescriptor:
    """All reduced forms of discriminant K = 0 (mod 4).

    Scans a <= sqrt(|K|/3) and even |b| <= a, keeping primitive reduced
    forms with integral c; the scan yields them in (a, b) order.
    """
    if K >= 0 or K % 4 != 0:
        raise ValueError(f"K = {K} is not a negative discriminant divisible by 4")
    forms = []
    for a in range(1, math.isqrt(-K // 3) + 1):
        for b in range(-a + a % 2, a + 1, 2):
            if (b * b - K) % (4 * a) != 0:
                continue
            c = (b * b - K) // (4 * a)
            if c < a:
                continue
            if b < 0 and (-b == a or a == c):
                continue
            if math.gcd(a, math.gcd(b, c)) != 1:
                continue
            forms.append(QuadForm(a, b, c))
    return ClassGroupDescriptor(K=K, reduced_forms=tuple(forms))
