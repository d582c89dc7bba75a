"""Primitive positive-definite binary quadratic forms [a, b, c] of
discriminant K = b^2 - 4ac < 0.

Provides reduction to the unique reduced class representative, Dirichlet
composition (made total on primitive forms via an equivalent-representative
fallback), class group enumeration for K = 0 (mod 4), and the test that
every class has order at most 2. That test needs no composition: a class
has order at most 2 exactly when its reduced form is ambiguous (Gauss's
genus theory). Element orders are computed only when a caller asks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

from .arith import factorize

# Iterated composition gives up past this many steps; no class group this
# package can enumerate comes anywhere near it.
_ORDER_CAP = 10**4

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
        """Each class's order, by iterated composition."""
        return {f: element_order(f) for f in self.reduced_forms}

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


def _equivalent_with_coprime_leading(g: QuadForm, m: int) -> QuadForm:
    """A form equivalent to g whose leading coefficient is coprime to m.

    For each prime q | m at least one of g(1,0), g(0,1), g(1,1) is prime to q
    (all three divisible would contradict primitivity), so gluing those
    choices with the CRT yields a coprime represented value.
    """
    if math.gcd(g.a, m) == 1:
        return g
    x, y, modulus = 0, 0, 1
    for q, _ in factorize(m).factors:
        if g.a % q != 0:
            xq, yq = 1, 0
        elif g.c % q != 0:
            xq, yq = 0, 1
        else:
            xq, yq = 1, 1
        inv = pow(modulus, -1, q)
        x += modulus * ((xq - x) * inv % q)
        y += modulus * ((yq - y) * inv % q)
        modulus *= q
    # Nudge y within its residue class until the pair is unimodular.
    while math.gcd(x, y) != 1:
        y += modulus
    u, v = _bezout(x, y)
    a1 = g.value_at(x, y)
    b1 = 2 * g.a * x * -v + g.b * (x * u - v * y) + 2 * g.c * y * u
    c1 = g.value_at(-v, u)
    return QuadForm(a1, b1, c1)


def _bezout(x: int, y: int) -> tuple[int, int]:
    """(u, v) with u*x + v*y = gcd(x, y) = 1."""
    r0, r1, u0, u1 = x, y, 1, 0
    while r1:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        u0, u1 = u1, u0 - q * u1
    v = (r0 - u0 * x) // y if y else 0
    return u0, v


def compose(f: QuadForm, g: QuadForm) -> QuadForm:
    """The reduced Dirichlet composition of the classes of f and g.

    The direct formula needs gcd(a_f, a_g, (b_f + b_g)/2) = 1; when that
    fails, g is first replaced by an equivalent form with leading
    coefficient coprime to a_f, which restores the condition.
    """
    K = f.discriminant
    if g.discriminant != K:
        raise ValueError(f"discriminant mismatch: {K} vs {g.discriminant}")
    if math.gcd(f.a, math.gcd(g.a, (f.b + g.b) // 2)) != 1:
        g = _equivalent_with_coprime_leading(g, f.a)
    a1, b1, a2, b2 = f.a, f.b, g.a, g.b

    # B = b1 (mod 2*a1), B = b2 (mod 2*a2), B^2 = K (mod 4*a1*a2); the
    # coprimality condition makes the first two solvable and exactly one
    # of the d residues mod 2*a1*a2 satisfies the quadratic constraint.
    d = math.gcd(a1, a2)
    n = (b2 - b1) // 2
    assert n % d == 0, "composition precondition violated"
    step = a2 // d
    t = (n // d) * pow(a1 // d, -1, step) % step if step > 1 else 0
    candidate = b1 + 2 * a1 * t
    period = 2 * a1 * a2 // d
    for _ in range(d):
        if (candidate * candidate - K) % (4 * a1 * a2) == 0:
            break
        candidate += period
    else:
        raise AssertionError("no admissible middle coefficient")  # pragma: no cover
    B = candidate % (2 * a1 * a2)
    C = (B * B - K) // (4 * a1 * a2)
    return reduce(QuadForm(a1 * a2, B, C))


def element_order(f: QuadForm) -> int:
    """Smallest n >= 1 with f^n in the identity class."""
    identity = identity_form(f.discriminant)
    current = reduce(f)
    order = 1
    while current != identity:
        current = compose(current, f)
        order += 1
        if order > _ORDER_CAP:
            raise ArithmeticError(f"order of {f} exceeds {_ORDER_CAP}")
    return order


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
