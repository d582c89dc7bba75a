"""Tests for quadratic form reduction, composition, and class group
enumeration."""

import math
import random

import pytest

from pelltriples.quadform import (
    ClassGroupDescriptor,
    QuadForm,
    compose,
    enumerate_class_group,
    identity_form,
    reduce,
)

# (K, class number) pairs checked against independent hand enumeration.
KNOWN_CLASS_NUMBERS = {
    -4: 1,
    -8: 1,
    -20: 2,
    -24: 2,
    -40: 2,
    -52: 2,
    -88: 2,
    -104: 6,
    -136: 4,
    -148: 2,
    -232: 2,
    -840: 8,
}


def _unimodular_action(f, p, q, r, s):
    # f(px + qy, rx + sy) with ps - qr = 1.
    a = f.value_at(p, r)
    b = 2 * f.a * p * q + f.b * (p * s + q * r) + 2 * f.c * r * s
    c = f.value_at(q, s)
    return QuadForm(a, b, c)


def _random_sl2(rng):
    # Product of elementary matrices keeps entries small and det = 1.
    p, q, r, s = 1, 0, 0, 1
    for _ in range(rng.randrange(1, 6)):
        t = rng.randrange(-3, 4)
        if rng.random() < 0.5:
            p, q, r, s = p + t * r, q + t * s, r, s
        else:
            p, q, r, s = p, q, r + t * p, s + t * q
    return p, q, r, s


def _power(f, n):
    # f^n by repeated squaring, independent of the order walk.
    result, base = identity_form(f.K), f
    while n:
        if n & 1:
            result = compose(result, base)
        base = compose(base, base)
        n >>= 1
    return result


def _prime_divisors(n):
    primes, q = [], 2
    while q * q <= n:
        if n % q == 0:
            primes.append(q)
            while n % q == 0:
                n //= q
        q += 1
    return primes + [n] if n > 1 else primes


class TestQuadForm:
    def test_rejects_indefinite(self):
        with pytest.raises(ValueError):
            QuadForm(1, 5, 1)
        with pytest.raises(ValueError):
            QuadForm(-1, 0, -2)

    def test_rejects_imprimitive(self):
        with pytest.raises(ValueError):
            QuadForm(2, 0, 4)

    def test_discriminant(self):
        assert QuadForm(1, 0, 26).discriminant == -104
        assert QuadForm(5, 2, 7).K == -136

    def test_conjugate(self):
        assert QuadForm(3, 2, 9).conjugate() == QuadForm(3, -2, 9)

    def test_is_ambiguous(self):
        assert QuadForm(2, 0, 13).is_ambiguous
        assert QuadForm(2, 2, 7).is_ambiguous
        assert QuadForm(5, 4, 5).is_ambiguous
        assert not QuadForm(3, 2, 9).is_ambiguous
        assert not QuadForm(3, -2, 9).is_ambiguous


class TestReduce:
    def test_known_reductions(self):
        assert reduce(QuadForm(3, 10, 9)) == QuadForm(1, 0, 2)
        assert reduce(QuadForm(1, 0, 26)) == QuadForm(1, 0, 26)
        assert reduce(QuadForm(5, 4, 6)) == QuadForm(5, 4, 6)

    def test_idempotent_and_reduced(self):
        rng = random.Random(7311)
        for _ in range(400):
            K = -4 * rng.randrange(1, 80)
            desc = enumerate_class_group(K)
            f = rng.choice(desc.reduced_forms)
            g = _unimodular_action(f, *_random_sl2(rng))
            assert reduce(g) == f
            assert reduce(reduce(g)) == reduce(g)
            assert reduce(g).is_reduced

    def test_boundary_sign_convention(self):
        # |b| = a and a = c edges keep b nonnegative.
        assert reduce(QuadForm(3, -3, 5)).b >= 0
        assert reduce(QuadForm(2, -1, 2)).b >= 0


class TestCompose:
    def test_identity_law(self):
        assert compose(QuadForm(1, 0, 10), QuadForm(2, 0, 5)) == QuadForm(2, 0, 5)

    def test_inverse_law(self):
        assert compose(QuadForm(3, 2, 9), QuadForm(3, -2, 9)) == QuadForm(1, 0, 26)

    def test_order_two_square(self):
        assert compose(QuadForm(2, 0, 5), QuadForm(2, 0, 5)) == QuadForm(1, 0, 10)

    def test_discriminant_mismatch(self):
        with pytest.raises(ValueError):
            compose(QuadForm(1, 0, 10), QuadForm(1, 0, 26))

    def test_group_axioms_small_class_groups(self):
        for K, h in KNOWN_CLASS_NUMBERS.items():
            if h > 8:
                continue
            desc = enumerate_class_group(K)
            forms = desc.reduced_forms
            e = identity_form(K)
            assert e in forms
            for f in forms:
                assert compose(e, f) == f
                assert compose(f, reduce(f.conjugate())) == e
                for g in forms:
                    assert compose(f, g) in forms
                    assert compose(f, g) == compose(g, f)
                    for k in forms:
                        assert compose(compose(f, g), k) == compose(f, compose(g, k))


class TestElementOrder:
    def test_known_orders(self):
        assert enumerate_class_group(-104).orders[QuadForm(1, 0, 26)] == 1
        assert enumerate_class_group(-136).orders[QuadForm(5, 2, 7)] == 4
        assert enumerate_class_group(-40).orders[QuadForm(2, 0, 5)] == 2

    def test_lagrange(self):
        for K in KNOWN_CLASS_NUMBERS:
            desc = enumerate_class_group(K)
            for f, n in desc.orders.items():
                assert desc.class_number % n == 0


class TestEnumerateClassGroup:
    def test_known_class_numbers(self):
        for K, h in KNOWN_CLASS_NUMBERS.items():
            assert enumerate_class_group(K).class_number == h

    def test_explicit_forms_k_minus_104(self):
        desc = enumerate_class_group(-104)
        expected = {
            QuadForm(1, 0, 26),
            QuadForm(2, 0, 13),
            QuadForm(3, 2, 9),
            QuadForm(3, -2, 9),
            QuadForm(5, 4, 6),
            QuadForm(5, -4, 6),
        }
        assert set(desc.reduced_forms) == expected

    def test_forms_sorted_and_consistent(self):
        for K in KNOWN_CLASS_NUMBERS:
            desc = enumerate_class_group(K)
            assert list(desc.reduced_forms) == sorted(desc.reduced_forms)
            assert desc.class_number == len(desc.reduced_forms)
            assert all(f.discriminant == K for f in desc.reduced_forms)
            assert all(f.is_reduced for f in desc.reduced_forms)

    def test_free_z2_iff_all_orders_at_most_two(self):
        for K in sorted(set(KNOWN_CLASS_NUMBERS) | {-4 * D for D in range(1, 301)}):
            desc = enumerate_class_group(K)
            squares_trivial = all(
                compose(f, f) == identity_form(K) for f in desc.reduced_forms
            )
            assert desc.is_free_z2 == squares_trivial
            assert desc.is_free_z2 == all(n <= 2 for n in desc.orders.values())

    def test_orders_exact(self):
        # n is the order of f: f^n is the identity, no f^(n/q) for a prime q | n is.
        for K in [-4 * D for D in range(1, 301)] + [-4 * (10**6 + 1)]:
            desc = enumerate_class_group(K)
            e = identity_form(K)
            for f, n in desc.orders.items():
                assert _power(f, n) == e
                assert all(_power(f, n // q) != e for q in _prime_divisors(n))

    def test_non_free_example(self):
        desc = enumerate_class_group(-136)
        assert not desc.is_free_z2
        assert desc.orders[QuadForm(5, 2, 7)] == 4

    def test_descriptor_hashable(self):
        desc = enumerate_class_group(-20)
        assert desc.orders[QuadForm(2, 2, 3)] == 2
        assert hash(desc) == hash(ClassGroupDescriptor(-20, desc.reduced_forms))
        assert {desc: 1}[desc] == 1

    def test_rejects_bad_discriminant(self):
        with pytest.raises(ValueError):
            enumerate_class_group(-7)
        with pytest.raises(ValueError):
            enumerate_class_group(4)

    def test_json_shape(self):
        d = enumerate_class_group(-40).to_json_dict()
        assert d == {
            "K": -40,
            "class_number": 2,
            "forms": [[1, 0, 10], [2, 0, 5]],
            "orders": [1, 2],
            "free_z2": True,
        }


class TestDescriptorInvariants:
    def test_identity_present_once(self):
        for K in KNOWN_CLASS_NUMBERS:
            desc = enumerate_class_group(K)
            matches = [f for f in desc.reduced_forms if f == identity_form(K)]
            assert len(matches) == 1
            assert desc.orders[matches[0]] == 1

    def test_composition_total_without_dirichlet_condition(self):
        # Pairs with gcd(a_f, a_g, (b_f + b_g)/2) > 1 take the second
        # extended gcd of Cohen's Algorithm 5.4.7.
        rng, third = random.Random(5150), random.Random(5151)
        second_gcd = 0
        for _ in range(200):
            K = -4 * rng.randrange(1, 120)
            desc = enumerate_class_group(K)
            f = rng.choice(desc.reduced_forms)
            g = rng.choice(desc.reduced_forms)
            k = third.choice(desc.reduced_forms)
            second_gcd += math.gcd(f.a, math.gcd(g.a, (f.b + g.b) // 2)) > 1
            assert compose(f, g) in desc.reduced_forms
            assert compose(compose(f, g), k) == compose(f, compose(g, k))
        assert second_gcd > 0
