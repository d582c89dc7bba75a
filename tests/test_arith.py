"""Tests for primality, factorization, Legendre symbols, square roots mod p,
and Hensel lifting."""

import math
import random

import pytest
from hypothesis import given, strategies as st

from pelltriples import arith
from pelltriples.arith import (
    FactoredInteger,
    PrimePower,
    factorize,
    hensel_lift,
    is_prime,
    is_square_free,
    legendre,
    sqrt_mod_p,
)
from pelltriples.errors import NoSquareRootError


def _sieve(limit):
    flags = bytearray([1]) * limit
    flags[0:2] = b"\x00\x00"
    for i in range(2, math.isqrt(limit) + 1):
        if flags[i]:
            flags[i * i :: i] = bytes(len(flags[i * i :: i]))
    return [i for i in range(limit) if flags[i]]


PRIMES_BELOW_200 = _sieve(200)
ODD_PRIMES_BELOW_200 = [p for p in PRIMES_BELOW_200 if p > 2]


class TestIsPrime:
    def test_agrees_with_sieve_below_10000(self):
        primes = set(_sieve(10000))
        for n in range(10000):
            assert is_prime(n) == (n in primes)

    def test_large_known_prime(self):
        assert is_prime(2**61 - 1)

    def test_large_known_composite(self):
        assert not is_prime((2**31 - 1) ** 2)

    def test_refuses_beyond_deterministic_bound(self):
        with pytest.raises(ValueError):
            is_prime(10**25 + 13)


class TestLegendre:
    def test_matches_naive_square_search(self):
        for p in ODD_PRIMES_BELOW_200:
            residues = {x * x % p for x in range(1, p)}
            for a in range(p):
                expected = 0 if a == 0 else (1 if a in residues else -1)
                assert legendre(a, p) == expected

    def test_multiplicative(self):
        rng = random.Random(20318)
        for _ in range(500):
            p = rng.choice(ODD_PRIMES_BELOW_200)
            a, b = rng.randrange(1, p), rng.randrange(1, p)
            assert legendre(a * b, p) == legendre(a, p) * legendre(b, p)

    def test_negative_argument(self):
        assert legendre(-26, 5) == 1
        assert legendre(-2, 3) == 1
        assert legendre(-26, 11) == -1
        assert legendre(-7, 3) == -1

    def test_rejects_non_prime_modulus(self):
        with pytest.raises(ValueError):
            legendre(3, 15)
        with pytest.raises(ValueError):
            legendre(3, 2)

    def test_euler_criterion_refuses_two(self):
        # (2 - 1) / 2 = 0 would make every a read -1.
        with pytest.raises(AssertionError):
            arith._legendre_prime(1, 2)


class TestSqrtModP:
    def test_all_residues_all_small_primes(self):
        for p in ODD_PRIMES_BELOW_200:
            for a in range(1, p):
                if legendre(a, p) == 1:
                    r = sqrt_mod_p(a, p)
                    assert r * r % p == a
                    assert 1 <= r <= p - r
                else:
                    with pytest.raises(NoSquareRootError):
                        sqrt_mod_p(a, p)

    def test_zero_has_no_nonzero_root(self):
        with pytest.raises(NoSquareRootError):
            sqrt_mod_p(0, 7)

    def test_tonelli_shanks_branch(self):
        # p = 1 (mod 4) exercises the general algorithm.
        for p in (13, 17, 29, 41, 97, 193):
            for a in range(1, p):
                if legendre(a, p) == 1:
                    r = sqrt_mod_p(a, p)
                    assert r * r % p == a


class TestHenselLift:
    def test_known_value(self):
        assert hensel_lift(2, 3, 2) == 4

    def test_exactness_random(self):
        rng = random.Random(40921)
        for _ in range(300):
            D = rng.randrange(1, 60)
            p = rng.choice(ODD_PRIMES_BELOW_200)
            if D % p == 0 or legendre(-D, p) != 1:
                continue
            e = rng.randrange(1, 6)
            s = rng.choice([hensel_lift(D, p, e)])
            assert (s * s + D) % p**e == 0
            assert 0 < s < p**e

    def test_lift_tower_is_consistent(self):
        # Each lift reduces to the one below.
        for e in range(1, 6):
            s = hensel_lift(2, 3, e)
            assert s % 3 == hensel_lift(2, 3, 1)

    def test_rejects_p_dividing_D(self):
        with pytest.raises(ValueError):
            hensel_lift(6, 3, 2)

    def test_rejects_non_residue(self):
        with pytest.raises(NoSquareRootError):
            hensel_lift(7, 3, 2)


@pytest.fixture
def primality_proofs(monkeypatch):
    """The arguments of every is_prime call made during the test."""
    calls = []
    real = arith.is_prime

    def counting(n):
        calls.append(n)
        return real(n)

    monkeypatch.setattr(arith, "is_prime", counting)
    return calls


class TestPrimeProvenOnce:
    # 1009 = 1 (mod 16) takes Tonelli-Shanks with a non-residue search,
    # 1019 = 3 (mod 4) the a^((p+1)/4) shortcut.
    @pytest.mark.parametrize("p", [1009, 1019])
    def test_sqrt_mod_p(self, primality_proofs, p):
        a = 2 * 2 % p
        assert sqrt_mod_p(a, p) == 2
        assert primality_proofs == [p]

    @pytest.mark.parametrize("p", [1009, 1019])
    def test_hensel_lift(self, primality_proofs, p):
        D = next(D for D in range(1, p) if legendre(-D, p) == 1)
        primality_proofs.clear()
        s = hensel_lift(D, p, 3)
        assert (s * s + D) % p**3 == 0
        assert primality_proofs == [p]


class TestOddFactorizations:
    def test_matches_factorize(self):
        assert [n.factors for n in arith._odd_factorizations(20001)] == [
            factorize(n).factors for n in range(3, 20002, 2)
        ]

    def test_bounds(self):
        for n_max in range(12):
            want = list(range(3, n_max + 1, 2))
            assert [n.value for n in arith._odd_factorizations(n_max)] == want


class TestFactorize:
    def test_small_values(self):
        assert factorize(1) == FactoredInteger(1, ())
        assert factorize(12) == FactoredInteger(
            12, (PrimePower(2, 2), PrimePower(3, 1))
        )
        assert factorize(97) == FactoredInteger(97, (PrimePower(97, 1),))

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            factorize(0)

    @given(st.integers(min_value=1, max_value=10**12))
    def test_roundtrip(self, n):
        fi = factorize(n)
        assert fi.value == n
        prod = 1
        for p, e in fi.factors:
            assert is_prime(p)
            prod *= p**e
        assert prod == n
        assert list(fi.factors) == sorted(fi.factors)

    def test_semiprime_beyond_trial_bound(self):
        p, q = 1_000_003, 1_000_033
        fi = factorize(p * q)
        assert fi.factors == (PrimePower(p, 1), PrimePower(q, 1))

    def test_prime_power_beyond_trial_bound(self):
        p = 1_000_003
        assert factorize(p * p).factors == (PrimePower(p, 2),)

    def test_cofactor_above_mr_bound_of_primes_below_trial_limit(self):
        # Trial division to 10^4 leaves the six primes, a cofactor above the
        # Miller-Rabin bound, so it goes on dividing until it drops below.
        six = (10007, 20011, 30011, 40009, 50021, 60013)
        assert math.prod(six) > arith._MR_DETERMINISTIC_BOUND
        n = factorize(3 * 11 * 17 * math.prod(six))
        assert n.factors == tuple(PrimePower(p, 1) for p in (3, 11, 17) + six)

    def test_cofactor_drops_below_mr_bound_partway(self):
        # 500009 takes the cofactor below the bound; 700001 is left to rho.
        rest = 700001 * 120000007 * 120000031
        assert rest < arith._MR_DETERMINISTIC_BOUND <= 500009 * rest
        n = factorize(500009 * rest)
        assert [p for p, _ in n.factors] == [500009, 700001, 120000007, 120000031]

    def test_refuses_cofactor_above_mr_bound_with_no_prime_below_10_6(self):
        # Two small primes and four in (2^21, 2^24): a composite cofactor
        # whose primality Miller-Rabin cannot decide.
        huge = 2097169 * 2097211 * 16777199 * 16777213
        assert huge >= arith._MR_DETERMINISTIC_BOUND
        with pytest.raises(ValueError, match="bound"):
            factorize(2557 * 2549 * huge)

    @pytest.mark.parametrize("p", [10007, 1_000_003, 2**31 - 1])
    def test_rho_splits_prime_squares(self, p):
        assert arith._pollard_rho(p * p) == p
        assert factorize(p * p).factors == (PrimePower(p, 2),)

    def test_rho_splits_30_bit_semiprime(self):
        p, q = 1073741783, 1073741789
        assert arith._pollard_rho(p * q) in (p, q)
        assert factorize(p * q).factors == (PrimePower(p, 1), PrimePower(q, 1))

    def test_distinct_prime_count(self):
        assert factorize(2 * 3 * 5 * 7).distinct_prime_count == 4
        assert factorize(8).distinct_prime_count == 1

    def test_malformed_factorization_rejected(self):
        with pytest.raises(ValueError):
            FactoredInteger(6, (PrimePower(3, 1), PrimePower(2, 1)))
        with pytest.raises(ValueError):
            FactoredInteger(6, (PrimePower(2, 1),))


class TestIsSquareFree:
    def test_known_values(self):
        assert is_square_free(1)
        assert is_square_free(2 * 3 * 5 * 7 * 11)
        assert not is_square_free(4)
        assert not is_square_free(18)
        assert not is_square_free(2 * 3 * 3 * 5)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            is_square_free(0)
