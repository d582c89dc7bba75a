"""Tests for applicability, elementary solutions, divisibility,
factorization, enumeration, and counting."""

import math

import pytest

from pelltriples import arith, quadform, solutions
from pelltriples.arith import factorize, legendre
from pelltriples.errors import (
    NotRepresentableError,
    UnsupportedClassGroupError,
)
from pelltriples.gdgroup import GroupElement, NormalizedSolution, conjugate
from pelltriples.solutions import (
    Factorization,
    ZetaFactor,
    check_applicability,
    count_solutions,
    describe_solutions,
    divides,
    enumerate_solutions,
    factor_element,
    multiply_solutions,
    recompose,
    require_applicable,
    solution_exists,
    zeta,
)

# Euler's 65 idoneal numbers (OEIS A000926).
IDONEAL = (
    1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 12, 13, 15, 16, 18, 21, 22, 24, 25, 28,
    30, 33, 37, 40, 42, 45, 48, 57, 58, 60, 70, 72, 78, 85, 88, 93, 102, 105,
    112, 120, 130, 133, 165, 168, 177, 190, 210, 232, 240, 253, 273, 280,
    312, 330, 345, 357, 385, 408, 462, 520, 760, 840, 1320, 1365, 1848,
)

APPLICABLE_D = [D for D in IDONEAL if check_applicability(D).applicable]
APPLICABLE_D_UP_TO_60 = [
    D for D in range(2, 61) if check_applicability(D).applicable
]


def _primes_below(limit):
    return [p for p in range(3, limit, 2) if all(p % q for q in range(3, p, 2))]


def _sieve_primes(limit):
    """The odd primes below limit."""
    flags = bytearray([1]) * limit
    for i in range(3, math.isqrt(limit) + 1, 2):
        if flags[i]:
            flags[i * i :: 2 * i] = bytes(len(flags[i * i :: 2 * i]))
    return [i for i in range(3, limit, 2) if flags[i]]


PRIMES_BELOW_2000 = _sieve_primes(2000)


def _square_free(n):
    return all(n % (q * q) for q in range(2, math.isqrt(n) + 1))


@pytest.fixture
def fresh_caches():
    """Empty the verdict and class-group caches before and after a test."""
    check_applicability.cache_clear()
    quadform.enumerate_class_group.cache_clear()
    yield
    check_applicability.cache_clear()
    quadform.enumerate_class_group.cache_clear()


def _brute_zeta_candidates(D, p):
    out = []
    for y0 in range(1, math.isqrt((p * p - 1) // D) + 1):
        rest = p * p - D * y0 * y0
        x0 = math.isqrt(rest)
        if x0 >= 1 and x0 * x0 == rest and math.gcd(x0, y0) == 1:
            out.append((x0, y0))
    return out


class TestCheckApplicability:
    def test_known_applicable(self):
        for D in (2, 5, 6, 10, 13, 22, 37, 58):
            verdict = check_applicability(D)
            assert verdict.applicable
            assert verdict.class_number <= 2
            assert verdict.reason is None

    def test_d210(self):
        verdict = check_applicability(210)
        assert verdict.applicable
        assert verdict.class_number == 8

    def test_d34_not_free(self):
        verdict = check_applicability(34)
        assert not verdict.applicable
        assert not verdict.free_z2
        assert verdict.class_number == 4
        assert "not a free Z2-module" in verdict.reason

    def test_d26_not_free(self):
        verdict = check_applicability(26)
        assert not verdict.applicable
        assert verdict.reason == (
            "class group of discriminant -104 is not a free Z2-module"
        )

    def test_applicable_d_are_the_square_free_idoneal_numbers(self, fresh_caches):
        assert len(IDONEAL) == 65
        expected = {
            D for D in IDONEAL if D > 1 and D % 4 in (1, 2) and _square_free(D)
        }
        assert len(expected) == 33 and max(expected) == 1365
        applicable = {D for D in range(1, 5001) if check_applicability(D).applicable}
        assert applicable == expected

    def test_caches_are_bounded(self, fresh_caches):
        bound = quadform._CACHE_SIZE
        for D in range(1, 2 * bound):
            check_applicability(D)
        for cached in (check_applicability, quadform.enumerate_class_group):
            assert cached.cache_info().currsize <= bound
        # The bound holds every applicable D: a second pass over them only hits.
        applicable = [D for D in IDONEAL if check_applicability(D).applicable]
        assert len(applicable) == 33
        misses = check_applicability.cache_info().misses
        for D in applicable:
            check_applicability(D)
        assert check_applicability.cache_info().misses == misses

    def test_verdict_composes_nothing(self, fresh_caches, monkeypatch):
        def refuse(*args):
            raise AssertionError("the verdict must not compose forms")

        monkeypatch.setattr(quadform, "compose", refuse)
        for D, applicable in (
            (26, False),
            (34, False),
            (210, True),
            (1365, True),
            (10**6 + 1, False),
        ):
            verdict = check_applicability(D)
            assert verdict.applicable == applicable
            assert verdict.free_z2 == applicable

    def test_d1_distinct_reason(self):
        verdict = check_applicability(1)
        assert not verdict.applicable
        assert verdict.residue_ok and verdict.square_free and verdict.free_z2
        assert "D = 1" in verdict.reason

    def test_residue_and_square_free_reasons(self):
        assert not check_applicability(3).applicable
        assert "2 or 3 mod 4" in check_applicability(3).reason
        assert not check_applicability(12).applicable
        assert "square-free" in check_applicability(12).reason

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            check_applicability(0)

    def test_full_applicable_list_up_to_60(self):
        assert APPLICABLE_D_UP_TO_60 == [2, 5, 6, 10, 13, 21, 22, 30, 33, 37, 42, 57, 58]


class TestSolutionExists:
    def test_examples(self):
        assert solution_exists(2, 9)
        assert not solution_exists(2, 4)
        assert not solution_exists(2, 1)
        assert not solution_exists(2, 15)

    def test_unsupported_d(self):
        with pytest.raises(UnsupportedClassGroupError):
            solution_exists(26, 5)

    def test_matches_legendre_filter(self):
        for c in range(3, 400, 2):
            expected = all(
                legendre(-2, p) == 1 for p, _ in factorize(c).factors
            )
            assert solution_exists(2, c) == expected


class TestZeta:
    def test_known_values(self):
        assert (zeta(2, 3).x0, zeta(2, 3).y0) == (1, 2)
        assert (zeta(2, 11).x0, zeta(2, 11).y0) == (7, 6)
        assert (zeta(5, 7).x0, zeta(5, 7).y0) == (2, 3)

    def test_uniqueness_sweep(self):
        # Exactly one coprime positive representation of p^2 for every
        # applicable D <= 60 and admissible p < 200, and zeta finds it.
        for D in APPLICABLE_D_UP_TO_60:
            for p in _primes_below(200):
                if D % p == 0 or legendre(-D, p) != 1:
                    continue
                candidates = _brute_zeta_candidates(D, p)
                assert len(candidates) == 1, (D, p, candidates)
                zf = zeta(D, p)
                assert (zf.x0, zf.y0) == candidates[0]

    def test_non_residue_prime(self):
        with pytest.raises(NotRepresentableError):
            zeta(2, 5)

    def test_p_divides_d(self):
        with pytest.raises(ValueError):
            zeta(10, 5)

    def test_p_not_odd_prime(self):
        with pytest.raises(ValueError):
            zeta(2, 2)
        with pytest.raises(ValueError):
            zeta(2, 9)

    def test_unsupported_d(self):
        with pytest.raises(UnsupportedClassGroupError):
            zeta(26, 3)

    def test_validation(self):
        with pytest.raises(ValueError):
            ZetaFactor(2, 3, 2, 1)  # 4 + 2 != 9

    @pytest.mark.parametrize("D, p", [(2, 1009), (5, 1009), (2, 1019), (210, 1021)])
    def test_cold_zeta_proves_p_prime_once(self, monkeypatch, D, p):
        require_applicable(D)  # a cold verdict may prove primes of its own
        calls = []
        real = arith.is_prime

        def counting(n):
            calls.append(n)
            return real(n)

        monkeypatch.setattr(arith, "is_prime", counting)
        zeta.cache_clear()
        zeta(D, p)
        assert calls == [p]

    def test_cache_is_bounded(self):
        bound = solutions._ZETA_CACHE_SIZE
        split = [
            (D, p)
            for D in APPLICABLE_D
            for p in PRIMES_BELOW_2000
            if D % p and legendre(-D, p) == 1
        ]
        # Every split prime below 2000 of every applicable D fits.
        assert len(split) <= bound
        zeta.cache_clear()
        for D, p in split:
            zeta(D, p)
        misses = zeta.cache_info().misses
        for D, p in split:
            zeta(D, p)
        assert zeta.cache_info().misses == misses
        fresh = [p for p in _sieve_primes(25 * bound) if legendre(-2, p) == 1]
        assert len(fresh) > bound
        for p in fresh:
            zeta(2, p)
        assert zeta.cache_info().currsize == bound


class TestDivides:
    def test_examples(self):
        assert divides((1, 2), (-7, 4), 2) == (1, 2)
        assert divides((1, 2), (7, 4), 2) is None
        assert divides((1, 0), (5, 3), 2) == (5, 3)

    def test_zero_divisor(self):
        with pytest.raises(ValueError):
            divides((0, 0), (1, 1), 2)

    def test_quotient_recomposes(self):
        u, v, D = (2, 1), (-11, 8), 5
        q = divides(u, v, D)
        assert q is not None
        x, y = q
        assert (u[0] * x - D * u[1] * y, u[0] * y + x * u[1]) == v

    def test_exactly_one_of_pair(self):
        # For solutions and each prime power of c, the factor or its
        # conjugate divides, never both, never neither.
        for D in (2, 5, 6, 10):
            for c in range(3, 200, 2):
                for s in enumerate_solutions(D, c):
                    for p, alpha in factorize(c).factors:
                        zf = zeta(D, p)
                        w = zf.x0, zf.y0
                        wbar = zf.x0, -zf.y0
                        hits = sum(
                            divides(u, (s.a, s.b), D) is not None
                            for u in (w, wbar)
                        )
                        assert hits == 1


class TestFactorElement:
    def test_examples(self):
        assert factor_element(GroupElement(2, -7, 4, 9)) == Factorization(
            2, 1, ((3, 2),)
        )
        assert factor_element(GroupElement(5, -11, 8, 21)) == Factorization(
            5, 1, ((3, 1), (7, 1))
        )
        assert factor_element(GroupElement(5, 19, -4, 21)) == Factorization(
            5, 1, ((3, 1), (7, -1))
        )

    def test_units(self):
        assert factor_element(GroupElement(2, 1, 0, 1)) == Factorization(2, 1, ())
        assert factor_element(GroupElement(2, -1, 0, 1)) == Factorization(2, -1, ())

    def test_unsupported_d(self):
        with pytest.raises(UnsupportedClassGroupError):
            factor_element(GroupElement(26, 1, 0, 1))

    def test_roundtrip_sweep(self):
        # recompose(factor_element(z)) == z on every enumerated solution
        # and its whole sign/conjugation orbit.
        for D in (2, 5, 6, 10):
            for c in range(3, 302, 2):
                for s in enumerate_solutions(D, c):
                    z = s.to_element()
                    for candidate in (z, conjugate(z)):
                        for sign in (1, -1):
                            elem = GroupElement(
                                D, sign * candidate.a, sign * candidate.b, candidate.c
                            )
                            fact = factor_element(elem)
                            assert recompose(fact) == elem

    def test_exponent_magnitude_matches_multiplicity(self):
        for D in (2, 5):
            for c in (9, 27, 99, 121):
                for s in enumerate_solutions(D, c):
                    fact = factor_element(s.to_element())
                    exps = {p: abs(e) for p, e in fact.terms}
                    assert exps == {p: a for p, a in factorize(c).factors}

    def test_malformed_factorization_rejected(self):
        with pytest.raises(ValueError):
            Factorization(2, 2, ())
        with pytest.raises(ValueError):
            Factorization(2, 1, ((3, 0),))
        with pytest.raises(ValueError):
            Factorization(2, 1, ((7, 1), (3, 1)))


class TestEnumerateSolutions:
    def test_examples(self):
        assert enumerate_solutions(2, 3) == {NormalizedSolution(2, 1, 2, 3)}
        assert enumerate_solutions(5, 21) == {
            NormalizedSolution(5, 11, 8, 21),
            NormalizedSolution(5, 19, 4, 21),
        }
        assert enumerate_solutions(2, 33) == {
            NormalizedSolution(2, 17, 20, 33),
            NormalizedSolution(2, 31, 8, 33),
        }

    def test_empty_cases(self):
        assert enumerate_solutions(2, 4) == set()
        assert enumerate_solutions(2, 1) == set()
        assert enumerate_solutions(2, 15) == set()

    def test_unsupported_d(self):
        with pytest.raises(UnsupportedClassGroupError):
            enumerate_solutions(26, 5)

    def test_three_prime_hypotenuse(self):
        c = 3 * 11 * 17
        found = enumerate_solutions(2, c)
        assert len(found) == 4
        assert all(s.c == c for s in found)

    def test_count_law(self):
        for D in (2, 5, 13):
            for c in range(3, 250, 2):
                found = enumerate_solutions(D, c)
                n = count_solutions(D, c)
                assert len(found) == n
                if n:
                    k = factorize(c).distinct_prime_count
                    assert n == 2 ** (k - 1)


class TestCountSolutions:
    def test_examples(self):
        assert count_solutions(2, 9) == 1
        assert count_solutions(5, 21) == 2
        assert count_solutions(2, 15) == 0
        assert count_solutions(2, 1) == 0

    def test_unsupported_d(self):
        with pytest.raises(UnsupportedClassGroupError):
            count_solutions(34, 9)


class TestMultiplySolutions:
    def test_examples(self):
        assert multiply_solutions(
            NormalizedSolution(5, 2, 1, 3), NormalizedSolution(5, 2, 3, 7)
        ) == NormalizedSolution(5, 11, 8, 21)
        assert multiply_solutions(
            NormalizedSolution(2, 1, 2, 3), NormalizedSolution(2, 7, 6, 11)
        ) == NormalizedSolution(2, 17, 20, 33)

    def test_shared_hypotenuse_rejected(self):
        s = NormalizedSolution(2, 1, 2, 3)
        with pytest.raises(ValueError):
            multiply_solutions(s, s)

    def test_mismatched_d(self):
        with pytest.raises(ValueError):
            multiply_solutions(
                NormalizedSolution(5, 2, 1, 3), NormalizedSolution(2, 1, 2, 3)
            )

    def test_output_components_coprime(self):
        for D in (2, 5, 6):
            pool = [s for c in range(3, 60, 2) for s in enumerate_solutions(D, c)]
            for s1 in pool:
                for s2 in pool:
                    if math.gcd(s1.c, s2.c) != 1:
                        continue
                    out = multiply_solutions(s1, s2)
                    assert math.gcd(out.a, out.b) == 1
                    assert out.c == s1.c * s2.c


class TestDescribeSolutions:
    def test_schema(self):
        report = describe_solutions(5, 21)
        assert report["D"] == 5 and report["c"] == 21 and report["count"] == 2
        assert [s["b"] for s in report["solutions"]] == [4, 8]
        for entry in report["solutions"]:
            fact = Factorization(
                5,
                entry["factorization"]["sign"],
                tuple((p, e) for p, e in entry["factorization"]["terms"]),
            )
            z = recompose(fact)
            assert (abs(z.a), abs(z.b), z.c) == (entry["a"], entry["b"], entry["c"])

    def test_empty(self):
        assert describe_solutions(2, 15) == {
            "D": 2,
            "c": 15,
            "count": 0,
            "solutions": [],
        }


THEORY = (solution_exists, count_solutions, enumerate_solutions, describe_solutions)
FACTORIZE = ("pelltriples.arith.factorize", "pelltriples.solutions.factorize")


def _refuse(monkeypatch, *targets):
    """Make every call to the named functions fail."""

    def refuse(*args):
        raise AssertionError(f"refused call with {args}")

    for target in targets:
        monkeypatch.setattr(target, refuse)


class TestFactoredHypotenuse:
    @pytest.mark.parametrize("D", [2, 5, 1365])
    def test_proven_values_answer_as_ints_without_factoring(self, monkeypatch, D):
        odd = range(3, 3002, 2)
        by_int = [[f(D, c) for f in THEORY] for c in odd]
        factored = [arith.factorize(c) for c in odd]
        # The int pass warmed every cache, so a proven value needs neither
        # factorize nor a primality test.
        _refuse(monkeypatch, *FACTORIZE, "pelltriples.arith.is_prime")
        for values in (arith._odd_factorizations(3001), factored):
            assert [[f(D, n) for f in THEORY] for n in values] == by_int

    def test_user_built_value_has_its_primes_proven(self, monkeypatch):
        by_int = [f(5, 21) for f in THEORY]
        _refuse(monkeypatch, *FACTORIZE)
        built = arith.FactoredInteger(21, ((3, 1), (7, 1)))
        assert [f(5, built) for f in THEORY] == by_int
        for f in THEORY:
            with pytest.raises(ValueError, match="21 is not an odd prime"):
                f(5, arith.FactoredInteger(21, ((21, 1),)))

    def test_interleaved_sweeps(self, monkeypatch):
        odd = range(3, 302, 2)
        want_counts = {c: count_solutions(2, c) for c in odd}
        want_found = {c: enumerate_solutions(1365, c) for c in odd[1:]}
        _refuse(monkeypatch, *FACTORIZE)
        first = arith._odd_factorizations(301)
        second = arith._odd_factorizations(301)
        next(second)
        counts, found = {}, {}
        for n in first:
            counts[n.value] = count_solutions(2, n)
            m = next(second, None)
            if m is not None:
                found[m.value] = enumerate_solutions(1365, m)
        assert (counts, found) == (want_counts, want_found)
