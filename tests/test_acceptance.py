"""Acceptance suite: the end-to-end guarantees this package ships with.

Each test covers one criterion and prints a single PASS/FAIL line (visible
with pytest -s or in the captured output of a failing run). Tolerances are
zero everywhere; the two timed criteria assert their stated budgets.
"""

import functools
import math
import random
import time

import pytest

from pelltriples.arith import factorize, legendre
from pelltriples.errors import UnsupportedClassGroupError
from pelltriples.gdgroup import (
    GroupElement,
    NormalizedSolution,
    conjugate,
    gamma_orbit,
    identity,
    multiply,
)
from pelltriples.gdgroup import pow as element_pow
from pelltriples.oracle import brute_force_solutions
from pelltriples.quadform import QuadForm, enumerate_class_group
from pelltriples.solutions import (
    check_applicability,
    count_solutions,
    describe_solutions,
    divides,
    enumerate_solutions,
    factor_element,
    recompose,
    solution_exists,
    zeta,
)

DESK_DS = (2, 5, 6, 10, 13, 22, 37, 58)


def criterion(name):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {name}: FAIL")
                raise
            print(f"ACCEPTANCE {name}: PASS")

        return wrapper

    return decorate


@pytest.fixture(scope="module")
def sweeps():
    """Run both oracle sweeps once; later criteria reuse the results."""
    t0 = time.monotonic()
    desk = {
        (D, c): (enumerate_solutions(D, c), brute_force_solutions(D, c))
        for D in DESK_DS
        for c in range(3, 2001, 2)
    }
    desk_seconds = time.monotonic() - t0
    extended = {
        (210, c): (enumerate_solutions(210, c), brute_force_solutions(210, c))
        for c in range(3, 1001, 2)
        if math.gcd(c, 210) == 1
    }
    solutions = [s for found, _ in desk.values() for s in found]
    solutions += [s for found, _ in extended.values() for s in found]
    return {
        "desk": desk,
        "desk_seconds": desk_seconds,
        "extended": extended,
        "solutions": solutions,
    }


@criterion("applicability-list")
def test_applicability_list():
    check_applicability.cache_clear()
    enumerate_class_group.cache_clear()
    t0 = time.monotonic()
    for D in DESK_DS:
        verdict = check_applicability(D)
        assert verdict.applicable
        assert verdict.free_z2
        assert verdict.class_number <= 2
    d1 = check_applicability(1)
    assert not d1.applicable
    assert d1.residue_ok and d1.square_free and d1.free_z2
    assert "D = 1" in d1.reason
    assert time.monotonic() - t0 < 1.0


@criterion("negative-classifications")
def test_negative_classifications():
    d26 = check_applicability(26)
    assert d26.class_number == 6
    assert not d26.applicable

    d34 = check_applicability(34)
    assert d34.class_number == 4
    assert not d34.free_z2
    assert enumerate_class_group(-136).orders[QuadForm(5, 2, 7)] == 4

    d210 = check_applicability(210)
    assert d210.class_number == 8
    assert d210.free_z2
    assert d210.applicable


@criterion("counterexample-d26-c5")
def test_counterexample_d26_c5():
    assert legendre(-26, 5) == 1
    assert brute_force_solutions(26, 5) == ()
    with pytest.raises(UnsupportedClassGroupError):
        solution_exists(26, 5)
    with pytest.raises(UnsupportedClassGroupError):
        count_solutions(26, 5)
    with pytest.raises(UnsupportedClassGroupError):
        enumerate_solutions(26, 5)


@criterion("counting-theorem-desk-scale")
def test_counting_theorem_desk_scale(sweeps):
    for (D, c), (found, oracle) in sweeps["desk"].items():
        assert sorted(found, key=lambda s: s.b) == list(oracle), (D, c)
        in_s = all(legendre(-D, p) == 1 for p, _ in factorize(c).factors)
        expected = 2 ** (factorize(c).distinct_prime_count - 1) if in_s else 0
        assert len(found) == expected, (D, c)
    assert sweeps["desk_seconds"] < 300.0


@criterion("extended-check-d210")
def test_extended_check_d210(sweeps):
    assert len(sweeps["extended"]) > 0
    for (D, c), (found, oracle) in sweeps["extended"].items():
        assert D == 210
        assert sorted(found, key=lambda s: s.b) == list(oracle), c


@criterion("factorization-round-trip")
def test_factorization_round_trip(sweeps):
    assert len(sweeps["solutions"]) > 2500
    # describe_solutions knows each factorization by construction;
    # factor_element rediscovers it by divisibility, independently.
    built = {}
    for (D, c), (found, _) in {**sweeps["desk"], **sweeps["extended"]}.items():
        if found:
            for entry in describe_solutions(D, c)["solutions"]:
                s = NormalizedSolution(D, entry["a"], entry["b"], entry["c"])
                built[s] = entry["factorization"]
    assert set(built) == set(sweeps["solutions"])
    for s in sweeps["solutions"]:
        z = s.to_element()
        fact = factor_element(z)
        assert recompose(fact) == z
        assert {p: abs(e) for p, e in fact.terms} == {
            p: a for p, a in factorize(s.c).factors
        }
        assert built[s] == fact.to_json_dict(), s


@criterion("group-law-property-suite")
def test_group_law_property_suite(sweeps):
    rng = random.Random(81628)
    pool = sweeps["solutions"]
    by_d = {}
    for s in pool:
        by_d.setdefault(s.D, []).append(s)

    def draw(D):
        s = rng.choice(by_d[D])
        z = GroupElement(D, s.a, s.b, s.c)
        if rng.random() < 0.5:
            z = conjugate(z)
        if rng.random() < 0.5:
            z = GroupElement(D, -z.a, -z.b, z.c)
        return z

    for _ in range(10**4):
        D = rng.choice(list(by_d))
        x, y, z = draw(D), draw(D), draw(D)
        xy = multiply(x, y)
        assert xy == multiply(y, x)
        assert multiply(xy, z) == multiply(x, multiply(y, z))
        assert multiply(x, identity(D)) == x
        assert multiply(x, conjugate(x)) == identity(D)
        assert xy.a**2 + D * xy.b**2 == xy.c**2


@criterion("exactly-one-divisibility")
def test_exactly_one_divisibility(sweeps):
    rng = random.Random(60601)
    pool = sweeps["solutions"]
    for _ in range(10**3):
        s = rng.choice(pool)
        p, alpha = rng.choice(factorize(s.c).factors)
        zf = zeta(s.D, p)
        w = element_pow(GroupElement(s.D, zf.x0, zf.y0, zf.p), alpha)
        hits = sum(
            divides(u, (s.a, s.b), s.D) is not None
            for u in ((w.a, w.b), (w.a, -w.b))
        )
        assert hits == 1, (s, p, alpha)


@criterion("d1-multiplication-vignettes")
def test_d1_multiplication_vignettes():
    z = GroupElement(1, 3, 4, 5)
    square = multiply(z, z)
    assert gamma_orbit(square) == gamma_orbit(GroupElement(1, 7, 24, 25))
    assert (abs(square.a), abs(square.b), square.c) == (7, 24, 25)

    product = multiply(z, GroupElement(1, 5, 12, 13))
    assert gamma_orbit(product) == gamma_orbit(GroupElement(1, 33, 56, 65))
    assert (abs(product.a), abs(product.b), product.c) == (33, 56, 65)
