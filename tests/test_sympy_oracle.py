"""arith against the installed sympy, which shares no code with it:
factorize against sympy.factorint and is_prime against sympy.isprime.

factorize refuses exactly the n whose primes above 10^6 multiply to at
least the Miller-Rabin bound, where is_prime refuses to decide; sympy's
factorization says which n those are.
"""

import math
import random

import pytest

sympy = pytest.importorskip("sympy")

from pelltriples import arith
from pelltriples.arith import factorize, is_prime


def _agrees_with_sympy(n):
    want = sympy.factorint(n)
    over = math.prod(p**e for p, e in want.items() if p > 10**6)
    if over >= arith._MR_DETERMINISTIC_BOUND:
        with pytest.raises(ValueError, match="bound"):
            factorize(n)
    else:
        assert dict(factorize(n).factors) == want, n


def test_factorize_random_up_to_10_18():
    rng = random.Random(1918)
    for _ in range(200):
        _agrees_with_sympy(rng.randrange(1, 10**18 + 1))


def test_factorize_primes_straddling_trial_bounds():
    rng = random.Random(61)

    def primes(lo, hi, k):
        return [sympy.nextprime(rng.randrange(lo, hi)) for _ in range(k)]

    edges = []
    for edge in (10**4, 10**6):
        edges += [sympy.prevprime(edge), sympy.nextprime(edge)]
        edges += primes(edge // 4, edge, 2) + primes(edge, 4 * edge, 2)
    huge = primes(2**21, 2**24, 4)
    for _ in range(40):
        chosen = rng.sample(edges, rng.randrange(1, 7))
        chosen += rng.sample(huge, rng.choice((0, 1, 2, 4)))
        _agrees_with_sympy(math.prod(p ** rng.choice((1, 1, 2)) for p in chosen))


def test_is_prime_below_mr_bound():
    rng = random.Random(4)
    for _ in range(2000):
        n = rng.randrange(1, 10**18 + 1)
        assert is_prime(n) == sympy.isprime(n), n
    for _ in range(200):
        p, q = (sympy.nextprime(rng.randrange(10**6, 10**12)) for _ in range(2))
        assert not is_prime(p * q)
        assert is_prime(p)
