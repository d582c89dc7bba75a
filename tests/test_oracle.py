"""Tests for the brute-force oracle and the theory cross-checks."""

import builtins
import dis
import types

import pytest

from pelltriples.arith import factorize, legendre
from pelltriples.errors import UnsupportedClassGroupError
from pelltriples.gdgroup import NormalizedSolution
from pelltriples.oracle import (
    AGREE,
    DISAGREE,
    NOT_APPLICABLE,
    _scan_range,
    brute_force_solutions,
    cross_check,
    verify_sweep,
)
from pelltriples.solutions import enumerate_solutions, factor_element, recompose


class TestBruteForce:
    def test_d5_c21_with_gcd_rejections(self):
        # The scan hits (14,7,21) and (6,9,21) too; gcd filters them out.
        assert brute_force_solutions(5, 21) == (
            NormalizedSolution(5, 19, 4, 21),
            NormalizedSolution(5, 11, 8, 21),
        )

    def test_d26_c5_empty(self):
        assert brute_force_solutions(26, 5) == ()

    def test_d2_c9(self):
        assert brute_force_solutions(2, 9) == (NormalizedSolution(2, 7, 4, 9),)

    def test_sorted_by_b_no_duplicates(self):
        for c in (99, 297, 561):
            found = brute_force_solutions(2, c)
            bs = [s.b for s in found]
            assert bs == sorted(bs)
            assert len(set(found)) == len(found)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            brute_force_solutions(0, 5)
        with pytest.raises(ValueError):
            brute_force_solutions(2, 0)


class TestScanRange:
    @pytest.mark.parametrize("D", [1, 2, 5, 26, 210, 1365])
    def test_equals_brute_force_on_every_c(self, D):
        found = _scan_range(D, 3001)
        assert max(found) <= 3001
        for c in range(1, 3002):
            assert tuple(found.get(c, ())) == brute_force_solutions(D, c), c

    def test_empty_b_range(self):
        assert _scan_range(1365, 3) == {}
        assert _scan_range(2, 1) == {}


class TestChordWalk:
    @pytest.mark.parametrize("D", [3, 6, 7, 10, 11, 14, 15, 21, 30])
    def test_equals_brute_force_on_every_c_even_included(self, D):
        # For D = 3 (mod 4), c can be even and the gcd g reaches 2*gcd(m, D):
        # D = 3, m = 3, n = 1 gives (6, 6, 12)/6 = (1, 1, 2).
        found = _scan_range(D, 1001)
        for c in range(1, 1002):
            assert tuple(found.get(c, ())) == brute_force_solutions(D, c), c

    @pytest.mark.parametrize("D", [4, 12, 18])
    def test_rejects_non_square_free_d(self, D):
        with pytest.raises(AssertionError):
            _scan_range(D, 100)

    @pytest.mark.parametrize("function", [_scan_range, brute_force_solutions])
    def test_reads_no_theory(self, function):
        # The oracle's own passes read no global but math and
        # NormalizedSolution, so they share no code with the theory.
        codes, read = [function.__code__], set()
        while codes:
            code = codes.pop()
            codes += [c for c in code.co_consts if isinstance(c, types.CodeType)]
            read |= {
                i.argval for i in dis.get_instructions(code) if i.opname == "LOAD_GLOBAL"
            }
        assert read - set(vars(builtins)) <= {"math", "NormalizedSolution"}
        assert "math" in read


class TestCrossCheck:
    def test_agree_with_solutions(self):
        report = cross_check(2, 33)
        assert report.agrees_with_theory == AGREE
        assert len(report.solutions) == 2

    def test_not_applicable(self):
        report = cross_check(26, 5)
        assert report.agrees_with_theory == NOT_APPLICABLE
        assert report.solutions == ()

    def test_agree_on_empty(self):
        report = cross_check(2, 15)
        assert report.agrees_with_theory == AGREE
        assert report.solutions == ()

    def test_even_hypotenuse(self):
        report = cross_check(2, 12)
        assert report.agrees_with_theory == AGREE
        assert report.solutions == ()

    def test_disagree_on_the_set_alone(self, monkeypatch):
        # Same count, different solutions: only the set comparison sees it.
        wrong = {NormalizedSolution(2, 7, 4, 9)}
        monkeypatch.setattr("pelltriples.oracle.enumerate_solutions", lambda D, c: wrong)
        report = cross_check(2, 3)
        assert len(report.solutions) == 1
        assert report.agrees_with_theory == DISAGREE


class TestVerifySweep:
    def test_d2_small_sweep_clean(self):
        summary = verify_sweep(2, 500)
        assert summary.all_agree
        assert summary.disagreements == ()
        assert summary.agreements == len(summary.rows) == len(range(3, 501, 2))

    def test_rows_in_c_order(self):
        summary = verify_sweep(6, 99)
        assert [r.c for r in summary.rows] == list(range(3, 100, 2))

    def test_counts_follow_prime_criterion(self):
        # Both directions of the existence criterion, on raw oracle counts.
        summary = verify_sweep(10, 301)
        for row in summary.rows:
            fi = factorize(row.c)
            if all(legendre(-10, p) == 1 for p, _ in fi.factors):
                assert row.oracle_count == 2 ** (fi.distinct_prime_count - 1)
            else:
                assert row.oracle_count == 0

    def test_enumerates_only_positive_counts(self, monkeypatch):
        enumerated = []
        real = enumerate_solutions
        monkeypatch.setattr(
            "pelltriples.oracle.enumerate_solutions",
            lambda D, n: enumerated.append(n.value) or real(D, n),
        )
        summary = verify_sweep(2, 301)
        assert summary.all_agree
        assert enumerated == [r.c for r in summary.rows if r.theory_count]

    def test_disagrees_where_the_theory_counts_zero(self, monkeypatch):
        # (-2/5) = -1, so the theory counts 0 at c = 15.
        monkeypatch.setattr(
            "pelltriples.oracle._scan_range", lambda D, c_max: {**_scan_range(D, c_max), 15: ["x"]}
        )
        summary = verify_sweep(2, 21)
        assert [(r.c, r.theory_count, r.oracle_count) for r in summary.rows if not r.agree] == [
            (15, 0, 1)
        ]

    def test_unsupported_d(self):
        with pytest.raises(UnsupportedClassGroupError):
            verify_sweep(26, 100)

    def test_rejects_bad_cmax(self):
        with pytest.raises(ValueError):
            verify_sweep(2, 0)


class TestOracleSolutionsFactor:
    def test_every_oracle_solution_factors(self):
        for D in (2, 5, 13):
            for c in range(3, 200, 2):
                for s in brute_force_solutions(D, c):
                    z = s.to_element()
                    assert recompose(factor_element(z)) == z
