"""Tests for the command-line interface: dispatch, formats, exit codes."""

import hashlib
import json

import pytest

from pelltriples import cli
from pelltriples.solutions import describe_solutions


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestExitCodes:
    def test_success_is_zero(self, capsys):
        code, out, err = run(capsys, "count", "5", "21")
        assert code == 0
        assert out == "2\n"
        assert err == ""

    def test_domain_error_is_two(self, capsys):
        code, out, err = run(capsys, "solve", "26", "5")
        assert code == 2
        assert out == ""
        assert "class group of discriminant -104 is not a free Z2-module" in err

    def test_negative_d_is_domain_error(self, capsys):
        code, _, err = run(capsys, "check", "-5")
        assert code == 2
        assert "positive" in err

    def test_non_residue_prime_is_domain_error(self, capsys):
        code, _, err = run(capsys, "zeta", "2", "5")
        assert code == 2
        assert "no primitive representation" in err

    def test_unknown_subcommand_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["frobnicate", "2"])
        assert exc.value.code == 1

    def test_missing_argument_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["count", "5"])
        assert exc.value.code == 1

    def test_malformed_integer_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["count", "5", "twenty-one"])
        assert exc.value.code == 1

    def test_missing_cmax_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["table", "2"])
        assert exc.value.code == 1

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["--help"])
        assert exc.value.code == 0


class TestCheck:
    def test_human_not_applicable(self, capsys):
        code, out, _ = run(capsys, "check", "34")
        assert code == 0
        assert "class number: 4" in out
        assert "free Z2-module: no" in out
        assert "[5,2,7]" in out

    def test_json(self, capsys):
        code, out, _ = run(capsys, "check", "34", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["applicable"] is False
        assert payload["class_group"]["class_number"] == 4
        assert payload["class_group"]["free_z2"] is False
        assert payload["class_group"]["orders"] == [1, 2, 4, 4]

    def test_csv(self, capsys):
        code, out, _ = run(capsys, "check", "10", "--format", "csv")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "D,applicable,class_number,free_z2,reason"
        assert lines[1] == "10,true,2,true,"


class TestZeta:
    def test_human(self, capsys):
        code, out, _ = run(capsys, "zeta", "2", "11")
        assert code == 0
        assert out == "zeta_11 = (7 + 6*sqrt(-2))/11\n"

    def test_csv(self, capsys):
        _, out, _ = run(capsys, "zeta", "5", "7", "--format", "csv")
        assert out.splitlines() == ["D,p,x0,y0", "5,7,2,3"]


class TestSolve:
    def test_json_matches_library(self, capsys):
        code, out, _ = run(capsys, "solve", "5", "21", "--format", "json")
        assert code == 0
        assert json.loads(out) == describe_solutions(5, 21)

    def test_human(self, capsys):
        _, out, _ = run(capsys, "solve", "2", "33")
        assert "2 solutions" in out
        assert "(31, 8, 33)" in out and "(17, 20, 33)" in out

    def test_zero_solutions(self, capsys):
        code, out, _ = run(capsys, "solve", "2", "15")
        assert code == 0
        assert "0 solutions" in out


class TestFactorAndMul:
    def test_factor_human(self, capsys):
        code, out, _ = run(capsys, "factor", "2", "-7", "4", "9")
        assert code == 0
        assert out == "(-7 + 4*sqrt(-2))/9 = zeta_3^2\n"

    def test_factor_reduces_input(self, capsys):
        _, out, _ = run(capsys, "factor", "2", "-14", "8", "18", "--format", "json")
        payload = json.loads(out)
        assert (payload["a"], payload["b"], payload["c"]) == (-7, 4, 9)
        assert payload["factorization"] == {"sign": 1, "terms": [[3, 2]]}

    def test_factor_not_on_ellipse(self, capsys):
        code, _, err = run(capsys, "factor", "2", "1", "1", "2")
        assert code == 2
        assert "!=" in err

    def test_mul_human(self, capsys):
        code, out, _ = run(capsys, "mul", "2", "1", "2", "3", "7", "6", "11")
        assert code == 0
        assert out == "(17, 20, 33)\n"

    def test_mul_shared_hypotenuse(self, capsys):
        code, _, err = run(capsys, "mul", "2", "1", "2", "3", "1", "2", "3")
        assert code == 2
        assert "share a factor" in err


class TestTable:
    def test_csv_rows(self, capsys):
        code, out, _ = run(capsys, "table", "2", "--cmax", "33", "--format", "csv")
        assert code == 0
        assert out.splitlines() == [
            "D,c,count,solutions",
            "2,3,1,1:2",
            "2,9,1,7:4",
            "2,11,1,7:6",
            "2,17,1,1:12",
            "2,19,1,17:6",
            "2,27,1,23:10",
            "2,33,2,31:8;17:20",
        ]

    def test_csv_header_only(self, capsys):
        code, out, _ = run(capsys, "table", "2", "--cmax", "1", "--format", "csv")
        assert code == 0
        assert out == "D,c,count,solutions\n"

    def test_json_contains_row(self, capsys):
        _, out, _ = run(capsys, "table", "2", "--cmax", "9", "--format", "json")
        payload = json.loads(out)
        row = [r for r in payload["rows"] if r["c"] == 9][0]
        assert row["count"] == 1
        assert row["solutions"][0]["a"] == 7
        assert row["solutions"][0]["b"] == 4

    def test_not_applicable_exits_two(self, capsys):
        code, _, err = run(capsys, "table", "26", "--cmax", "9")
        assert code == 2
        assert "free Z2-module" in err


class TestVerify:
    def test_clean_sweep(self, capsys):
        code, out, _ = run(capsys, "verify", "2", "--cmax", "99")
        assert code == 0
        assert "49 agree, 0 disagree" in out

    def test_csv_format(self, capsys):
        _, out, _ = run(capsys, "verify", "2", "--cmax", "9", "--format", "csv")
        assert out.splitlines() == [
            "D,c,k,theory_count,oracle_count,agree",
            "2,3,1,1,1,true",
            "2,5,1,0,0,true",
            "2,7,1,0,0,true",
            "2,9,1,1,1,true",
        ]

    def test_disagreement_exits_two(self, capsys, monkeypatch):
        monkeypatch.setattr(
            "pelltriples.oracle.enumerate_solutions", lambda D, c: set()
        )
        code, out, err = run(capsys, "verify", "2", "--cmax", "9")
        assert code == 2
        assert "disagree" in out
        assert "verification failed" in err

    def test_not_applicable_exits_two(self, capsys):
        code, _, err = run(capsys, "verify", "34", "--cmax", "9")
        assert code == 2
        assert "free Z2-module" in err


class TestDeterminism:
    def test_identical_invocations_identical_bytes(self, capsys):
        runs = [
            run(capsys, "solve", "5", "441", "--format", "json")[1] for _ in range(2)
        ]
        assert runs[0] == runs[1]


# sha256 of stdout for fixed invocations. The CLI's output is meant to stay
# byte-identical across versions, so a digest changes only together with a
# deliberate, documented change of output.
GOLDEN_STDOUT = [
    ("solve 10 7007", "089e2f0d2f15fbb95ea1129116f68e4b70e055b014b91c7b64feebeb05e8709e"),
    ("solve 10 19019 --format json", "dc31d612e907dfa476abcb848d740c5e7bfe83d2417117822eb499b32cf18f8c"),
    ("solve 210 1363783 --format csv", "79ba21828d20e9388758fe164370c5045f08a70b4e851e8e5676f901b8334a2e"),
    ("table 2 --cmax 3001", "e64624c140dcadd1a7fae14bb0ea25ac8e20b5aae45b78d55689b7c565c40843"),
    ("table 5 --cmax 2001 --format json", "b3fb61057a4e9316ef7862f7429dfd613bf5d8eda8cf1f262573f89db629e65a"),
    ("table 1365 --cmax 3001 --format csv", "f91928b989abb8da8ab4c89bb54addcb90c98343596faa46f5ad994369d1d733"),
    ("verify 13 --cmax 1501 --format json", "db097612cdfaa18f58c6c474c195a70062ed81136d048d644110ae2e9dc97f0a"),
    ("factor 2 -7 4 9", "234725ba8c38bdc8506b248b4bf91b11d8d45d7049498d3de1c5240b3e21333e"),
    ("factor 5 11 -8 21 --format json", "d20a5dd561c70904c19bdf41394980ca3b2daa87180792e8fd1ea0725f965bae"),
]


@pytest.mark.parametrize(
    "command, digest", GOLDEN_STDOUT, ids=[cmd for cmd, _ in GOLDEN_STDOUT]
)
def test_golden_stdout(capsys, command, digest):
    code, out, err = run(capsys, *command.split())
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest
