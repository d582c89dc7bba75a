"""Tests for the command-line interface: dispatch, formats, exit codes."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from pelltriples import cli, quadform
from pelltriples.solutions import check_applicability, describe_solutions


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

    def test_csv_computes_no_class_orders(self, capsys, monkeypatch):
        def refuse(f, g):
            raise AssertionError("check's CSV must not compute class orders")

        monkeypatch.setattr(quadform, "compose", refuse)
        quadform.enumerate_class_group.cache_clear()
        code, out, err = run(capsys, "check", "1000001", "--format", "csv")
        assert (code, err) == (0, "")
        assert out.splitlines()[1].startswith("1000001,false,1032,false,")


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


class TestSweeps:
    @pytest.mark.parametrize("command", ["table", "verify"])
    def test_factor_nothing_and_scan_no_single_c(self, capsys, monkeypatch, command):
        def refuse(*args):
            raise AssertionError("a sweep takes c from one sieve and one scan")

        for D in (2, 5, 1365):
            check_applicability(D)  # a cold verdict factors D
        for target in (
            "pelltriples.arith.factorize",
            "pelltriples.solutions.factorize",
            "pelltriples.oracle.brute_force_solutions",
        ):
            monkeypatch.setattr(target, refuse)
        for D, fmt in ((2, "json"), (5, "csv"), (1365, "human")):
            code, _, err = run(capsys, command, str(D), "--cmax", "301", "--format", fmt)
            assert (code, err) == (0, "")

    @pytest.mark.parametrize(
        "D, cmax, rows",
        [
            (2, 1, []),
            (2, 2, []),
            (2, 3, ["2,3,1,1,1,true"]),
            (1365, 1, []),
            (1365, 2, []),
            (1365, 3, ["1365,3,1,0,0,true"]),
        ],
    )
    def test_verify_smallest_ranges(self, capsys, D, cmax, rows):
        code, out, _ = run(capsys, "verify", str(D), "--cmax", str(cmax), "--format", "csv")
        assert code == 0
        assert out.splitlines() == ["D,c,k,theory_count,oracle_count,agree", *rows]


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
    ("check 10", "3a873aca0bc654f897d8c4121bc2b8f2bbacadfbf11411dd6eceb8a9eee03f4e"),
    ("check 10 --format json", "e561eb2e869d93f4c87e8fa3fae197337cbd7c52950070c7a7223d61eb3655ab"),
    ("check 10 --format csv", "108a72b3bdd88a0a49d23bb619537f6ce550949ac096e0ff9b8aca8533901543"),
    ("check 34", "010bedb0a7bf0cc26b562f2f42a76a2553bb9ec2791fb1af033ca6158884a9f1"),
    ("check 34 --format json", "cb7a9053ba9e92e994209247e0df53a7dfa4eb2e68899a31cceafc13bd3578c2"),
    ("check 34 --format csv", "29f7c37298af4583fb0da8c04d5668571956077a89d910ac44218d9c76e5722f"),
    ("check 210", "cd687062b75c36fd8e29521e7de5d51a25308bd221776253e3409095f3359270"),
    ("check 210 --format json", "1d524bf4357a8d15a8777694cdb3196e0ee2e2fc6f4417040373299af5bd8dd3"),
    ("check 210 --format csv", "3126ef97b1294fefa3d2a7868df0b410cac2c6b8dfbf895a876544e37d920818"),
    ("check 1 --format csv", "f89046cea60bf812ed9bf93d0261e85399732693aed704e66f944fc08cec722e"),
    ("zeta 2 11", "64f9ba4bf4769ffa3809e5d0fb150fc072224b9ddd74995a44f31450c43042ab"),
    ("zeta 5 7 --format json", "cbd5a3f8cc0aaca2420f396f1ffbfbdee06dc410d0de54bea84fd63b9a667577"),
    ("zeta 210 1009 --format csv", "3bd6a2f16aaf898d4bbcb5f2b440f7966882506e3dacecdb2ca7a2af49822941"),
    ("solve 2 15", "6f3537bbcba950b73463ef04323853626dae6540f1cf1eecbb642ff1264a59c7"),
    ("solve 2 15 --format json", "cd01ada8384056358b2b8d431158b06d4a9d344dd575750692c593fd7f0b0109"),
    ("solve 2 15 --format csv", "05776d59e8139cec35f0b407064bae52e002898f53270956e3d525dd7aad27c4"),
    ("count 5 21", "53c234e5e8472b6ac51c1ae1cab3fe06fad053beb8ebfd8977b010655bfdd3c3"),
    ("count 5 21 --format json", "d688bb9affe5e1a3d1adb3f8710aa1f51de3ae2fa56edb16ee991209c59302a1"),
    ("count 5 21 --format csv", "1684a785a47e64c4dc31f906c12b0b4290be710fa0a3405e21ca9b0096218022"),
    ("factor 5 11 -8 21 --format csv", "a88feff4d2a094b8ddccc2e70c1612436db343dd1106f35c38a8e9f6efd8f591"),
    ("mul 2 1 2 3 7 6 11", "7d5c0b864c4b8994020a1e4fd86d02739e99890a494672c717fd08462643d0fe"),
    ("mul 2 1 2 3 7 6 11 --format json", "3638dfd159359cb502fea2da9f7110d86847b08d93748481ee1b438d48e394ab"),
    ("mul 2 1 2 3 7 6 11 --format csv", "b22501bd95274f9502ad325280c135cb551ef8f5592eb12a5ea3e406b4076742"),
    ("table 2 --cmax 1", "9b09d25fb3f5b49a140120153b81cb52995c825b956ce0f3d000145e967c3dd4"),
    ("table 2 --cmax 1 --format json", "1d0b4a53066de5dca008af88636ed8ac2ce016d160b7c97dbead33ac12159842"),
    ("table 2 --cmax 1 --format csv", "b29833289cb266c070463c7434b9e3d9810558f8de0ce8f7c8eb6d04a2e1a5a8"),
    ("verify 13 --cmax 1501", "26e006fd3a0773c646cbb85c63a18618e361341b5970c32a66d6b4d421e19ae1"),
    ("verify 13 --cmax 1501 --format csv", "13e7d8c154c452f89e12d140446df6f49e21029e017e2494cb860a186a5d2e61"),
    ("check 1000001", "463764a7b68985543b9c307612b7654fa1bc9c28be211870ceb0a8d4058805ef"),
    ("verify 2 --cmax 10001 --format json", "0c18db3cc9c1374cbd21e88e597d34ddb6a3504a1e42a949b7e1a616d2efebff"),
    ("verify 1365 --cmax 5001 --format csv", "130f3a12cd52202ca8b9882608b8bb9ec53c0cb3bd25cfe512585baad537aa99"),
    ("table 5 --cmax 20001 --format csv", "8fc4f03b2bf49d3ba475b94a64a6236c6fd63758ef63c8fd86eb0df12896cebd"),
    ("verify 1365 --cmax 3", "47ac417f2ce9f4a3a362933c25becd66b5a38b4b4268cae279a463764dffe648"),
    ("verify 2 --cmax 60001 --format csv", "5bd2e5fb6732d3ee513860a079e367494ec0fa9d39dce16437e351e35d43d370"),
]


@pytest.mark.parametrize(
    "command, digest", GOLDEN_STDOUT, ids=[cmd for cmd, _ in GOLDEN_STDOUT]
)
def test_golden_stdout(capsys, command, digest):
    code, out, err = run(capsys, *command.split())
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# Exact stderr of domain errors: exit 2, nothing on stdout.
DOMAIN_ERRORS = [
    ("solve 26 5", "error: class group of discriminant -104 is not a free Z2-module\n"),
    ("check -5", "error: D = -5 must be a positive integer\n"),
    ("zeta 2 5", "error: (-2/5) = -1: p^2 has no primitive representation x^2 + 2*y^2\n"),
    ("verify 26 --cmax 9", "error: class group of discriminant -104 is not a free Z2-module\n"),
    ("table 2 --cmax -5", "error: c_max = -5 must be a positive integer\n"),
    ("table 2 --cmax 0", "error: c_max = 0 must be a positive integer\n"),
]


@pytest.mark.parametrize(
    "command, stderr", DOMAIN_ERRORS, ids=[cmd for cmd, _ in DOMAIN_ERRORS]
)
def test_domain_error_stderr(capsys, command, stderr):
    assert run(capsys, *command.split()) == (2, "", stderr)


SRC = Path(__file__).resolve().parents[1] / "src"
ENTRY_POINT = [("count 5 21", 0, "2\n"), ("count 5 x", 1, ""), ("solve 26 5", 2, "")]


@pytest.mark.parametrize(
    "command, code, stdout", ENTRY_POINT, ids=[cmd for cmd, _, _ in ENTRY_POINT]
)
def test_module_entry_point(command, code, stdout):
    done = subprocess.run(
        [sys.executable, "-m", "pelltriples.cli", *command.split()],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert (done.returncode, done.stdout) == (code, stdout)
