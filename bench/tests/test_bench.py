"""Tests of the benchmark itself: seeded inputs, the answer checks, the
tracer's bookkeeping, and repeatable traced counts.

    python3 -m pytest bench/tests -q
"""

from __future__ import annotations

import copy
import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import calibration  # noqa: E402
import oracles  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer, package_modules  # noqa: E402
from workloads import REFUSED, WORKLOADS, Op  # noqa: E402

worker.import_package()
from pelltriples import cli, solutions  # noqa: E402

MODULES = {"cli": cli, "solutions": solutions}


def first_blocks(name: str, seed: int, n: int = 2) -> list:
    blocks = WORKLOADS[name](seed).blocks()
    return [next(blocks) for _ in range(n)]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_same_inputs(name):
    assert first_blocks(name, 7) == first_blocks(name, 7)
    assert first_blocks(name, 7) != first_blocks(name, 8)


def test_applicable_d_are_the_square_free_idoneal_numbers():
    assert len(oracles.APPLICABLE_D) == 33
    assert max(oracles.APPLICABLE_D) == 1365
    assert all(solutions.check_applicability(D).applicable for D in oracles.APPLICABLE_D)


def test_classify_epoch_has_one_applicable_d_per_block():
    blocks = list(WORKLOADS["classify"](3).blocks())
    assert len(blocks) == len(oracles.APPLICABLE_D)
    ds = [op.args[0] for block in blocks for op in block]
    assert len(ds) == len(set(ds))
    for block in blocks:
        assert len(block) == WORKLOADS["classify"].PER_BLOCK + 1
        assert sum(op.args[0] in oracles.APPLICABLE_D for op in block) == 1
    assert blocks != list(WORKLOADS["classify"](3, epoch=1).blocks())


def test_bigc_keeps_over_bound_inputs_as_refusals():
    workload = WORKLOADS["bigc"](5)
    ops = [op for op in next(workload.blocks()) if op.expect[1]]
    assert len(ops) == 1
    workload.bind(MODULES)
    with pytest.raises(ValueError) as refusal:
        workload.run(ops[0])
    assert workload.check(ops[0], None, refusal.value) == REFUSED
    for crash in (AssertionError("bad"), TypeError("x"), RecursionError(), ValueError("bad")):
        assert workload.check(ops[0], None, crash) not in (None, REFUSED)


def small_bigc_op() -> tuple:
    workload = WORKLOADS["bigc"](5)
    workload.bind(MODULES)
    op = next(op for op in next(workload.blocks()) if max(op.expect[0]) < 10**6)
    return workload, op, workload.run(op)


def test_correct_bigc_answer_passes():
    workload, op, result = small_bigc_op()
    assert workload.check(op, result, None) is None


@pytest.mark.parametrize("mangle", [
    lambda r: r.update(count=r["count"] + 1),
    lambda r: r["solutions"][0].update(a=r["solutions"][0]["a"] + 2),
    lambda r: r["solutions"][1]["factorization"]["terms"].reverse(),
    lambda r: r["solutions"].pop(),
])
def test_wrong_bigc_answer_fails(mangle):
    workload, op, result = small_bigc_op()
    bad = copy.deepcopy(result)
    mangle(bad)
    assert workload.check(op, bad, None) not in (None, REFUSED)


def test_wrong_sweep_answer_fails():
    workload = WORKLOADS["sweep"](1)
    workload.bind(MODULES)
    op = Op("table", (5, 301), hypotenuses=150)
    code, out = workload.run(op)
    assert workload.check(op, (code, out), None) is None
    payload = json.loads(out)
    payload["rows"][3]["count"] += 1
    assert workload.check(op, (code, json.dumps(payload)), None) is not None
    verify = Op("verify", (5, 301), hypotenuses=150)
    code, out = workload.run(verify)
    assert workload.check(verify, (code, out), None) is None
    payload = json.loads(out)
    payload["agreements"] -= 1
    assert workload.check(verify, (code, json.dumps(payload)), None) is not None


def test_wrong_answers_count_as_failed_ops():
    class OffByOne:
        name = "off-by-one"
        CALIBRATION = staticmethod(calibration.bigint_remainders)

        def run(self, op):
            return solutions.count_solutions(*op.args) + 1

        def check(self, op, result, exc):
            return None if result == op.expect else f"count {op.args} = {result}"

    blocks = iter([[Op("count", (5, 21), 2), Op("count", (5, 3 * 7 * 23), 4)]])
    report = worker.run_blocks(OffByOne(), blocks, count=1)
    assert (report["attempted"], report["failed"], report["latencies_ns"]) == (2, 2, [])


def test_run_child_drains_both_pipes():
    script = "import sys; print('out'); sys.stderr.write('e' * 200000); sys.exit(3)"
    code, out, err, rss_kb = workloads.run_child([sys.executable, "-c", script], None)
    assert (code, out, err) == (3, "out\n", "e" * 200000)
    assert rss_kb > 0


def test_calibration_leaves_the_collector_as_it_was():
    import gc

    ticks = iter(range(0, 100, 7))
    assert calibration.time_piece(calibration.small_objects, lambda: next(ticks)) == 7
    assert gc.isenabled()


def test_tail_is_the_highest_percentile_with_ten_beyond():
    value, pct = run.tail(list(range(100)))
    assert (value, pct) == (89, 90.0)
    assert run.tail([5, 1]) == (5, 100.0)


def snapshot() -> dict:
    return {
        (m.__name__, attr): value
        for m in package_modules()
        for attr, value in vars(m).items()
    }


def test_tracer_restores_every_binding():
    before = snapshot()
    tracer = Tracer().install()
    try:
        import pelltriples
        from pelltriples import arith, gdgroup, quadform

        wrapped = [
            (solutions, "factorize", arith.factorize),
            (solutions, "legendre", arith.legendre),
            (solutions, "multiply", gdgroup.multiply),
            (solutions, "element_pow", gdgroup.pow),
            (quadform, "factorize", arith.factorize),
            (pelltriples, "element_pow", gdgroup.pow),
        ]
        for module, attr, defined in wrapped:
            assert getattr(module, attr) is defined  # the defining module is wrapped too
            assert getattr(module, attr) is not before[(module.__name__, attr)]
        solutions.count_solutions(5, 21)
        calls = tracer.summary()["calls"]
        assert calls["solutions.count_solutions"] == 1
        assert calls["arith.factorize"] >= 2
    finally:
        tracer.uninstall()
    after = snapshot()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)


def test_self_time_excludes_children():
    tracer = Tracer().install()
    try:
        solutions.describe_solutions(5, 3 * 7 * 23 * 29)
    finally:
        tracer.uninstall()
    spans = list(tracer.spans())
    total = {}
    for name, start, end, _, _ in spans:
        total[name] = total.get(name, 0) + end - start
    summary = tracer.summary()
    top = spans[0]
    assert top[0] == "solutions.describe_solutions" and top[3] == -1
    assert 0 < summary["self_ns"]["solutions.describe_solutions"] < total[top[0]]
    outermost = sum(end - start for _, start, end, parent, _ in spans if parent == -1)
    assert sum(summary["self_ns"].values()) == outermost


def traced_counts(name: str, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "worker.py"), "fixed", "--workload", name,
         "--seed", str(seed), "--blocks", "1", "--trace"],
        capture_output=True, text=True, check=True, timeout=300,
    )
    trace = json.loads(proc.stdout.splitlines()[-1])["trace"]
    return {key: trace[key] for key in ("calls", "caches", "counters", "spans")}


@pytest.mark.parametrize("name", ["classify", "sweep"])
def test_traced_counts_repeat_for_a_seed(name):
    first = traced_counts(name, 4)
    assert first == traced_counts(name, 4)
    compose = first["calls"]["quadform.compose"]
    assert compose > 0 if name == "classify" else compose == 0
