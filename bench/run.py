"""The pelltriples benchmark.

    python3 bench/run.py --workload {sweep,bigc,classify,cli-cold}
                         --seed N --seconds S --trace {0,1}

With --trace 0 it prints every end-to-end metric by name with its unit and
sample counts, then, as its last line, one JSON object
{"correct", "attempted", "failed", "metrics"}. With --trace 1 the metrics
are the per-layer ones instead, from a traced pass over a fixed number of
blocks, together with the tracing overhead against an untraced pass over
the same blocks.

Every pass runs in a fresh interpreter (worker.py), one client with no
threads in a closed loop: an op starts when the previous one has been
answered and checked. Answers are checked outside the timed region by the
benchmark's own oracles (oracles.py). The package is imported from
src/ of the checkout this file sits in; nothing needs installing.

End-to-end times are in reference seconds: each op, and each set-up
sample, is scaled by a fixed calibration piece timed just before it, so
that the drift of a shared machine's speed cancels out (calibration.py).
Per-layer self times are as measured.
"""

from __future__ import annotations

import argparse
import json
import operator
import statistics
import subprocess
import sys
import time
from pathlib import Path

from calibration import PIECES, interpreter_start, time_piece
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"

SETUP_SAMPLES = 9  # fresh interpreters timed to the first op; the median is setup_s
CHILD_TIMEOUT_S = 150
TAIL_BEYOND = 10  # op_tail_ms is the highest percentile with this many samples beyond it
STARTUP_REFERENCE_NS = PIECES[interpreter_start][0]

TIMED_FUNCTIONS = (
    "arith.factorize", "arith.is_prime", "arith.legendre", "arith.hensel_lift",
    "quadform.enumerate_class_group", "quadform.element_order", "quadform.compose",
    "quadform.reduce", "gdgroup.multiply", "gdgroup.pow", "solutions.factor_element",
    "solutions.enumerate_solutions", "solutions.count_solutions", "solutions.zeta",
    "oracle.brute_force_solutions",
)
COUNTED_FUNCTIONS = TIMED_FUNCTIONS + (
    "arith.is_square_free", "gdgroup.to_normalized", "solutions.divides",
    "oracle.cross_check", "oracle.verify_sweep",
)
SELF_TIMED_ONLY = (
    "solutions.describe_solutions", "oracle.cross_check", "oracle.verify_sweep", "cli.main",
)


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name and its unit."""
    units = {f"{f}.calls": "count" for f in COUNTED_FUNCTIONS}
    units.update({f"{f}.self_ms": "ms" for f in TIMED_FUNCTIONS + SELF_TIMED_ONLY})
    units.update({
        "arith.factorize.per_hypotenuse": "ratio",
        "quadform.compose.per_form": "ratio",
        "quadform.enumerate_class_group.cache_hit_ratio": "ratio",
        "solutions.zeta.cache_hit_ratio": "ratio",
        "solutions.zeta.cache_size": "count",
        "solutions.check_applicability.cache_hit_ratio": "ratio",
        "oracle.b_scanned": "count",
        "oracle.hit_ratio": "ratio",
        "cli.import_ms": "ms",
        "ops.failed_ratio": "ratio",
        "ops.refused_ratio": "ratio",
        "trace.overhead_ratio": "ratio",
    })
    return units


def worker(*args: str) -> tuple[dict, int]:
    """Run worker.py in a fresh interpreter; returns its JSON report and the
    perf_counter_ns reading just before it started."""
    # perf_counter is CLOCK_MONOTONIC on Linux, shared by every process,
    # so a child's reading can be subtracted from this one.
    start_ns = time.perf_counter_ns()
    proc = subprocess.run(
        [sys.executable, str(WORKER), *args],
        cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"worker {' '.join(args)} exited with {proc.returncode}")
    return json.loads(proc.stdout.rstrip("\n").rsplit("\n", 1)[-1]), start_ns


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def tail(latencies: list[int]) -> tuple[int, float]:
    """The highest percentile with TAIL_BEYOND samples beyond it: (value in
    ns, percentile)."""
    xs = sorted(latencies)
    n = len(xs)
    if n <= TAIL_BEYOND:
        return xs[-1], 100.0
    return xs[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def measure(common: list[str], seconds: int) -> tuple[dict, int]:
    """Measured passes over successive epochs until `seconds` of op time
    have passed; returns the passes' combined report and the start of the
    first pass."""
    total = {"attempted": 0, "failed": 0, "refused": 0, "blocks": 0, "gross_ns": 0, "timed_ns": 0,
             "hypotenuses": 0, "latencies_ns": [], "failures": [],
             "peak_rss_kb": 0}
    passes = []
    while True:
        left = seconds - total["gross_ns"] / 1e9
        report, start_ns = worker("measure", *common, "--epoch", str(len(passes)),
                                  "--seconds", str(left))
        passes.append((report, start_ns))
        for key in total:
            merge = max if key == "peak_rss_kb" else operator.add
            total[key] = merge(total[key], report[key])
        if not report["exhausted"] or total["gross_ns"] >= seconds * 1e9:
            break
    first, start_ns = passes[0]
    total.update(ready_ns=first["ready_ns"], speed=first["speed"], epochs=len(passes))
    return total, start_ns


def end_to_end(name: str, seed: int, seconds: int) -> tuple[dict, dict]:
    common = ["--workload", name, "--seed", str(seed)]
    worker("setup", *common)  # compiles bytecode; users do not pay that per run
    setups, speeds = [], []
    for n in range(SETUP_SAMPLES):
        # A set-up sample is an interpreter start and more, so it is
        # scaled by the time of the interpreter-start piece just before it.
        speeds.append(STARTUP_REFERENCE_NS / time_piece(interpreter_start, time.perf_counter_ns))
        if n < SETUP_SAMPLES - 1:
            report, start_ns = worker("setup", *common)
        else:
            report, start_ns = measure(common, seconds)
        setups.append((report["ready_ns"] - start_ns) * speeds[-1])

    lat = report["latencies_ns"] or [0]  # a run with no correct op reports 0 latencies
    tail_ns, tail_pct = tail(lat)
    metrics = {
        "setup_s": (statistics.median(setups) / 1e9, "s"),
        "ops_per_s": (len(report["latencies_ns"]) / (report["timed_ns"] / 1e9), "1/s"),
        "op_p50_ms": (statistics.median(lat) / 1e6, "ms"),
        "op_tail_ms": (tail_ns / 1e6, "ms"),
        "peak_rss_mb": (report["peak_rss_kb"] / 1024, "MB"),
    }
    notes = {
        "setup_s": f"median of {len(setups)} fresh interpreters, in reference s",
        "ops_per_s": f"{len(lat)} correct ops in {report['timed_ns'] / 1e9:.3f} reference s of op time",
        "op_p50_ms": f"n={len(lat)}",
        "op_tail_ms": f"p{tail_pct:.2f}, n={len(lat)}, {TAIL_BEYOND} beyond",
        "peak_rss_mb": "largest child" if name == "cli-cold" else "workload process",
    }
    print(f"workload {name}, seed {seed}: {report['attempted']} ops attempted in "
          f"{report['blocks']} blocks over {report['epochs']} epoch(s), "
          f"{report['failed']} failed, {report['refused']} refused "
          f"(failed_ratio {ratio(report['failed'], report['attempted']):.4f})")
    print(f"  times are in reference ns (calibration.py); the machine ran at "
          f"{report['speed']:.3f} of the reference speed, set-up at {statistics.median(speeds):.3f}")
    for key, (value, unit) in metrics.items():
        print(f"  {key} = {value:.6g} {unit}  ({notes[key]})")
    return metrics, report


def per_layer(name: str, seed: int) -> tuple[dict, dict]:
    blocks = WORKLOADS[name].TRACE_BLOCKS
    common = ["--workload", name, "--seed", str(seed), "--blocks", str(blocks)]
    plain, _ = worker("fixed", *common)
    report, _ = worker("fixed", *common, "--trace")
    trace = report["trace"]
    calls, self_ns, counters = trace["calls"], trace["self_ns"], trace["counters"]
    metrics = {}
    for f in COUNTED_FUNCTIONS:
        metrics[f"{f}.calls"] = calls.get(f, 0)
    for f in TIMED_FUNCTIONS + SELF_TIMED_ONLY:
        metrics[f"{f}.self_ms"] = self_ns.get(f, 0) / 1e6
    metrics["arith.factorize.per_hypotenuse"] = ratio(
        calls.get("arith.factorize", 0), report["hypotenuses"])
    metrics["quadform.compose.per_form"] = ratio(
        calls.get("quadform.compose", 0), counters.get("quadform.forms", 0))
    for cached in ("quadform.enumerate_class_group", "solutions.zeta",
                   "solutions.check_applicability"):
        hits, misses, _ = trace["caches"].get(cached, (0, 0, 0))
        metrics[f"{cached}.cache_hit_ratio"] = ratio(hits, hits + misses)
    metrics["solutions.zeta.cache_size"] = trace["caches"].get("solutions.zeta", (0, 0, 0))[2]
    metrics["oracle.b_scanned"] = counters.get("oracle.b_scanned", 0)
    metrics["oracle.hit_ratio"] = ratio(counters.get("oracle.found", 0), metrics["oracle.b_scanned"])
    metrics["cli.import_ms"] = statistics.median(trace["import_ns"]) / 1e6
    metrics["ops.failed_ratio"] = ratio(report["failed"], report["attempted"])
    metrics["ops.refused_ratio"] = ratio(report["refused"], report["attempted"])
    metrics["trace.overhead_ratio"] = ratio(report["timed_ns"], plain["timed_ns"]) - 1
    units = per_layer_units()
    print(f"workload {name}, seed {seed}, traced over {blocks} blocks: "
          f"{report['attempted']} ops, {report['failed']} failed, {report['refused']} refused, "
          f"{trace['spans']} spans; untraced pass {plain['failed']} failed")
    for key in units:
        print(f"  {key} = {metrics[key]:.6g} {units[key]}")
    report["failed"] += plain["failed"]
    return {k: (metrics[k], units[k]) for k in units}, report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "pelltriples" / "__init__.py").is_file():
        print(f"error: no package sources at {ROOT / 'src' / 'pelltriples'}", file=sys.stderr)
        return 2
    if args.trace:
        metrics, report = per_layer(args.workload, args.seed)
    else:
        metrics, report = end_to_end(args.workload, args.seed, args.seconds)
    for failure in report["failures"]:
        print(f"  FAILED: {failure}")
    print(json.dumps({
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
