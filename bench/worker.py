"""One workload process. `run.py` starts a fresh interpreter on this file
for every set-up sample and every measured or traced pass, so no timed op
is ever answered from a cache that an earlier run filled.

    worker.py setup   --workload W --seed N
    worker.py measure --workload W --seed N --seconds S [--epoch E]
    worker.py fixed   --workload W --seed N --blocks B [--trace]
    worker.py cli-op  [--trace] CLI-ARGS...

`setup` stops once the first op could start; `measure` runs whole blocks
of epoch E (see workloads.py) until S seconds of op time have passed or
the epoch's blocks run out; `fixed` runs exactly B blocks, so that a
traced pass repeats exactly; `cli-op` is one CLI process of the cli-cold
workload, traced or not, started through this file. Each mode but
`cli-op` prints one JSON line.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import resource
import statistics
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
WALL_LIMIT_FACTOR = 2.5  # a measured pass stops at this many times --seconds of wall time
MAX_FAILURES_SHOWN = 5


def import_package():
    """Import the package from this checkout's sources; returns the time
    `import pelltriples.cli` took, in ns."""
    sys.path.insert(0, str(SRC))
    start = time.perf_counter_ns()
    import pelltriples.cli  # noqa: F401

    elapsed = time.perf_counter_ns() - start
    import pelltriples

    if Path(pelltriples.__file__).resolve().parent != SRC / "pelltriples":
        raise ImportError(f"pelltriples imported from {pelltriples.__file__}, not {SRC}")
    return elapsed


def make_hooks() -> dict:
    """Counters that only a call's arguments or result show: the b values
    the brute-force oracle scans and the solutions it finds, and the
    reduced forms each newly enumerated class group holds."""
    seen_k: set[int] = set()

    def brute_force(counters, args, kwargs, result):
        params = dict(zip(("D", "c"), args), **kwargs)
        D, c = params["D"], params["c"]
        counters["oracle.b_scanned"] = counters.get("oracle.b_scanned", 0) + math.isqrt(c * c // D)
        counters["oracle.found"] = counters.get("oracle.found", 0) + len(result)

    def class_group(counters, args, kwargs, result):
        if result.K not in seen_k:
            seen_k.add(result.K)
            counters["quadform.forms"] = counters.get("quadform.forms", 0) + len(result.reduced_forms)

    return {"oracle.brute_force_solutions": brute_force, "quadform.enumerate_class_group": class_group}


def setup(name: str, seed: int, epoch: int = 0):
    """Everything before the first timed op: the import, the first block of
    inputs, and require_applicable for the workload's D values."""
    import_ns = import_package()
    from pelltriples import cli, solutions
    from workloads import WORKLOADS

    workload = WORKLOADS[name](seed, epoch)
    blocks = workload.blocks()
    first = next(blocks)
    for D in workload.d_values:
        solutions.require_applicable(D)
    workload.bind({"cli": cli, "solutions": solutions})
    return workload, itertools.chain([first], blocks), import_ns


def run_blocks(workload, blocks, *, seconds=None, count=None, tracer=None) -> dict:
    """Run whole blocks in a closed loop, one op at a time, timing each op
    and checking its answer outside the timed region. Stops after `count`
    blocks, at the first block boundary after `seconds` of op time, or
    when the blocks run out.

    The workload's calibration piece is timed just before each op, and
    the op's time is reported in reference ns (see calibration.py)."""
    from calibration import PIECES, time_piece
    from workloads import REFUSED

    clock = time.perf_counter_ns
    reference_ns = PIECES[workload.CALIBRATION][0]
    latencies, failures, speeds = [], [], []
    attempted = failed = refused = hypotenuses = gross = timed = blocks_run = 0
    exhausted = True
    wall_start = clock()
    wall_limit = None if seconds is None else WALL_LIMIT_FACTOR * seconds * 1e9
    for n, block in enumerate(blocks):
        if (
            n == count
            or (seconds is not None and gross >= seconds * 1e9)
            or (wall_limit is not None and clock() - wall_start > wall_limit)
        ):
            exhausted = False
            break
        blocks_run += 1
        for op in block:
            calibration_ns = time_piece(workload.CALIBRATION, clock)
            if tracer is not None:
                tracer.op_id = attempted
            exc = result = None
            start = clock()
            try:
                result = workload.run(op)
            except Exception as e:  # a raising op is a failed (or refused) op
                exc = e
            elapsed = clock() - start
            speed = reference_ns / calibration_ns
            speeds.append(speed)
            gross += elapsed
            timed += round(elapsed * speed)
            attempted += 1
            hypotenuses += op.hypotenuses
            verdict = workload.check(op, result, exc)
            if verdict is None:
                latencies.append(round(elapsed * speed))
            elif verdict == REFUSED:
                refused += 1
            else:
                failed += 1
                if len(failures) < MAX_FAILURES_SHOWN:
                    failures.append(verdict)
    return {
        "attempted": attempted,
        "failed": failed,
        "refused": refused,
        "blocks": blocks_run,
        "gross_ns": gross,
        "timed_ns": timed,
        "latencies_ns": latencies,
        "speed": statistics.median(speeds) if speeds else 1.0,
        "exhausted": exhausted,
        "failures": failures,
        "hypotenuses": hypotenuses,
    }


def peak_rss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def cmd_cli_op(trace: bool, argv: list[str]) -> int:
    import_ns = import_package()
    from pelltriples import cli

    tracer = None
    if trace:
        from tracer import Tracer

        tracer = Tracer(make_hooks()).install()
    try:
        code = cli.main(argv)
    finally:
        if tracer is not None:
            tracer.uninstall()
    sys.stdout.flush()
    if tracer is not None:
        summary = tracer.summary()
        summary["import_ns"] = import_ns
        print("TRACE " + json.dumps(summary), file=sys.stderr)
    return code


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["cli-op"]:
        trace = argv[1:2] == ["--trace"]
        return cmd_cli_op(trace, argv[2 if trace else 1:])
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=("setup", "measure", "fixed"))
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--blocks", type=int)
    parser.add_argument("--epoch", type=int, default=0)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)

    workload, blocks, import_ns = setup(args.workload, args.seed, args.epoch)
    ready_ns = time.perf_counter_ns()
    out = {"ready_ns": ready_ns, "import_ns": import_ns}
    if args.mode == "measure":
        out.update(run_blocks(workload, blocks, seconds=args.seconds))
    elif args.mode == "setup":
        pass
    elif workload.name == "cli-cold":
        workload.mode = "traced" if args.trace else "worker"
        out.update(run_blocks(workload, blocks, count=args.blocks))
        if args.trace:
            out["trace"] = workload.child_traces
    elif not args.trace:
        out.update(run_blocks(workload, blocks, count=args.blocks))
    else:
        from tracer import Tracer

        with Tracer(make_hooks()) as tracer:
            out.update(run_blocks(workload, blocks, count=args.blocks, tracer=tracer))
        out["trace"] = tracer.summary()
        out["trace"]["import_ns"] = [import_ns]
    out["peak_rss_kb"] = getattr(workload, "peak_rss_kb", None) or peak_rss_kb()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
