"""The four seeded workloads: how each builds its inputs, runs one op, and
checks the op's answer.

Inputs come in blocks of fixed composition; only the values inside a block
depend on the seed. A run measures whole blocks, so every run of a workload
sees the same mix of op kinds whatever its seed, and the seed changes only
the numbers. A workload whose inputs must not repeat within one process
(classify: there are only 33 applicable D) has a finite epoch of blocks; a
run that gets through one goes on with the next epoch in a fresh
interpreter. The package is reached through module attributes at call
time, so the tracer's wrappers see every call. Checking uses only the
oracles in `oracles.py`.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
import selectors
import subprocess
import sys
import time
from pathlib import Path
from typing import Iterator, NamedTuple

import calibration
import oracles
import tracer

REFUSED = "refused"

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


class Op(NamedTuple):
    kind: str
    args: tuple
    expect: object = None
    hypotenuses: int = 0  # hypotenuses c the op asks about


def seeded(seed: int, epoch: int) -> random.Random:
    """The input generator of one epoch of a seeded run."""
    return random.Random(f"{seed}/{epoch}")


def package_env() -> dict[str, str]:
    """The environment for a child interpreter that imports the package
    from this checkout's sources."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    return env


def run_child(argv: list[str], env: dict[str, str], timeout: float = 60):
    """Run one child process to its end; returns its exit code, stdout,
    stderr and peak RSS in KiB. Both pipes are drained as data arrives,
    so neither can fill up and stall the child."""
    proc = subprocess.Popen(argv, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    out_fd, err_fd = proc.stdout.fileno(), proc.stderr.fileno()
    chunks: dict[int, list[bytes]] = {out_fd: [], err_fd: []}
    deadline = time.monotonic() + timeout
    with selectors.DefaultSelector() as selector:
        for pipe in (proc.stdout, proc.stderr):
            selector.register(pipe, selectors.EVENT_READ)
        while selector.get_map():
            ready = selector.select(max(0.0, deadline - time.monotonic()))
            if not ready:
                proc.kill()
            for key, _ in ready:
                data = os.read(key.fd, 1 << 16)
                if data:
                    chunks[key.fd].append(data)
                else:
                    selector.unregister(key.fileobj)
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    proc.stderr.close()
    out, err = (b"".join(chunks[fd]).decode() for fd in (out_fd, err_fd))
    return proc.returncode, out, err, usage.ru_maxrss


def _split_primes(rng: random.Random, D: int, lo: int, hi: int, n: int,
                  avoid: set[int] = frozenset()) -> list[int]:
    """n distinct primes p in [lo, hi) with (-D/p) = +1."""
    out: set[int] = set()
    while len(out) < n:
        p = rng.randrange(lo, hi) | 1
        if p not in avoid and oracles.is_prime_below_2_32(p) and oracles.splits(D, p):
            out.add(p)
    return sorted(out)


class Sweep:
    """`table` and `verify` over ranges of odd c, in process through
    `cli.main`, with JSON output captured.

    Each block uses every applicable D once: 22 `table` ops and 11 `verify`
    ops. A verify op costs about C + C^2 / (520 sqrt(D)) units: one per
    hypotenuse, plus the brute-force scan over b. Its C is drawn so that
    this cost falls in VERIFY_WORK for every D, which keeps verify ops
    alike at about twice a table op; with more tables than verifies, the
    median falls among table ops and the tail among verify ops.
    """

    name = "sweep"
    CALIBRATION = staticmethod(calibration.bigint_remainders)
    TRACE_BLOCKS = 1  # blocks in a traced pass
    TABLE_C = (700, 1100)
    VERIFY_WORK = (1800, 2200)
    SCAN_WEIGHT = 520

    def __init__(self, seed: int, epoch: int = 0):
        self.rng = seeded(seed, epoch)
        self.d_values = oracles.APPLICABLE_D
        cmax = max(self.TABLE_C[1], self._verify_c(max(self.d_values), self.VERIFY_WORK[1]))
        self.spf = oracles.smallest_prime_factors(cmax)

    def _verify_c(self, D: int, work: float) -> int:
        """The C with C + C^2 / (SCAN_WEIGHT sqrt(D)) = work."""
        q = 1 / (self.SCAN_WEIGHT * math.sqrt(D))
        return round((math.sqrt(1 + 4 * q * work) - 1) / (2 * q))

    def blocks(self) -> Iterator[list[Op]]:
        rng = self.rng
        while True:
            ds = list(self.d_values)
            rng.shuffle(ds)
            verify_at = set(rng.sample(range(len(ds)), len(ds) // 3))
            block = []
            for i, D in enumerate(ds):
                if i in verify_at:
                    C = self._verify_c(D, rng.uniform(*self.VERIFY_WORK))
                    kind = "verify"
                else:
                    C = rng.randrange(*self.TABLE_C)
                    kind = "table"
                block.append(Op(kind, (D, C), hypotenuses=(C - 1) // 2))
            yield block

    def bind(self, modules) -> None:
        self.cli = modules["cli"]

    def run(self, op: Op):
        D, C = op.args
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = self.cli.main([op.kind, str(D), "--cmax", str(C), "--format", "json"])
        return code, buf.getvalue()

    def check(self, op: Op, result, exc) -> str | None:
        if exc is not None:
            return f"{op.kind} {op.args}: raised {exc!r}"
        code, out = result
        if code != 0:
            return f"{op.kind} {op.args}: exit code {code}"
        D, C = op.args
        payload = json.loads(out)
        if payload.get("D") != D or payload.get("cmax") != C:
            return f"{op.kind} {op.args}: header {payload.get('D')}, {payload.get('cmax')}"
        odd_cs = range(3, C + 1, 2)
        factors = {c: oracles.factor_with(self.spf, c) for c in odd_cs}
        if op.kind == "table":
            want = [c for c in odd_cs if oracles.expected_count(D, factors[c])]
            rows = payload["rows"]
            if [r["c"] for r in rows] != want:
                return f"table {op.args}: rows for the wrong hypotenuses"
            for r in rows:
                problem = oracles.check_report(D, r["c"], factors[r["c"]], r)
                if problem:
                    return problem
            return None
        if payload["agreements"] != len(odd_cs) or payload["disagreements"]:
            return f"verify {op.args}: {payload['agreements']} agreements"
        rows = payload["rows"]
        if [r["c"] for r in rows] != list(odd_cs):
            return f"verify {op.args}: rows for the wrong hypotenuses"
        for r in rows:
            want = oracles.expected_count(D, factors[r["c"]])
            if (r["k"], r["theory_count"], r["oracle_count"], r["agree"]) != (
                len(factors[r["c"]]), want, want, True
            ):
                return f"verify {op.args}: wrong row {r}"
        return None


class BigC:
    """`describe_solutions(D, c)` for hypotenuses built from seeded split
    primes, so each answer has 2^(k-1) solutions, with c of 60-130 bits.

    A block holds one c for each k in 6..10, and two more of k = 8, from
    primes in [2048, 2560) with one of them squared; one c of two such
    primes and two primes in (10^6, 2 * 10^6), and one of one such prime
    and three, each leaving a cofactor for Pollard rho; and one c of two
    small primes and four in (2^21, 2^24),
    whose cofactor exceeds the deterministic Miller-Rabin bound
    (3.3 * 10^24). The package refuses that one with a ValueError that
    names the bound: it is counted as refused, never dropped, and its time
    stays in the denominator of ops_per_s. Any other exception on it is a
    failed op.

    Every solution's factorization factors c again, so a c with two large
    primes costs 2^(k-1) trial divisions to 10^6; that keeps k at 4 there.
    The prime windows are narrow because an op's cost follows the size of
    its second-largest prime (trial division) and the square root of its
    smallest large prime (rho), so wide windows make the cost of an op of
    a given shape swing with the seed. The block's shapes put the median
    among the three k = 8 ops and the tail among the rho ops.
    """

    name = "bigc"
    CALIBRATION = staticmethod(calibration.bigint_remainders)
    TRACE_BLOCKS = 1
    SMALL = (2048, 2560)
    LARGE = (10**6 + 1, 2 * 10**6)
    HUGE = (2**21, 2**24)
    MR_BOUND = 3_317_044_064_679_887_385_961_981

    def __init__(self, seed: int, epoch: int = 0):
        self.rng = seeded(seed, epoch)
        self.d_values = oracles.APPLICABLE_D

    def _op(self, D: int, small: int, large: int, huge: int = 0, square: bool = False) -> Op:
        rng = self.rng
        primes = _split_primes(rng, D, *self.SMALL, small)
        big = _split_primes(rng, D, *self.LARGE, large) if large else []
        big += _split_primes(rng, D, *self.HUGE, huge, set(big)) if huge else []
        factors = {p: 1 for p in primes + big}
        if square:
            factors[rng.choice(primes)] = 2
        c = math.prod(p**e for p, e in factors.items())
        cofactor = math.prod(big)
        over_bound = cofactor >= self.MR_BOUND
        return Op("describe", (D, c), (dict(sorted(factors.items())), over_bound), 1)

    def blocks(self) -> Iterator[list[Op]]:
        rng = self.rng
        # (small primes, large primes, huge primes, one small prime squared)
        shapes = [(k, 0, 0, True) for k in (6, 7, 8, 8, 8, 9, 10)]
        shapes += [(2, 2, 0, False), (1, 3, 0, False), (2, 0, 4, False)]
        while True:
            block = [self._op(rng.choice(self.d_values), *shape) for shape in shapes]
            rng.shuffle(block)
            yield block

    def bind(self, modules) -> None:
        self.solutions = modules["solutions"]

    def run(self, op: Op):
        return self.solutions.describe_solutions(*op.args)

    def check(self, op: Op, result, exc) -> str | None:
        D, c = op.args
        factors, over_bound = op.expect
        if exc is not None:
            if over_bound and isinstance(exc, ValueError) and "bound" in str(exc):
                return REFUSED
            return f"describe {op.args}: raised {exc!r}"
        if result.get("D") != D or result.get("c") != c:
            return f"describe {op.args}: header {result.get('D')}, {result.get('c')}"
        return oracles.check_report(D, c, factors, result)


class Classify:
    """`check_applicability(D)` for distinct D.

    An epoch is 33 blocks. Each block holds one of the 33 applicable D
    and eleven D from [2 * 10^3, 2 * 10^4), all distinct within the epoch,
    so no verdict comes from the cache of an earlier op. The cost of a "no" verdict grows
    roughly with h(-4D)^2 / 2^rank and spans two orders of magnitude at a
    given size, so the eleven are drawn from D whose estimated cost
    (`oracles.class_group_cost`) lies in a fixed band: the seed picks the
    D, the band keeps the per-op cost from swinging between seeds.
    """

    name = "classify"
    CALIBRATION = staticmethod(calibration.small_objects)
    TRACE_BLOCKS = 6
    RANGE = (2 * 10**3, 2 * 10**4)
    COST_BAND = (1300, 2600)
    PER_BLOCK = 11

    def __init__(self, seed: int, epoch: int = 0):
        self.rng = seeded(seed, epoch)
        self.d_values = ()
        spf = oracles.smallest_prime_factors(100)
        self.euler_primes = [p for p in range(2, 100) if spf[p] == p]

    def blocks(self) -> Iterator[list[Op]]:
        rng = self.rng
        yes = list(oracles.APPLICABLE_D)
        rng.shuffle(yes)
        seen: set[int] = set()
        while yes:
            block = []
            while len(block) < self.PER_BLOCK:
                D = rng.randrange(*self.RANGE)
                if D in seen:
                    continue
                seen.add(D)
                lo, hi = self.COST_BAND
                if lo <= oracles.class_group_cost(D, self.euler_primes) < hi:
                    block.append(Op("classify", (D,)))
            block.insert(rng.randrange(len(block) + 1), Op("classify", (yes.pop(),)))
            yield block

    def bind(self, modules) -> None:
        self.solutions = modules["solutions"]

    def run(self, op: Op):
        return self.solutions.check_applicability(*op.args)

    def check(self, op: Op, result, exc) -> str | None:
        (D,) = op.args
        if exc is not None:
            return f"check_applicability({D}): raised {exc!r}"
        want = D in oracles.APPLICABLE_D
        if result.D != D or result.applicable != want:
            return f"check_applicability({D}): applicable={result.applicable}, expected {want}"
        return None


class CliCold:
    """One fresh `python -m pelltriples.cli` process per op, run one at a
    time: small `count`, `solve`, `zeta` and `check` calls, so import and
    argument parsing dominate.

    The calibration piece timed before each op is itself a fresh
    interpreter that imports some standard modules (calibration.py).

    The traced pass starts each op through `worker.py cli-op --trace`,
    which imports the same CLI and wraps it in the tracer; the untraced
    pass it is compared with goes through `worker.py cli-op` alone.
    """

    name = "cli-cold"
    CALIBRATION = staticmethod(calibration.interpreter_start)
    TRACE_BLOCKS = 6
    PRIMES = (3, 200)
    CHECK_D = (2, 1500)

    def __init__(self, seed: int, epoch: int = 0):
        self.rng = seeded(seed, epoch)
        self.d_values = ()
        self.mode = "cli"  # or "worker", "traced": see command()
        self.peak_rss_kb = 0  # of the op processes, not the calibration's

    def _hypotenuse_op(self, kind: str) -> Op:
        """`count` or `solve` for a c of one to three small split primes."""
        D = self.rng.choice(oracles.APPLICABLE_D)
        primes = _split_primes(self.rng, D, *self.PRIMES, self.rng.choice((1, 2, 3)))
        return Op(kind, (D, math.prod(primes)), dict.fromkeys(primes, 1), 1)

    def blocks(self) -> Iterator[list[Op]]:
        rng = self.rng
        while True:
            D = rng.choice(oracles.APPLICABLE_D)
            block = [
                self._hypotenuse_op("count"),
                self._hypotenuse_op("solve"),
                Op("zeta", (D, _split_primes(rng, D, 3, 2000, 1)[0])),
                Op("check", (rng.randrange(*self.CHECK_D),)),
            ]
            rng.shuffle(block)
            yield block

    def bind(self, modules) -> None:
        self.env = package_env()
        self.child_traces = tracer.empty_summary()

    def argv(self, op: Op) -> list[str]:
        fmt = [] if op.kind == "count" else ["--format", "json"]
        return [op.kind, *map(str, op.args), *fmt]

    def command(self, op: Op) -> list[str]:
        if self.mode == "cli":
            return [sys.executable, "-m", "pelltriples.cli", *self.argv(op)]
        worker = str(Path(__file__).resolve().parent / "worker.py")
        trace = ["--trace"] if self.mode == "traced" else []
        return [sys.executable, worker, "cli-op", *trace, *self.argv(op)]

    def run(self, op: Op):
        code, stdout, stderr, rss_kb = run_child(self.command(op), self.env)
        self.peak_rss_kb = max(self.peak_rss_kb, rss_kb)
        if self.mode == "traced":
            head, _, last = stderr.rstrip("\n").rpartition("\n")
            if last.startswith("TRACE "):
                tracer.merge_summary(self.child_traces, json.loads(last[len("TRACE "):]))
                stderr = head
        return code, stdout, stderr

    def check(self, op: Op, result, exc) -> str | None:
        if exc is not None:
            return f"{op.kind} {op.args}: {exc!r}"
        code, out, _ = result
        if code != 0:
            return f"{op.kind} {op.args}: exit code {code}"
        if op.kind == "count":
            want = oracles.expected_count(op.args[0], op.expect)
            return None if out == f"{want}\n" else f"count {op.args}: printed {out!r}"
        payload = json.loads(out)
        if op.kind == "solve":
            return oracles.check_report(*op.args, op.expect, payload)
        if op.kind == "zeta":
            D, p = op.args
            x0, y0 = payload["x0"], payload["y0"]
            if (payload["D"], payload["p"]) != (D, p) or oracles.check_triple(D, x0, y0, p):
                return f"zeta {op.args}: ({x0}, {y0}) is not a primitive representation"
            return None
        (D,) = op.args
        want = D in oracles.APPLICABLE_D
        h = oracles.reduced_form_count(D)
        got = payload["class_group"]["class_number"]
        if payload["applicable"] != want or got != h:
            return f"check {D}: applicable={payload['applicable']} h={got}, expected {want}, {h}"
        return None


WORKLOADS = {w.name: w for w in (Sweep, BigC, Classify, CliCold)}
