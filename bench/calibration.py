"""Fixed pieces of pure-Python work, timed next to every op to follow the
speed of the machine.

On a shared virtual machine the same op can take 40% longer for minutes
at a time, because of work in other guests that this one cannot see.
The drift is multiplicative and slow, so a piece of work of the same
nature, timed just before an op, slows by about as much as the op does.
Each op's time is therefore reported in reference nanoseconds:

    reference time = measured time * REFERENCE_NS / calibration time

that is, the time the op would take on a machine where the calibration
piece takes exactly REFERENCE_NS. A change to the package moves an op's
reference time by the same share as its measured time, since nothing in
this file depends on the package.

There is one piece for each kind of work the workloads do: big-integer
remainders (the trial division and group arithmetic of sweep and bigc),
small frozen dataclasses (the reduced forms of classify's class groups),
and a fresh interpreter that imports a few standard modules (the process
start-up of cli-cold and of every set-up sample; a bare `python -c pass`
does not follow it, since the drift is mostly in reading and loading
modules).
"""

from __future__ import annotations

import gc
import math
import subprocess
import sys
from dataclasses import dataclass

STARTUP_IMPORTS = "import argparse, csv, dataclasses, inspect, json, logging, runpy"


def bigint_remainders() -> None:
    """Trial division of a 77-bit product of four primes."""
    n = 1000003 * 1000033 * 2027 * 7919
    f = 5
    while f < 60000:
        n % f
        n % (f + 2)
        f += 6


@dataclass(frozen=True)
class _Form:
    a: int
    b: int
    c: int

    def __post_init__(self) -> None:
        if self.a <= 0 or math.gcd(self.a, math.gcd(self.b, self.c)) != 1:
            raise ValueError(f"({self.a}, {self.b}, {self.c}) is not primitive")


def small_objects() -> None:
    """Build, check and look up a few hundred frozen dataclasses."""
    seen = {}
    for i in range(1, 570):
        f = _Form(i, (i * 7) % (2 * i + 1) - i, i + 5)
        g = _Form(f.c, -f.b, f.a)
        seen[(g.a, g.b)] = g


def interpreter_start() -> None:
    """Start an interpreter that imports some standard modules and exits."""
    subprocess.run([sys.executable, "-c", STARTUP_IMPORTS], check=True, timeout=60)


# Each piece's time on the reference machine (the median on a 2-vCPU
# x86-64 virtual machine with CPython 3.11, at a quiet time), and how many
# runs of it are timed before an op.
PIECES = {
    bigint_remainders: (1_000_000, 3),
    small_objects: (1_000_000, 3),
    interpreter_start: (50_000_000, 1),
}


def time_piece(piece, clock) -> int:
    """The fastest of the piece's timed runs, in ns. The garbage
    collector is held off meanwhile, so that a collection of the
    package's objects is charged to the op that caused it, not to the
    calibration."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        best = None
        for _ in range(PIECES[piece][1]):
            start = clock()
            piece()
            elapsed = clock() - start
            best = elapsed if best is None else min(best, elapsed)
        return best
    finally:
        if enabled:
            gc.enable()
