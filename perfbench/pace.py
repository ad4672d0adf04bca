"""The host's current speed, from a fixed exact computation of the benchmark's own.

The host this benchmark was defined on changes speed by up to a factor of
two, for seconds or for an hour at a time, and CPU time slows with wall
time, so no timer separates the program's cost from the host's state.  The
runner therefore times a fixed reference computation at the start of every
cycle and between ops, and a workload with long ops also between the pieces
of an op, at most every INTERVAL_S.  It states the program's times in
seconds at the reference speed: a measured time is multiplied by
REFERENCE_S over the reference's median time in the run.

The reference is Gauss-Jordan elimination over Fractions of a fixed rational
matrix: the same kind of work as exactfem's solves (integer gcds and Fraction
objects), written here and not in exactfem, so no library change can move it.
"""

from __future__ import annotations

import gc
import random
import time
from fractions import Fraction

SIZE = 24
INTERVAL_S = 2.0
# A fixed scale, about the reference's median time on the 2-core Intel Xeon
# host (Python 3.11.7) the benchmark was defined on, at that host's faster
# speed.  Any value would do; it must only stay the same between runs.
REFERENCE_S = 0.07


def _matrix():
    rng = random.Random("perfbench/pace")
    return [
        [Fraction(rng.randint(-10, 10), rng.randint(1, 4)) for _ in range(SIZE + 1)]
        for _ in range(SIZE)
    ]


MATRIX = _matrix()


def eliminate(matrix):
    """Reduced row echelon form of an invertible square system, over Fractions."""
    m = [row[:] for row in matrix]
    n = len(m)
    for col in range(n):
        pivot = next(r for r in range(col, n) if m[r][col] != 0)
        m[col], m[pivot] = m[pivot], m[col]
        inv = 1 / m[col][col]
        m[col] = [x * inv for x in m[col]]
        for r in range(n):
            if r != col and m[r][col] != 0:
                f = m[r][col]
                m[r] = [a - f * b for a, b in zip(m[r], m[col])]
    return m


class Pacer:
    """Times the reference between pieces of work, at most every INTERVAL_S.

    samples holds the reference's times in order; spent is the wall time
    sampling took, which the runner takes out of the op that it fell in.
    The garbage collector is off while the reference runs, so the objects
    the program keeps alive do not change the reference's cost.
    """

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0
        self.last = float("-inf")

    def sample(self) -> None:
        clock = time.perf_counter
        start = clock()
        gc.disable()
        try:
            t0 = clock()
            eliminate(MATRIX)
            t1 = clock()
        finally:
            gc.enable()
        self.samples.append(t1 - t0)
        self.last = clock()
        self.spent += self.last - start

    def maybe_sample(self) -> None:
        if time.perf_counter() - self.last >= INTERVAL_S:
            self.sample()
