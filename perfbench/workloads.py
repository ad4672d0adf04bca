"""The three workloads: seeded inputs, the timed op and its exact check.

Inputs come from the benchmark's own generator, never from exactfem, so a
library change cannot change what is measured.  Each workload yields its ops
in cycles of fixed composition; runs stop only at a cycle boundary, so the
op-time distribution of every run mixes the same cases in the same shares.

Every cycle of a workload does the same work, so the cycles of a run, and
the runs of different seeds, cost the same at the same host speed.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import random
from fractions import Fraction

import checks

# The ROADMAP's (dimension, degree) grid: 28, 66, 35, 84 and 70 nodes.
GRID = ((2, 6), (2, 10), (3, 4), (3, 6), (4, 4))
MAX_FAMILY_ATTEMPTS = 1000
RANDOM_ROWS = 3


def _rank(rows) -> int:
    m = [list(r) for r in rows]
    rank = 0
    for col in range(len(m[0]) if m else 0):
        pivot = next((r for r in range(rank, len(m)) if m[r][col] != 0), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        for r in range(rank + 1, len(m)):
            ratio = m[r][col] / m[rank][col]
            for c in range(col, len(m[0])):
                m[r][c] -= ratio * m[rank][c]
        rank += 1
    return rank


def random_family(d: int, rng: random.Random):
    """d+1 affinely independent points with coordinates n/q, |n| <= 10, 1 <= q <= 4.

    The same distribution as the library's own sampler: numerator then
    denominator per coordinate, degenerate families rejected.
    """
    for _ in range(MAX_FAMILY_ATTEMPTS):
        fam = tuple(
            tuple(Fraction(rng.randint(-10, 10), rng.randint(1, 4)) for _ in range(d))
            for _ in range(d + 1)
        )
        if _rank([[v[r] - fam[0][r] for v in fam[1:]] for r in range(d)]) == d:
            return fam
    raise RuntimeError("could not sample an affinely independent family")


def transform(fam, rng: random.Random):
    """The simplex with permuted, sign-flipped coordinates and relabelled vertices.

    The coordinates keep their values up to sign, so a build costs about the
    same: for two (3,4) simplices, the best of ten timings of each of four
    transforms was within 6% of the untransformed simplex's.
    """
    d = len(fam) - 1
    axes = rng.sample(range(d), d)
    signs = [rng.choice((1, -1)) for _ in range(d)]
    moved = [tuple(signs[j] * v[axes[j]] for j in range(d)) for v in fam]
    return tuple(rng.sample(moved, d + 1))


def interior_point(fam, rng: random.Random):
    """A rational point strictly inside the simplex, from positive weights."""
    weights = [rng.randint(1, 10) for _ in fam]
    total = sum(weights)
    d = len(fam) - 1
    return tuple(sum(Fraction(w, total) * v[r] for w, v in zip(weights, fam)) for r in range(d))


class Workload:
    """Defaults shared by the workloads.

    setup_per_cycle: set up afresh before every cycle rather than only before
    the first, so that set-up is timed throughout the run.  pacer: set by
    the runner in an untraced run, for a workload that samples the
    reference inside its long ops.
    """

    setup_per_cycle = False
    pacer = None


class BuildGrid(Workload):
    """One op builds one element; a cycle is one build per grid cell.

    Each cell has one simplex drawn once from the library's distribution;
    every op builds it under a fresh seeded transform(), so each op's input
    is new while a cell costs about the same in every cycle and every run.
    A run holds only about four builds per cell, too few to average out the
    cost differences between simplices (6% coefficient of variation at
    (3,4), best-of-three timings of twelve simplices).
    """

    name = "build-grid"
    trace_cycles = 1
    setup_per_cycle = True

    def setup(self, ef, seed: int, rep: int) -> None:
        self.ef, self.seed = ef, seed
        self.simplices = [random_family(d, random.Random(f"{self.name}/{d},{k}")) for d, k in GRID]
        ef.build_element(random_family(2, random.Random(f"{self.name}/{seed}/warm-up/{rep}")), 2)

    def cycle(self, c: int):
        rng = random.Random(f"{self.name}/{self.seed}/{c}")
        return [(k, transform(fam, rng)) for fam, (d, k) in zip(self.simplices, GRID)]

    def op(self, inp):
        k, fam = inp
        return self.ef.build_element(fam, k)

    def check(self, inp, elem) -> bool:
        k, fam = inp
        return checks.element_is_dual(elem, fam, k)


class VerifySweep(Workload):
    """One op is the default `exactfem verify` sweep with a JSON report.

    A sweep takes about 20 s, so in an untraced run the pacer also samples
    the reference between the sweep's checks.
    """

    name = "verify-sweep"
    trace_cycles = 1
    setup_per_cycle = True

    def setup(self, ef, seed: int, rep: int) -> None:
        # No warm-up sweep: the library keeps no state between calls, and a
        # traced run must count the default sweeps alone.
        self.cli, self.seed = importlib.import_module(ef.__name__ + ".cli"), seed
        if rep == 0:
            self.output_bytes = 0
        if self.pacer is not None:
            catalog = importlib.import_module(ef.__name__ + ".verify")._CATALOG
            for i, (cid, title, fn) in enumerate(catalog):
                catalog[i] = (cid, title, self._paced(fn))

    def _paced(self, fn):
        pacer = self.pacer

        def paced(ctx):
            pacer.maybe_sample()
            return fn(ctx)

        return paced

    def cycle(self, c: int):
        # The same sweep every cycle: a cycle starts from a fresh import, so
        # nothing the library could keep carries over from one to the next.
        return [self.seed]

    def op(self, verify_seed: int):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = self.cli.main(["verify", "--seed", str(verify_seed), "--format", "json"])
        return code, buf.getvalue()

    def check(self, verify_seed: int, out) -> bool:
        code, text = out
        self.output_bytes += len(text.encode())
        return checks.verify_output_ok(verify_seed, code, text)


class DualEval(Workload):
    """Each set-up builds one element per grid cell; one op tabulates one row.

    The ops use the elements of every set-up in the run, so a run averages
    over several simplices per cell.  A cycle evaluates every element's basis
    at one of its nodes and at RANDOM_ROWS random interior points.  Interior
    points, where users tabulate, outnumber nodes so that the median op is a
    random-point row of one cell rather than the boundary between two kinds.
    """

    name = "dual-eval"
    trace_cycles = 2

    def setup(self, ef, seed: int, rep: int) -> None:
        self.seed = seed
        if rep == 0:
            self.elements = []
        rng = random.Random(f"{self.name}/{seed}/{rep}")
        built = []
        for d, k in GRID:
            fam = random_family(d, rng)
            built.append((k, fam, ef.build_element(fam, k)))
        self.elements.extend(built)
        self.op((len(self.elements) - 1, built[-1][2].nodes[0], 0))

    def cycle(self, c: int):
        rng = random.Random(f"{self.name}/{self.seed}/{c}")
        out = []
        for e, (k, fam, elem) in enumerate(self.elements):
            a = rng.randrange(len(elem.node_index))
            out.append((e, checks.node_point(fam, k, elem.node_index[a]), a))
            out.extend((e, interior_point(fam, rng), None) for _ in range(RANDOM_ROWS))
        return out

    def op(self, inp):
        e, pt, _ = inp
        return [theta.eval(pt) for theta in self.elements[e][2].shape_functions]

    def check(self, inp, row) -> bool:
        a = inp[2]
        return sum(row) == 1 if a is None else checks.is_kronecker_row(row, a)


WORKLOADS = {w.name: w for w in (BuildGrid, VerifySweep, DualEval)}
