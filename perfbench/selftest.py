"""Self-test of the benchmark's exact checks: a perturbed output must fail.

    python3 perfbench/selftest.py

Runs each workload's loop on a small grid with the library's real outputs
(every op must pass), then with one shape-function coefficient perturbed
(every op must be counted as failed).  Exits 0 when all of that holds.
"""

from __future__ import annotations

import dataclasses
import sys
from fractions import Fraction

import checks
import workloads
from run import import_library, measure

SMALL_GRID = ((2, 2), (3, 1), (1, 3))


def perturb(elem):
    """The element with 1/7 added to the constant term of its first shape function."""
    theta = elem.shape_functions[0]
    terms = dict(theta.terms)
    zero = (0,) * theta.dim
    terms[zero] = terms.get(zero, 0) + Fraction(1, 7)
    bad = type(theta)(theta.dim, terms)
    return dataclasses.replace(elem, shape_functions=(bad,) + elem.shape_functions[1:])


class PerturbedBuild(workloads.BuildGrid):
    def op(self, inp):
        return perturb(super().op(inp))


class PerturbedEval(workloads.DualEval):
    def setup(self, ef, seed, rep):
        super().setup(ef, seed, rep)
        self.elements = [(k, fam, perturb(elem)) for k, fam, elem in self.elements]


def expect(label: str, workload, package, all_fail: bool) -> bool:
    workload.setup(package, 0, 0)
    run = measure(workload, cycles=2)
    ok = run.failed == (len(run.durations) if all_fail else 0)
    print(f"{'ok' if ok else 'FAILED'}: {label}: {run.failed}/{len(run.durations)} ops failed")
    return ok


def main() -> int:
    package = import_library()
    workloads.GRID = SMALL_GRID
    results = [
        expect("build-grid, exact outputs", workloads.BuildGrid(), package, False),
        expect("build-grid, perturbed coefficient", PerturbedBuild(), package, True),
        expect("dual-eval, exact outputs", workloads.DualEval(), package, False),
        expect("dual-eval, perturbed coefficient", PerturbedEval(), package, True),
    ]
    report = '{"totals": {"failed": 0}}\n'
    unpinned = max(checks.DIGESTS, default=-1) + 1
    verify_cases = [
        ("verify-sweep, passing report without a digest", checks.verify_output_ok(unpinned, 0, report)),
        ("verify-sweep, failed check", not checks.verify_output_ok(unpinned, 0, report.replace("0", "1"))),
        ("verify-sweep, nonzero exit", not checks.verify_output_ok(unpinned, 1, report)),
        ("verify-sweep, bytes differ from the seed-0 digest", not checks.verify_output_ok(0, 0, report)),
    ]
    for label, ok in verify_cases:
        print(f"{'ok' if ok else 'FAILED'}: {label}")
        results.append(ok)
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
