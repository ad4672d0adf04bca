"""Span tracing around exactfem's layer boundaries, installed from outside.

Each traced public function is rebound in every exactfem module namespace that
holds it (``from .exact import mat_solve`` copies the binding, so patching
only the defining module would miss calls from ``element`` and ``geometry``).
Spans stay in memory as flat arrays and are summarized and written out only
when the run ends, so tracing does no I/O while timing.

A span records the call's own interval and, separately, the interval its
bookkeeping covers; a parent's self time is its duration minus the covered
intervals of its children, so the tracer's own work is charged to no layer.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from array import array
from collections import Counter
from fractions import Fraction

# (module, attribute) of each layer function reported with calls and self
# time; its span is named "<module>.<attribute>".
SPANNED = (
    ("exact", "mat_solve"),
    ("exact", "mat_det"),
    ("exact", "mat_rank"),
    ("multiindex", "enumerate_indices"),
    ("polynomial", "compose_affine"),
    ("geometry", "barycentric_polynomials"),
    ("geometry", "require_independent"),
    ("geometry", "affine_inverse"),
    ("element", "build_element"),
    ("element", "lagrange_nodes"),
    ("element", "vandermonde_matrix"),
    ("element", "factor_on_hyperplane"),
    ("element", "face_unisolvence"),
)
# Outer layers, spanned so that their own self time can be reported.
OUTER = (("verify", "run_suite"), ("cli", "main"))
# Functions whose first argument is a vertex family: distinct_ratio is the
# share of calls on a family the run has not passed to that function before.
FAMILY_KEYED = ("geometry.barycentric_polynomials", "geometry.require_independent")
# Hot, cheap functions: counted only, since a span would cost more than the call.
COUNTED = (("multiindex", "check_index"),)
COUNTS = (
    "exact.mat_solve.order_sum",
    "exact.mat_solve.out_bits",
    "multiindex.check_index.calls",
    "polynomial.Polynomial.__init__.calls",
)
NAMED_CHECKS = ("1626", "1565", "1623", "1574", "1563", "1628")


def unit(name: str) -> str:
    """The unit of a per-layer metric, from its name."""
    for suffix, u in (("_s", "s"), ("_ratio", "ratio"), ("_bits", "bits"), ("_bytes", "bytes")):
        if name.endswith(suffix):
            return u
    return "count"


def _bits(x: Fraction) -> int:
    return x.numerator.bit_length() + x.denominator.bit_length()


def _solve_stats(counts: Counter, args, result) -> None:
    counts["exact.mat_solve.order_sum"] += len(args[0])
    counts["exact.mat_solve.out_bits"] += sum(_bits(x) for row in result for x in row)


POST = {"exact.mat_solve": _solve_stats}


def _family_key(vertices):
    return tuple(tuple(Fraction(x) for x in v) for v in vertices)


class Tracer:
    """Collects spans and counts for one process.

    install() wraps one imported copy of the package; calling it again on a
    fresh import adds to the same spans and counts.
    """

    def __init__(self):
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        # One entry per span: name id, parent span index (-1 at top level),
        # call start/end, and the start/end of the interval it covers.
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.cover_start = array("d")
        self.cover_end = array("d")
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.seen: dict[str, set] = {name: set() for name in FAMILY_KEYED}

    def _span_wrapper(self, name: str, fn):
        nid = self.name_ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        seen = self.seen.get(name)
        post = POST.get(name)
        counts, stack, clock = self.counts, self.stack, time.perf_counter
        names, parents, starts, ends = self.name, self.parent, self.start, self.end
        cover_starts, cover_ends = self.cover_start, self.cover_end

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            c0 = clock()
            if seen is not None:
                key = _family_key(args[0])
                if key not in seen:
                    seen.add(key)
                    counts[name + ".distinct"] += 1
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            for column in (starts, ends, cover_starts, cover_ends):
                column.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                starts[idx], ends[idx] = t0, t1
                cover_starts[idx], cover_ends[idx] = c0, t1
            if post is not None:
                post(counts, args, result)
                cover_ends[idx] = clock()
            return result

        return wrapper

    def _count_wrapper(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self, package) -> None:
        """Wrap the layer boundaries of an imported exactfem package."""
        prefix = package.__name__
        modules = [m for n, m in sys.modules.items() if n == prefix or n.startswith(prefix + ".")]

        def rebind(original, wrapper):
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)

        for mod, attr in SPANNED + OUTER:
            original = getattr(sys.modules[f"{prefix}.{mod}"], attr)
            rebind(original, self._span_wrapper(f"{mod}.{attr}", original))
        for mod, attr in COUNTED:
            original = getattr(sys.modules[f"{prefix}.{mod}"], attr)
            rebind(original, self._count_wrapper(f"{mod}.{attr}.calls", original))
        poly = sys.modules[f"{prefix}.polynomial"].Polynomial
        poly.eval = self._span_wrapper("polynomial.Polynomial.eval", poly.eval)
        poly.__init__ = self._count_wrapper("polynomial.Polynomial.__init__.calls", poly.__init__)
        catalog = sys.modules[f"{prefix}.verify"]._CATALOG
        for i, (cid, title, fn) in enumerate(catalog):
            catalog[i] = (cid, title, self._span_wrapper(f"verify.check.{cid}", fn))

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total_s (inclusive) and self_s."""
        n = len(self.name)
        covered = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                covered[p] += self.cover_end[i] - self.cover_start[i]
        out = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for name in self.names}
        for i in range(n):
            row = out[self.names[self.name[i]]]
            duration = self.end[i] - self.start[i]
            row["calls"] += 1
            row["total_s"] += duration
            row["self_s"] += duration - covered[i]
        return out

    def dump(self, path) -> None:
        """Write every span (name, parent, start, end) as JSON."""
        with open(path, "w") as handle:
            json.dump(
                {
                    "names": self.names,
                    "name": self.name.tolist(),
                    "parent": self.parent.tolist(),
                    "start": self.start.tolist(),
                    "end": self.end.tolist(),
                },
                handle,
            )

    def layer_metrics(self) -> dict[str, float]:
        """The per-layer metrics, by name, with zeros for spans never entered."""
        spans = self.summary()

        def span(name, field):
            return spans.get(name, {}).get(field, 0)

        out: dict[str, float] = {}
        for mod, attr in SPANNED + (("polynomial", "Polynomial.eval"),):
            name = f"{mod}.{attr}"
            out[name + ".calls"] = span(name, "calls")
            out[name + ".self_s"] = span(name, "self_s")
        for name in COUNTS:
            out[name] = self.counts[name]
        for name in FAMILY_KEYED:
            calls = span(name, "calls")
            distinct = self.counts[name + ".distinct"]
            out[name + ".distinct"] = distinct
            out[name + ".distinct_ratio"] = distinct / calls if calls else 0.0
        for cid in NAMED_CHECKS:
            out[f"verify.check.{cid}.total_s"] = span(f"verify.check.{cid}", "total_s")
        out["verify.checks.self_s"] = sum(
            row["self_s"] for name, row in spans.items() if name.startswith("verify.check.")
        )
        for mod, attr in OUTER:
            out[f"{mod}.{attr}.self_s"] = span(f"{mod}.{attr}", "self_s")
        return out
