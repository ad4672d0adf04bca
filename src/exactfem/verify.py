"""Suite of exact checks for the identities behind the element construction.

Each check is registered under a short catalog id and sweeps a (dimension,
degree) range with seeded random rational data.  Every assertion is an exact
equality; a check fails only with a concrete counterexample string (inputs,
expected, got).  Reports are reproducible: each check draws from its own
generator seeded by (seed, id), so filtering the catalog never changes what
another check sees.

The check protocol
------------------

A check is a function of one argument, registered with
``@_check(id, title)``; ``run_suite`` calls it once with a fresh context:

* ``ctx.cases`` counts the cases examined; the check adds to it
  (``ctx.cases += 1``) before testing each case.
* ``ctx.fail(*parts)`` stops the check; the parts, joined by spaces, become
  its counterexample and ``ctx.cases`` at that moment its case count.  The
  exception it raises is not a ``ValueError``, so a check's own ``except``
  arms for the package's errors never catch it.
* ``ctx.rng`` is the check's generator, seeded from the run seed and the
  check id; ``ctx.families(d)`` draws its random vertex families from it.
* ``ctx.dims(lo, hi)``, ``ctx.degrees(lo, hi)`` and ``ctx.samples`` bound
  the sweep.

A check that returns without calling ``ctx.fail`` passes.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations, product
from typing import NoReturn

from . import element as fe
from . import geometry as geo
from . import multiindex as mi
from .errors import DegenerateSimplexError, NotVanishingError, UnknownCheckError
from .exact import mat_det, mat_rank
from .polynomial import (
    NEG_INF,
    Polynomial,
    compose_affine,
    divide_by_last_variable,
    embed_last,
    horner_coefficients,
    lagrange_basis_1d,
    partial_derivative,
    recombine_last_variable,
)

MAX_FAMILY_ATTEMPTS = 1000


def random_rational(rng: random.Random, num_bound: int = 10, den_bound: int = 4) -> Fraction:
    """Small rational with |numerator| <= num_bound, denominator <= den_bound."""
    return Fraction(rng.randint(-num_bound, num_bound), rng.randint(1, den_bound))


def random_point(d: int, rng: random.Random) -> geo.Point:
    return tuple(random_rational(rng) for _ in range(d))


def random_independent_family(d: int, rng: random.Random) -> geo.VertexFamily:
    """Rejection-sample an affinely independent family of small rationals."""
    if d < 1:
        raise ValueError("dimension must be at least 1")
    for _ in range(MAX_FAMILY_ATTEMPTS):
        fam = tuple(random_point(d, rng) for _ in range(d + 1))
        if geo.is_affinely_independent(fam):
            return fam
    raise RuntimeError("could not sample an affinely independent family")


def random_polynomial(d: int, k: int, rng: random.Random) -> Polynomial:
    """Random member of the degree-k space with small rational coefficients."""
    terms = {}
    for alpha in mi.enumerate_indices(d, k, "A"):
        if rng.random() < 0.6:
            terms[alpha] = Fraction(rng.randint(-6, 6), rng.randint(1, 3))
    return Polynomial(d, terms)


def _random_affine_map(d: int, rng: random.Random) -> geo.AffineMap:
    """Affine self-map of R^d with small rational entries, possibly singular."""
    matrix = [[random_rational(rng) for _ in range(d)] for _ in range(d)]
    return geo.AffineMap(matrix, random_point(d, rng))


def _distinct_rationals(n: int, rng: random.Random) -> list[Fraction]:
    out: list[Fraction] = []
    while len(out) < n:
        x = random_rational(rng)
        if x not in out:
            out.append(x)
    return out


def _sums_to_one(polys, d: int) -> bool:
    return sum(polys, Polynomial.zero(d)) == Polynomial.constant(d, 1)


@dataclass(frozen=True)
class CheckResult:
    id: str
    title: str
    passed: bool
    cases: int
    counterexample: str | None


@dataclass(frozen=True)
class VerifyReport:
    seed: int
    d_max: int
    k_max: int
    samples: int
    checks: tuple[CheckResult, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_json_dict(self) -> dict:
        return {
            "seed": self.seed,
            "d_max": self.d_max,
            "k_max": self.k_max,
            "samples": self.samples,
            "checks": [
                {
                    "id": c.id,
                    "title": c.title,
                    "status": "pass" if c.passed else "fail",
                    "cases": c.cases,
                    "counterexample": c.counterexample,
                }
                for c in self.checks
            ],
            "totals": {
                "checks": len(self.checks),
                "passed": sum(c.passed for c in self.checks),
                "failed": sum(not c.passed for c in self.checks),
            },
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2, sort_keys=True) + "\n"

    def to_table(self) -> str:
        lines = [f"{'id':<10} {'status':<7} {'cases':>6}  title"]
        for c in self.checks:
            lines.append(
                f"{c.id:<10} {'pass' if c.passed else 'FAIL':<7} {c.cases:>6}  {c.title}"
            )
            if c.counterexample:
                lines.append(f"{'':10} counterexample: {c.counterexample}")
        total = len(self.checks)
        failed = sum(not c.passed for c in self.checks)
        lines.append(
            f"{total} checks, {total - failed} passed, {failed} failed "
            f"(seed {self.seed}, d<={self.d_max}, k<={self.k_max}, "
            f"samples {self.samples})"
        )
        return "\n".join(lines) + "\n"


class _CheckFailed(Exception):
    """Raised by ``_Sweep.fail``; not a ValueError, so no check's except arm catches it."""


class _Sweep:
    """One check's context: run bounds, its generator and its case count."""

    def __init__(self, d_max: int, k_max: int, samples: int, seed: int, check_id: str):
        self.d_max = d_max
        self.k_max = k_max
        self.samples = samples
        self.rng = random.Random(f"{seed}/{check_id}")
        self.cases = 0

    def fail(self, *parts) -> NoReturn:
        raise _CheckFailed(" ".join(str(p) for p in parts))

    def dims(self, lo: int = 1, hi: int | None = None):
        return range(lo, min(self.d_max, hi if hi is not None else self.d_max) + 1)

    def degrees(self, lo: int = 0, hi: int | None = None):
        return range(lo, min(self.k_max, hi if hi is not None else self.k_max) + 1)

    def families(self, d: int, include_reference: bool = True):
        fams = [geo.reference_vertices(d)] if include_reference else []
        fams.extend(random_independent_family(d, self.rng) for _ in range(self.samples))
        return fams


_CATALOG: list[tuple[str, str, object]] = []


def _check(check_id: str, title: str):
    def deco(fn):
        _CATALOG.append((check_id, title, fn))
        return fn

    return deco


def catalog_ids() -> list[str]:
    return [cid for cid, _, _ in _CATALOG]


# ---------------------------------------------------------------- arithmetic


@_check("1364", "binomial identities")
def _binomial_identities(ctx):
    for n in range(0, 13):
        if mi.binomial(n, 0) != 1 or mi.binomial(n, n) != 1:
            ctx.fail("edge values wrong at n =", n)
        if n >= 1 and (mi.binomial(n, 1) != n or mi.binomial(n, n - 1) != n):
            ctx.fail("count-one values wrong at n =", n)
        for p in range(0, 14):
            ctx.cases += 1
            if p <= n and mi.binomial(n, n - p) != mi.binomial(n, p):
                ctx.fail("symmetry fails at", (n, p))
            if p > n and mi.binomial(n, p) != 0:
                ctx.fail("overflow value nonzero at", (n, p))
            if p != 0 and (n != 0 or p != 1):
                want = mi.binomial(n - 1, p - 1) + mi.binomial(n - 1, p) if n >= 1 else 0
                if mi.binomial(n, p) != want:
                    ctx.fail("recurrence fails at", (n, p))
    for p in range(1, 6):
        for n in range(0, 9):
            ctx.cases += 1
            lhs = sum(mi.binomial(j + p - 1, p - 1) for j in range(n + 1))
            if lhs != mi.binomial(n + p, p):
                ctx.fail("column-sum identity fails at", (n, p))


@_check("1366", "cyclic shift of [0..d]")
def _cyclic(ctx):
    for d in range(0, 7):
        for i in range(d + 1):
            values = [mi.cyclic_index(d, i, j) for j in range(d + 1)]
            ctx.cases += 1
            if sorted(values) != list(range(d + 1)):
                ctx.fail("not a bijection for", (d, i), "->", values)
            if values[d] != i:
                ctx.fail("last value is", values[d], "not", i, "at", (d, i))
        if mi.cyclic_tuple(d, d) != tuple(range(d + 1)):
            ctx.fail("shift by d is not the identity at d =", d)


@_check("1367", "transposition of [0..d]")
def _swap(ctx):
    for d in range(0, 7):
        for i in range(d + 1):
            values = mi.swap_tuple(d, i)
            ctx.cases += 1
            if sorted(values) != list(range(d + 1)):
                ctx.fail("not a bijection for", (d, i))
            if any(values[values[j]] != j for j in range(d + 1)):
                ctx.fail("not involutive for", (d, i))
            if values[i] != d:
                ctx.fail("does not send", i, "to", d)
        if mi.swap_tuple(d, d) != tuple(range(d + 1)):
            ctx.fail("swap with d is not the identity at d =", d)


@_check("1368", "jump enumeration skipping one value")
def _jump(ctx):
    for d in range(0, 7):
        for i in range(d + 2):
            values = [mi.jump_index(d, i, j) for j in range(d + 1)]
            ctx.cases += 1
            if len(set(values)) != d + 1:
                ctx.fail("not injective for", (d, i))
            if sorted(values) != [j for j in range(d + 2) if j != i]:
                ctx.fail("image wrong for", (d, i), "->", values)
        if [mi.jump_index(d, 0, j) for j in range(d + 1)] != list(range(1, d + 2)):
            ctx.fail("skip-0 form wrong at d =", d)
        if mi.jump_tuple(d, d + 1) != tuple(range(d + 1)):
            ctx.fail("skip-(d+1) is not the identity at d =", d)


# ---------------------------------------------------------------- index sets


def _box_members(d: int, k: int):
    return list(product(range(k + 1), repeat=d))


@_check("1495", "count of indices with exact sum")
def _card_exact(ctx):
    for d in ctx.dims(1, 4):
        for k in ctx.degrees(0, 6):
            ctx.cases += 1
            got = mi.enumerate_indices(d, k, "C")
            brute = [a for a in _box_members(d, k) if sum(a) == k]
            if len(got) != mi.cardinal(d, k, "C") or sorted(got) != sorted(brute):
                ctx.fail("exact-sum set wrong at", (d, k))


@_check("1498", "count of indices with bounded sum")
def _card_at_most(ctx):
    for d in ctx.dims(1, 4):
        for k in ctx.degrees(0, 6):
            ctx.cases += 1
            got = mi.enumerate_indices(d, k, "A")
            brute = [a for a in _box_members(d, k) if sum(a) <= k]
            if len(got) != mi.cardinal(d, k, "A") or sorted(got) != sorted(brute):
                ctx.fail("bounded-sum set wrong at", (d, k))


@_check("1496", "exact-sum sets layer the bounded-sum set")
def _layers(ctx):
    for d in ctx.dims(1, 4):
        for k in ctx.degrees(0, 6):
            ctx.cases += 1
            whole = mi.enumerate_indices(d, k, "A")
            layered = [a for l in range(k + 1) for a in mi.enumerate_indices(d, l, "C")]
            if whole != layered:
                ctx.fail("layer concatenation differs at", (d, k))


@_check("1493", "slices partition the exact-sum set")
def _slices(ctx):
    for d in ctx.dims(2, 4):
        for k in ctx.degrees(0, 5):
            ctx.cases += 1
            full = set(mi.enumerate_indices(d, k, "C"))
            vert = [a for i in range(k + 1) for a in mi.slice_vertical(d, k, i)]
            horiz = [a for i in range(k + 1) for a in mi.slice_horizontal(d, k, i)]
            if len(vert) != len(set(vert)) or set(vert) != full:
                ctx.fail("vertical slices fail at", (d, k))
            if len(horiz) != len(set(horiz)) or set(horiz) != full:
                ctx.fail("horizontal slices fail at", (d, k))


@_check("1500", "front/back completion maps are bijections")
def _complete_bijections(ctx):
    for d in ctx.dims(2, 4):
        for k in ctx.degrees(0, 5):
            ctx.cases += 1
            source = mi.enumerate_indices(d - 1, k, "A")
            target = set(mi.enumerate_indices(d, k, "C"))
            front = [mi.extend_front(k, a) for a in source]
            back = [mi.extend_back(k, a) for a in source]
            if len(set(front)) != len(front) or set(front) != target:
                ctx.fail("front completion not bijective at", (d, k))
            if len(set(back)) != len(back) or set(back) != target:
                ctx.fail("back completion not bijective at", (d, k))
            if any(sum(a) != k for a in front + back):
                ctx.fail("completion missed the target sum at", (d, k))


@_check("1501", "zero insertion is a sum-preserving bijection")
def _insert_bijection(ctx):
    for d in ctx.dims(2, 4):
        for k in ctx.degrees(0, 5):
            source = mi.enumerate_indices(d - 1, k, "A")
            for i in range(1, d + 1):
                ctx.cases += 1
                image = [mi.insert_zero(i, a) for a in source]
                target = set(mi.enumerate_indices(d, k, "Azero", zero_index=i))
                if len(set(image)) != len(image) or set(image) != target:
                    ctx.fail("insertion not bijective at", (d, k, i))
                if any(sum(b) != sum(a) for a, b in zip(source, image)):
                    ctx.fail("insertion changed a sum at", (d, k, i))


@_check("1487", "dimension-1 index set is an integer range")
def _dim1_range(ctx):
    for k in ctx.degrees(0, 6):
        ctx.cases += 1
        if mi.enumerate_indices(1, k, "A") != [(i,) for i in range(k + 1)]:
            ctx.fail("range form fails at k =", k)


# ---------------------------------------------------------------- orders


@_check("3.3.2", "order axioms for all eight orders")
def _order_axioms(ctx):
    pool = mi.enumerate_indices(3, 3, "A")
    zero = (0, 0, 0)
    for order in mi.ORDERS:
        for a in pool:
            for b in pool:
                ctx.cases += 1
                c1, c2 = mi.compare(order, a, b), mi.compare(order, b, a)
                if (a == b) != (c1 == 0) or c1 != -c2:
                    ctx.fail(order, "totality fails at", (a, b))
        # additivity: a < b implies a+g < b+g
        small = mi.enumerate_indices(3, 2, "A")
        for a in small:
            for b in small:
                if mi.compare(order, a, b) >= 0:
                    continue
                for g in small:
                    ctx.cases += 1
                    sa = tuple(x + y for x, y in zip(a, g))
                    sb = tuple(x + y for x, y in zip(b, g))
                    if mi.compare(order, sa, sb) >= 0:
                        ctx.fail(order, "translation fails at", (a, b, g))
        if order in mi.GRADED_ORDERS:
            for a in pool:
                if a == zero:
                    continue
                ctx.cases += 1
                if mi.compare(order, zero, a) >= 0:
                    ctx.fail(order, "zero is not minimal against", a)


@_check("3.3.3", "mirror identities between the base orders")
def _order_mirrors(ctx):
    pool = mi.enumerate_indices(3, 3, "A")
    for a in pool:
        for b in pool:
            ctx.cases += 1
            if mi.compare("symlex", a, b) != mi.compare("lex", b, a):
                ctx.fail("symlex mirror fails at", (a, b))
            if mi.compare("revlex", a, b) != mi.compare("colex", b, a):
                ctx.fail("revlex mirror fails at", (a, b))


@_check("3.3.8i", "graded orders respect increasing sum")
def _condition_degree(ctx):
    for order in mi.GRADED_ORDERS:
        for d in (1, 2, 3):
            ctx.cases += 1
            w = mi.condition_degree_monotone(order, d, 3)
            if w is not None:
                ctx.fail(order, "violates degree monotonicity at", w)
    # the four ungraded orders all fail it in dimension 2
    for order in ("lex", "colex", "symlex", "revlex"):
        ctx.cases += 1
        if mi.condition_degree_monotone(order, 2, 3) is None:
            ctx.fail(order, "unexpectedly degree-monotone")


@_check("3.3.8ii", "dimension-embedding condition per graded order")
def _condition_embedding(ctx):
    results = {o: mi.condition_dimension_embedding(o, 3, 3) for o in mi.GRADED_ORDERS}
    expected_routes = {"grsymlex": "front", "grevlex": "back", "grlex": None, "grcolex": None}
    for order, want in expected_routes.items():
        ctx.cases += 1
        got = results[order]
        if got["satisfied"] != (want is not None) or got["route"] != want:
            ctx.fail(order, "embedding verdict", got["route"], "expected", want)
    # documented violating instances
    instances = [
        ("grlex", (1, 0), (0, 2), mi.extend_front),
        ("grlex", (1, 0), (0, 2), mi.extend_back),
        ("grcolex", (0, 1), (2, 0), mi.extend_front),
        ("grcolex", (0, 1), (2, 0), mi.extend_back),
    ]
    for order, a, b, f in instances:
        ctx.cases += 1
        if not (mi.compare(order, a, b) < 0 and mi.compare(order, f(3, b), f(3, a)) < 0):
            ctx.fail(order, "documented violation missing for", (a, b))


@_check("3.3.8iii", "vertex-numbering condition per graded order")
def _condition_vertices(ctx):
    expected = {"grsymlex": True, "grcolex": True, "grlex": False, "grevlex": False}
    for d, k in ((2, 3), (3, 3)):
        for order, want in expected.items():
            ctx.cases += 1
            w = mi.condition_vertex_numbering(order, d, k)
            if (w is None) != want:
                ctx.fail(order, "vertex numbering at", (d, k), "witness", w)
    for order in ("grlex", "grevlex"):
        ctx.cases += 1
        if not mi.compare(order, (0, 3), (3, 0)) < 0:
            ctx.fail(order, "documented numbering violation missing")


# ---------------------------------------------------------------- 1-D basis


@_check("1449", "one-variable nodal basis properties")
def _basis_1d(ctx):
    for k in ctx.degrees(0, 5):
        nodes = _distinct_rationals(k + 1, ctx.rng)
        basis = [lagrange_basis_1d(nodes, i) for i in range(k + 1)]
        for i, Li in enumerate(basis):
            ctx.cases += 1
            if k >= 1 and Li.degree() != k:
                ctx.fail("degree wrong at", (k, i))
            for j, a in enumerate(nodes):
                if Li.eval((a,)) != (1 if i == j else 0):
                    ctx.fail("nodal values wrong at", (k, i, j))
        ctx.cases += 1
        if not _sums_to_one(basis, 1):
            ctx.fail("partition of unity fails at k =", k)


@_check("1450", "one-variable nodal decomposition")
def _decomp_1d(ctx):
    for k in ctx.degrees(0, 5):
        nodes = _distinct_rationals(k + 1, ctx.rng)
        for _ in range(ctx.samples):
            ctx.cases += 1
            p = random_polynomial(1, k, ctx.rng)
            rebuilt = Polynomial.zero(1)
            for i, a in enumerate(nodes):
                rebuilt = rebuilt + lagrange_basis_1d(nodes, i).scale(p.eval((a,)))
            if rebuilt != p:
                ctx.fail("decomposition fails at k =", k)


# ---------------------------------------------------------------- polynomials


@_check("1504", "one-variable monomials agree with powers")
def _monomial_1d(ctx):
    for k in ctx.degrees(0, 6):
        for _ in range(ctx.samples):
            ctx.cases += 1
            x = random_rational(ctx.rng)
            if Polynomial.monomial((k,)).eval((x,)) != x**k:
                ctx.fail("power mismatch at", (k, x))


@_check("1506", "one-variable polynomials evaluate coefficientwise")
def _poly_1d(ctx):
    for k in ctx.degrees(0, 5):
        for _ in range(ctx.samples):
            ctx.cases += 1
            p = random_polynomial(1, k, ctx.rng)
            x = random_rational(ctx.rng)
            direct = sum(
                (c * x ** e[0] for e, c in p.terms.items()), Fraction(0)
            )
            if p.eval((x,)) != direct:
                ctx.fail("evaluation mismatch at k =", k)


@_check("1514", "monomials multiply by adding exponents")
def _monomial_product(ctx):
    pool = mi.enumerate_indices(3, 3, "A")
    for a in pool:
        for b in pool:
            ctx.cases += 1
            got = Polynomial.monomial(a) * Polynomial.monomial(b)
            want = Polynomial.monomial(tuple(x + y for x, y in zip(a, b)))
            if got != want:
                ctx.fail("product off at", (a, b))


@_check("1516", "product degree is bounded by the sum of degrees")
def _product_degree(ctx):
    for d in ctx.dims():
        for k in ctx.degrees(0, 3):
            for l in ctx.degrees(0, 3):
                for _ in range(ctx.samples):
                    ctx.cases += 1
                    p = random_polynomial(d, k, ctx.rng)
                    q = random_polynomial(d, l, ctx.rng)
                    pq = p * q
                    if pq.degree() > k + l:
                        ctx.fail("degree bound broken at", (d, k, l))
                    x = random_point(d, ctx.rng)
                    if pq.eval(x) != p.eval(x) * q.eval(x):
                        ctx.fail("pointwise product off at", (d, k, l))
    # one variable: nonzero leading coefficients multiply, so degrees add
    for _ in range(5 * ctx.samples):
        ctx.cases += 1
        p = random_polynomial(1, 3, ctx.rng)
        q = random_polynomial(1, 3, ctx.rng)
        if p.is_zero() or q.is_zero():
            continue
        if (p * q).degree() != p.degree() + q.degree():
            ctx.fail("one-variable degree addition fails")


@_check("1522", "derivative of a monomial at the origin")
def _derivative_at_zero(ctx):
    pool = mi.enumerate_indices(3, 3, "A")
    origin = (Fraction(0),) * 3
    for a in pool:
        for b in pool:
            ctx.cases += 1
            got = partial_derivative(Polynomial.monomial(a), b).eval(origin)
            want = mi.factorial(a) * mi.kronecker(a, b)
            if got != want:
                ctx.fail("derivative at origin off at", (a, b))


@_check("1523", "coefficients are recovered by derivatives at the origin")
def _freeness(ctx):
    origin = (Fraction(0),) * 3
    for _ in range(ctx.samples * 2):
        p = random_polynomial(3, 3, ctx.rng)
        if p.is_zero():
            continue
        for beta in mi.enumerate_indices(3, 3, "A"):
            ctx.cases += 1
            got = partial_derivative(p, beta).eval(origin)
            if got != mi.factorial(beta) * p.coefficient(beta):
                ctx.fail("coefficient recovery fails at", beta)


@_check("1529", "split on the last variable is exact and unique")
def _split_last(ctx):
    for d in ctx.dims(2):
        for k in ctx.degrees(1, 4):
            for _ in range(ctx.samples):
                ctx.cases += 1
                p = random_polynomial(d, k, ctx.rng)
                head, quot = divide_by_last_variable(p)
                if recombine_last_variable(head, quot) != p:
                    ctx.fail("recombination fails at", (d, k))
                if head.degree() > max(p.degree(), 0):
                    ctx.fail("head degree too big at", (d, k))
                if quot.degree() != NEG_INF and quot.degree() > k - 1:
                    ctx.fail("quotient degree too big at", (d, k))
                # uniqueness: splitting the recombination of any pair returns it
                h2 = random_polynomial(d - 1, k, ctx.rng)
                q2 = random_polynomial(d, k - 1, ctx.rng)
                if divide_by_last_variable(recombine_last_variable(h2, q2)) != (h2, q2):
                    ctx.fail("uniqueness fails at", (d, k))


@_check("1531", "the split is linear and invertible")
def _split_linear(ctx):
    for d in ctx.dims(2):
        for k in ctx.degrees(1, 3):
            for _ in range(ctx.samples):
                ctx.cases += 1
                p = random_polynomial(d, k, ctx.rng)
                q = random_polynomial(d, k, ctx.rng)
                hp, qp = divide_by_last_variable(p)
                hq, qq = divide_by_last_variable(q)
                hs, qs = divide_by_last_variable(p + q)
                if hs != hp + hq or qs != qp + qq:
                    ctx.fail("additivity fails at", (d, k))
    zero2 = Polynomial.zero(2)
    ctx.cases += 1
    if divide_by_last_variable(zero2) != (Polynomial.zero(1), zero2):
        ctx.fail("zero does not split to zeros")


@_check("1534", "coefficients in the last variable rebuild the polynomial")
def _horner(ctx):
    for d in ctx.dims(2):
        for k in ctx.degrees(0, 4):
            for _ in range(ctx.samples):
                ctx.cases += 1
                p = random_polynomial(d, k, ctx.rng)
                coeffs = horner_coefficients(p)
                xd = Polynomial.variable(d, d)
                rebuilt = Polynomial.zero(d)
                power = Polynomial.constant(d, 1)
                for r in coeffs:
                    rebuilt = rebuilt + embed_last(r) * power
                    power = power * xd
                if rebuilt != p:
                    ctx.fail("reconstruction fails at", (d, k))
                kk = max(p.degree(), 0)
                for i, r in enumerate(coeffs):
                    if r.degree() != NEG_INF and r.degree() > kk - i:
                        ctx.fail("coefficient degree too big at", (d, k, i))


@_check("1540", "composition with affine maps is polynomial of same degree")
def _compose_affine_check(ctx):
    for d in ctx.dims():
        for k in ctx.degrees(0, 3):
            for _ in range(ctx.samples):
                p = random_polynomial(d, k, ctx.rng)
                f = _random_affine_map(d, ctx.rng)
                q = compose_affine(p, f)
                if q.degree() > max(p.degree(), 0) and not p.is_zero():
                    ctx.fail("degree grew at", (d, k))
                for _ in range(5):
                    ctx.cases += 1
                    y = random_point(d, ctx.rng)
                    if q.eval(y) != p.eval(geo.affine_apply(f, y)):
                        ctx.fail("pointwise composition off at", (d, k))
                # functoriality through a second map
                g = _random_affine_map(d, ctx.rng)
                ctx.cases += 1
                if compose_affine(p, geo.affine_compose(f, g)) != compose_affine(
                    compose_affine(p, f), g
                ):
                    ctx.fail("functoriality fails at", (d, k))


# ---------------------------------------------------------------- geometry


@_check("1402", "affine maps preserve the isobarycenter")
def _isobarycenter_affine(ctx):
    for d in ctx.dims():
        for _ in range(ctx.samples):
            ctx.cases += 1
            pts = [random_point(d, ctx.rng) for _ in range(ctx.rng.randint(1, d + 2))]
            f = _random_affine_map(d, ctx.rng)
            lhs = geo.affine_apply(f, geo.isobarycenter(pts))
            rhs = geo.isobarycenter([geo.affine_apply(f, p) for p in pts])
            if lhs != rhs:
                ctx.fail("isobarycenter not preserved at d =", d)


@_check("1435", "reference isobarycenter coordinates")
def _reference_isobarycenter(ctx):
    for d in ctx.dims():
        ctx.cases += 1
        g = geo.isobarycenter(geo.reference_vertices(d))
        if g != (Fraction(1, d + 1),) * d:
            ctx.fail("coordinates wrong at d =", d, "->", g)


@_check("1436", "reference vertices are affinely independent")
def _reference_independent(ctx):
    for d in ctx.dims(1, 4):
        ctx.cases += 1
        if not geo.is_affinely_independent(geo.reference_vertices(d)):
            ctx.fail("reference family dependent at d =", d)


@_check("1543", "reference affine basis: nodal values and unit sum")
def _reference_affine_basis(ctx):
    for d in ctx.dims():
        basis = [geo.reference_barycentric(d, i) for i in range(d + 1)]
        verts = geo.reference_vertices(d)
        for i, Li in enumerate(basis):
            ctx.cases += 1
            if Li.degree() != 1:
                ctx.fail("degree wrong at", (d, i))
            for j, v in enumerate(verts):
                if Li.eval(v) != (1 if i == j else 0):
                    ctx.fail("nodal value wrong at", (d, i, j))
        ctx.cases += 1
        if not _sums_to_one(basis, d):
            ctx.fail("unit-sum fails at d =", d)


@_check("1542", "reference affine basis in dimension 1 is the nodal basis")
def _reference_affine_1d(ctx):
    ctx.cases += 1
    want = [lagrange_basis_1d([0, 1], i) for i in range(2)]
    got = [geo.reference_barycentric(1, i) for i in range(2)]
    if got != want:
        ctx.fail("bases differ:", got, "vs", want)


@_check("1548", "dimension-1 geometric mapping closed form")
def _geo_map_1d(ctx):
    for _ in range(ctx.samples * 2):
        ctx.cases += 1
        v0, v1 = random_rational(ctx.rng), random_rational(ctx.rng)
        f = geo.geometric_mapping(((v0,), (v1,)))
        x = random_rational(ctx.rng)
        if geo.affine_apply(f, (x,)) != ((v1 - v0) * x + v0,):
            ctx.fail("closed form off for", (v0, v1))


@_check("1549", "reference geometric mapping is the identity")
def _geo_map_reference(ctx):
    for d in ctx.dims():
        ctx.cases += 1
        f = geo.geometric_mapping(geo.reference_vertices(d))
        if f != geo.identity_map(d):
            ctx.fail("not the identity at d =", d)


@_check("1550", "geometric mapping sends reference vertices to vertices")
def _geo_map_properties(ctx):
    for d in ctx.dims():
        for fam in ctx.families(d):
            f = geo.geometric_mapping(fam)
            for i, rv in enumerate(geo.reference_vertices(d)):
                ctx.cases += 1
                if geo.affine_apply(f, rv) != fam[i]:
                    ctx.fail("vertex image wrong at", (d, i))
            inv = geo.affine_inverse(f)
            for i, v in enumerate(fam):
                ctx.cases += 1
                if geo.affine_apply(inv, v) != geo.reference_vertices(d)[i]:
                    ctx.fail("inverse vertex image wrong at", (d, i))
            ctx.cases += 1
            if geo.affine_compose(f, inv) != geo.identity_map(d):
                ctx.fail("compose-with-inverse not identity at d =", d)


@_check("1553", "barycentric polynomials of the reference family")
def _barycentric_reference(ctx):
    for d in ctx.dims():
        ctx.cases += 1
        got = geo.barycentric_polynomials(geo.reference_vertices(d))
        want = [geo.reference_barycentric(d, i) for i in range(d + 1)]
        if got != want:
            ctx.fail("reference barycentric mismatch at d =", d)


@_check("1554", "barycentric polynomials: nodal values and unit sum")
def _barycentric_properties(ctx):
    for d in ctx.dims():
        for fam in ctx.families(d):
            lams = geo.barycentric_polynomials(fam)
            for i, lam in enumerate(lams):
                for j, v in enumerate(fam):
                    ctx.cases += 1
                    if lam.eval(v) != (1 if i == j else 0):
                        ctx.fail("nodal value wrong at", (d, i, j))
            ctx.cases += 1
            if not _sums_to_one(lams, d):
                ctx.fail("unit-sum fails at d =", d)


@_check("1555", "affine polynomials decompose over the vertices")
def _affine_decomposition(ctx):
    for d in ctx.dims():
        for fam in ctx.families(d):
            lams = geo.barycentric_polynomials(fam)
            for _ in range(ctx.samples):
                ctx.cases += 1
                p = random_polynomial(d, 1, ctx.rng)
                rebuilt = Polynomial.zero(d)
                for v, lam in zip(fam, lams):
                    rebuilt = rebuilt + lam.scale(p.eval(v))
                if rebuilt != p:
                    ctx.fail("decomposition fails at d =", d)


@_check("1559", "barycentric values rebuild the point and sum to one")
def _barycentric_point(ctx):
    for d in ctx.dims():
        for fam in ctx.families(d):
            lams = geo.barycentric_polynomials(fam)
            for _ in range(ctx.samples):
                ctx.cases += 1
                x = random_point(d, ctx.rng)
                values = [lam.eval(x) for lam in lams]
                if sum(values) != 1:
                    ctx.fail("values do not sum to one at d =", d)
                rebuilt = tuple(
                    sum((mu * v[row] for mu, v in zip(values, fam)), Fraction(0))
                    for row in range(d)
                )
                if rebuilt != x:
                    ctx.fail("point not rebuilt at d =", d)


@_check("1560", "barycentric values equal inverse-mapping coordinates")
def _barycentric_inverse(ctx):
    for d in ctx.dims():
        for fam in ctx.families(d):
            lams = geo.barycentric_polynomials(fam)
            inv = geo.affine_inverse(geo.geometric_mapping(fam))
            for _ in range(ctx.samples):
                ctx.cases += 1
                x = random_point(d, ctx.rng)
                back = geo.affine_apply(inv, x)
                if any(lams[i].eval(x) != back[i - 1] for i in range(1, d + 1)):
                    ctx.fail("coordinate mismatch at d =", d)


def _random_hyperplane_point(fam, i, rng):
    """Random point of the face hyperplane opposite v_i (coefficients sum 1)."""
    d = geo.family_dim(fam)
    others = [j for j in range(d + 1) if j != i]
    coeffs = {j: random_rational(rng) for j in others[:-1]}
    coeffs[others[-1]] = 1 - sum(coeffs.values())
    return tuple(
        sum((coeffs[j] * fam[j][row] for j in others), Fraction(0)) for row in range(d)
    )


@_check("1563", "face hyperplane is the zero set of one barycentric value")
def _hyperplane_kernel(ctx):
    for d in ctx.dims():
        for fam in ctx.families(d):
            for i in range(d + 1):
                for _ in range(ctx.samples):
                    ctx.cases += 1
                    x = _random_hyperplane_point(fam, i, ctx.rng)
                    if not geo.face_hyperplane_contains(fam, i, x):
                        ctx.fail("hyperplane point rejected at", (d, i))
                ctx.cases += 1
                if geo.face_hyperplane_contains(fam, i, fam[i]):
                    ctx.fail("opposite vertex accepted at", (d, i))


@_check("1564", "reference face hyperplanes have coordinate equations")
def _reference_hyperplane(ctx):
    for d in ctx.dims():
        fam = geo.reference_vertices(d)
        for _ in range(ctx.samples * 4):
            ctx.cases += 1
            x = random_point(d, ctx.rng)
            if geo.face_hyperplane_contains(fam, 0, x) != (sum(x) == 1):
                ctx.fail("sum-one equation fails at d =", d)
            for i in range(1, d + 1):
                if geo.face_hyperplane_contains(fam, i, x) != (x[i - 1] == 0):
                    ctx.fail("coordinate equation fails at", (d, i))


@_check("1565", "face hyperplanes match the reference ones through the map")
def _hyperplane_image(ctx):
    for d in ctx.dims():
        for fam in ctx.families(d, include_reference=False):
            forward = geo.geometric_mapping(fam)
            inv = geo.affine_inverse(forward)
            ref = geo.reference_vertices(d)
            for i in range(d + 1):
                for _ in range(20):
                    ctx.cases += 2
                    xhat = _random_hyperplane_point(ref, i, ctx.rng)
                    if not geo.face_hyperplane_contains(
                        fam, i, geo.affine_apply(forward, xhat)
                    ):
                        ctx.fail("forward image misses at", (d, i))
                    x = _random_hyperplane_point(fam, i, ctx.rng)
                    if not geo.face_hyperplane_contains(
                        ref, i, geo.affine_apply(inv, x)
                    ):
                        ctx.fail("inverse image misses at", (d, i))


@_check("1574", "simplex membership is invariant under vertex relabeling")
def _relabel_invariance(ctx):
    for d in ctx.dims(1, 3):
        for fam in ctx.families(d, include_reference=False):
            perms = list(permutations(range(d + 1)))
            for _ in range(ctx.samples):
                x = random_point(d, ctx.rng)
                inside = geo.in_simplex(fam, x)
                for perm in perms:
                    ctx.cases += 1
                    relabeled = tuple(fam[p] for p in perm)
                    if geo.in_simplex(relabeled, x) != inside:
                        ctx.fail("membership changed at", (d, perm))


@_check("1414", "faces of independent families are independent")
def _subfamily_independent(ctx):
    for d in ctx.dims(2):
        for fam in ctx.families(d, include_reference=False):
            for l in range(1, d + 1):
                for _ in range(ctx.samples):
                    ctx.cases += 1
                    sel = ctx.rng.sample(range(d + 1), l + 1)
                    f = geo.face_mapping(fam, sel)
                    if mat_rank(f.matrix) != l:
                        ctx.fail("face not independent at", (d, l, tuple(sel)))


@_check("1581", "face mappings send reference vertices to selected ones")
def _face_mapping_vertices(ctx):
    for d in ctx.dims(2):
        for fam in ctx.families(d):
            for l in range(1, d + 1):
                sel = ctx.rng.sample(range(d + 1), l + 1)
                f = geo.face_mapping(fam, sel)
                for j, rv in enumerate(geo.reference_vertices(l)):
                    ctx.cases += 1
                    if geo.affine_apply(f, rv) != fam[sel[j]]:
                        ctx.fail("vertex image wrong at", (d, l, j))


@_check("1579", "the full-selector face mapping is the geometric mapping")
def _face_mapping_full(ctx):
    for d in ctx.dims():
        for fam in ctx.families(d):
            ctx.cases += 1
            if geo.face_mapping(fam, range(d + 1)) != geo.geometric_mapping(fam):
                ctx.fail("identity selector differs at d =", d)


@_check("1584", "hyperface mappings land on the opposite hyperplane")
def _hyperface_mapping_check(ctx):
    for d in ctx.dims(2):
        for fam in ctx.families(d):
            for i in range(d + 1):
                f = geo.hyperface_mapping(fam, i)
                for j in range(d):
                    ctx.cases += 1
                    image = geo.affine_apply(f, geo.reference_vertices(d - 1)[j])
                    want = fam[j] if j < i else fam[j + 1]
                    if image != want:
                        ctx.fail("vertex image wrong at", (d, i, j))
                for _ in range(ctx.samples):
                    ctx.cases += 1
                    xhat = random_point(d - 1, ctx.rng)
                    if not geo.face_hyperplane_contains(
                        fam, i, geo.affine_apply(f, xhat)
                    ):
                        ctx.fail("image off the hyperplane at", (d, i))


@_check("1586", "relabeling maps transport barycentric values and faces")
def _permutation_mapping_check(ctx):
    for d in ctx.dims(1, 3):
        for fam in ctx.families(d, include_reference=False):
            lams = geo.barycentric_polynomials(fam)
            perms = list(permutations(range(d + 1)))
            ctx.rng.shuffle(perms)
            for perm in perms[: ctx.samples]:
                f = geo.permutation_mapping(fam, perm)
                for j in range(d + 1):
                    ctx.cases += 1
                    if compose_affine(lams[perm[j]], f) != geo.reference_barycentric(d, j):
                        ctx.fail("pullback mismatch at", (d, perm, j))
                for _ in range(ctx.samples):
                    ctx.cases += 1
                    xhat = _random_hyperplane_point(geo.reference_vertices(d), d, ctx.rng)
                    if lams[perm[d]].eval(geo.affine_apply(f, xhat)) != 0:
                        ctx.fail("face transport fails at", (d, perm))


# ---------------------------------------------------------------- nodes


@_check("1589", "dimension-1 nodes follow the arithmetic progression")
def _nodes_1d(ctx):
    for k in ctx.degrees():
        for _ in range(ctx.samples):
            ctx.cases += 1
            v0, v1 = random_rational(ctx.rng), random_rational(ctx.rng)
            got = [pt[0] for _, pt in fe.lagrange_nodes(((v0,), (v1,)), k)]
            if k == 0:
                want = [(v0 + v1) / 2]
            else:
                h = Fraction(v1 - v0, k)
                want = [v0 + i * h for i in range(k + 1)]
            if got != want:
                ctx.fail("node values wrong at k =", k)


@_check("1590", "nodes are pairwise distinct with the right count")
def _nodes_distinct(ctx):
    for d in ctx.dims():
        for k in ctx.degrees():
            for fam in ctx.families(d):
                ctx.cases += 1
                nodes = [pt for _, pt in fe.lagrange_nodes(fam, k)]
                if len(set(nodes)) != len(nodes):
                    ctx.fail("duplicate nodes at", (d, k))
                if len(nodes) != mi.binomial(k + d, d):
                    ctx.fail("node count wrong at", (d, k))


@_check("1591", "barycentric values of the nodes")
def _node_barycentric(ctx):
    for d in ctx.dims():
        for k in ctx.degrees(1):
            for fam in ctx.families(d, include_reference=False):
                lams = geo.barycentric_polynomials(fam)
                for alpha, pt in fe.lagrange_nodes(fam, k):
                    ctx.cases += 1
                    if lams[0].eval(pt) != 1 - Fraction(mi.length(alpha), k):
                        ctx.fail("first value wrong at", (d, k, alpha))
                    if any(
                        lams[i].eval(pt) != Fraction(alpha[i - 1], k)
                        for i in range(1, d + 1)
                    ):
                        ctx.fail("value wrong at", (d, k, alpha))


@_check("1592", "vertices appear among the nodes")
def _vertices_are_nodes(ctx):
    for d in ctx.dims():
        for k in ctx.degrees(1):
            for fam in ctx.families(d):
                nodes = dict(fe.lagrange_nodes(fam, k))
                ctx.cases += 1
                if nodes[(0,) * d] != fam[0]:
                    ctx.fail("origin label misses v_0 at", (d, k))
                for i in range(1, d + 1):
                    label = tuple(k if j == i - 1 else 0 for j in range(d))
                    if nodes[label] != fam[i]:
                        ctx.fail("corner label misses vertex at", (d, k, i))


@_check("1593", "degree-1 nodes are exactly the vertices")
def _degree1_nodes(ctx):
    for d in ctx.dims():
        for fam in ctx.families(d):
            ctx.cases += 1
            got = [pt for _, pt in fe.lagrange_nodes(fam, 1)]
            if got != list(fam):
                ctx.fail("degree-1 nodes differ at d =", d)


@_check("1595", "shrunken vertices are nodes next to the corners")
def _sub_vertex_labels(ctx):
    for d in ctx.dims():
        for k in ctx.degrees(1):
            for fam in ctx.families(d, include_reference=False):
                nodes = dict(fe.lagrange_nodes(fam, k))
                sub = fe.sub_vertices(fam, k)
                ctx.cases += 1
                if sub[0] != fam[0]:
                    ctx.fail("first sub-vertex moved at", (d, k))
                for i in range(1, d + 1):
                    label = tuple(k - 1 if j == i - 1 else 0 for j in range(d))
                    if sub[i] != nodes[label]:
                        ctx.fail("sub-vertex is not that node at", (d, k, i))


@_check("1597", "shrunken vertices stay affinely independent")
def _sub_vertices_independent(ctx):
    for d in ctx.dims():
        for k in ctx.degrees(2):
            for fam in ctx.families(d):
                ctx.cases += 1
                if not geo.is_affinely_independent(fe.sub_vertices(fam, k)):
                    ctx.fail("shrunken family degenerate at", (d, k))


@_check("1598", "lower-degree nodes of the shrunken family are inner nodes")
def _sub_nodes(ctx):
    for d in ctx.dims():
        for k in ctx.degrees(2):
            for fam in ctx.families(d):
                ctx.cases += 1
                if not fe.sub_nodes_coincide(fam, k):
                    ctx.fail("sub-node identity fails at", (d, k))


@_check("1599", "reference node coordinates")
def _reference_node_coords(ctx):
    for d in ctx.dims():
        ctx.cases += 1
        if fe.reference_nodes(d, 0)[0][1] != (Fraction(1, d + 1),) * d:
            ctx.fail("degree-0 reference node wrong at d =", d)
        for k in ctx.degrees(1):
            for alpha, pt in fe.reference_nodes(d, k):
                ctx.cases += 1
                if pt != tuple(Fraction(a, k) for a in alpha):
                    ctx.fail("coordinates wrong at", (d, k, alpha))


@_check("1600", "dimension-1 reference nodes are the uniform grid")
def _reference_nodes_1d(ctx):
    for k in ctx.degrees():
        ctx.cases += 1
        got = [pt[0] for _, pt in fe.reference_nodes(1, k)]
        want = [Fraction(1, 2)] if k == 0 else [Fraction(i, k) for i in range(k + 1)]
        if got != want:
            ctx.fail("grid wrong at k =", k)


@_check("1604", "nodes are geometric images of the reference nodes")
def _node_images(ctx):
    for d in ctx.dims():
        for k in ctx.degrees():
            for fam in ctx.families(d):
                ctx.cases += 1
                if not fe.nodes_are_reference_images(fam, k):
                    ctx.fail("image identity fails at", (d, k))


@_check("1605", "census of nodes on each face hyperplane")
def _hyperplane_census(ctx):
    for d in ctx.dims():
        for k in ctx.degrees(1):
            for fam in ctx.families(d, include_reference=False):
                nodes = dict(fe.lagrange_nodes(fam, k))
                lams = geo.barycentric_polynomials(fam)
                for i in range(d + 1):
                    ctx.cases += 1
                    listed = fe.nodes_on_hyperplane(fam, k, i)
                    if len(listed) != mi.binomial(k + d - 1, d - 1):
                        ctx.fail("census count wrong at", (d, k, i))
                    geometric = {
                        alpha
                        for alpha, pt in nodes.items()
                        if lams[i].eval(pt) == 0
                    }
                    if set(listed) != geometric:
                        ctx.fail("census disagrees with geometry at", (d, k, i))


@_check("1607", "hyperface mappings transport reference nodes to face nodes")
def _node_transport(ctx):
    for d in ctx.dims(2):
        for k in ctx.degrees(1):
            for fam in ctx.families(d):
                for i in range(d + 1):
                    ctx.cases += 1
                    if not fe.hyperface_transport_consistent(fam, k, i):
                        ctx.fail("transport fails at", (d, k, i))


# ---------------------------------------------------------------- evaluations


@_check("1609", "dimension-1 node evaluations")
def _linear_forms_1d(ctx):
    for k in ctx.degrees():
        fam = ((random_rational(ctx.rng),), (random_rational(ctx.rng),))
        while fam[0] == fam[1]:
            fam = (fam[0], (random_rational(ctx.rng),))
        nodes = fe.lagrange_nodes(fam, k)
        for _ in range(ctx.samples):
            p = random_polynomial(1, k, ctx.rng)
            for alpha, pt in nodes:
                ctx.cases += 1
                if fe.linear_form(fam, k, alpha, p) != p.eval(pt):
                    ctx.fail("evaluation mismatch at", (k, alpha))


@_check("1613", "reference node evaluations in dimension 1")
def _reference_forms_1d(ctx):
    for k in ctx.degrees():
        fam = geo.reference_vertices(1)
        for alpha, pt in fe.lagrange_nodes(fam, k):
            ctx.cases += 1
            p = random_polynomial(1, k, ctx.rng)
            if fe.linear_form(fam, k, alpha, p) != p.eval(pt):
                ctx.fail("evaluation mismatch at", (k, alpha))


@_check("1614", "node evaluations pull back through the geometric map")
def _forms_pullback(ctx):
    for d in ctx.dims():
        for k in ctx.degrees(0, 3):
            for fam in ctx.families(d, include_reference=False):
                forward = geo.geometric_mapping(fam)
                ref = dict(fe.reference_nodes(d, k))
                for _ in range(ctx.samples):
                    p = random_polynomial(d, k, ctx.rng)
                    pulled = compose_affine(p, forward)
                    for alpha, pt in fe.lagrange_nodes(fam, k):
                        ctx.cases += 1
                        if p.eval(pt) != pulled.eval(ref[alpha]):
                            ctx.fail("pullback mismatch at", (d, k, alpha))


# ---------------------------------------------------------------- elements


def _kronecker_ok(elem: fe.LagrangeElement):
    for b, theta in enumerate(elem.shape_functions):
        for a, pt in enumerate(elem.nodes):
            if theta.eval(pt) != (1 if a == b else 0):
                return (elem.node_index[a], elem.node_index[b])
    return None


@_check("1617", "degree-0 element: one node, constant shape function")
def _element_degree0(ctx):
    for d in ctx.dims():
        for fam in ctx.families(d):
            ctx.cases += 1
            elem = fe.build_element(fam, 0)
            if elem.nodes != (geo.isobarycenter(fam),):
                ctx.fail("node is not the isobarycenter at d =", d)
            if list(elem.shape_functions) != [Polynomial.constant(d, 1)]:
                ctx.fail("shape function is not 1 at d =", d)


@_check("1620", "degree-1 shape functions are the barycentric polynomials")
def _element_degree1(ctx):
    for d in ctx.dims():
        for fam in ctx.families(d):
            ctx.cases += 1
            elem = fe.build_element(fam, 1)
            if list(elem.shape_functions) != geo.barycentric_polynomials(fam):
                ctx.fail("degree-1 basis mismatch at d =", d)


@_check("1477", "dimension-1 elements are unisolvent")
def _unisolvence_1d(ctx):
    for k in ctx.degrees():
        for _ in range(ctx.samples):
            ctx.cases += 1
            fam = random_independent_family(1, ctx.rng)
            if not fe.is_unisolvent(fam, k):
                ctx.fail("singular node matrix at k =", k)


@_check("1626", "unisolvence sweep with dual nodal bases")
def _unisolvence_sweep(ctx):
    for d in ctx.dims():
        for k in ctx.degrees():
            for fam in ctx.families(d):
                ctx.cases += 1
                if mat_det(fe.vandermonde_matrix(fam, k)) == 0:
                    ctx.fail("singular node matrix at", (d, k))
                witness = _kronecker_ok(fe.build_element(fam, k))
                if witness is not None:
                    ctx.fail("dual basis fails at", (d, k), "pair", witness)


@_check("1621", "vanishing on the last reference face forces a clean split")
def _factor_reference(ctx):
    for d in ctx.dims(2):
        for k in ctx.degrees(1, 4):
            xd = Polynomial.variable(d, d)
            for _ in range(ctx.samples):
                ctx.cases += 1
                q = random_polynomial(d, k - 1, ctx.rng)
                head, quot = divide_by_last_variable(xd * q)
                if not head.is_zero() or quot != q:
                    ctx.fail("split not clean at", (d, k))


@_check("1623", "factoring a polynomial vanishing on a face hyperplane")
def _factor_general(ctx):
    for d in ctx.dims(2):
        for k in ctx.degrees(1, 4):
            for fam in ctx.families(d, include_reference=False)[:2]:
                lams = geo.barycentric_polynomials(fam)
                for i in range(d + 1):
                    for _ in range(ctx.samples):
                        ctx.cases += 1
                        q = random_polynomial(d, k - 1, ctx.rng)
                        got = fe.factor_on_hyperplane(fam, k, i, lams[i] * q)
                        if got != q:
                            ctx.fail("quotient wrong at", (d, k, i))
                    ctx.cases += 1
                    try:
                        fe.factor_on_hyperplane(fam, k, i, Polynomial.constant(d, 1))
                        ctx.fail("non-vanishing input accepted at", (d, k, i))
                    except NotVanishingError:
                        pass


@_check("1628", "face-node vanishing equals hyperplane vanishing")
def _face_unisolvence_check(ctx):
    for d in ctx.dims(2):
        for k in ctx.degrees(1, 3):
            for fam in ctx.families(d, include_reference=False)[:2]:
                lams = geo.barycentric_polynomials(fam)
                elem = fe.build_element(fam, k)
                for i in range(d + 1):
                    ctx.cases += 1
                    q = random_polynomial(d, k - 1, ctx.rng)
                    if fe.face_unisolvence(fam, k, i, lams[i] * q) is not True:
                        ctx.fail("vanishing probe rejected at", (d, k, i))
                    on_face = fe.nodes_on_hyperplane(fam, k, i)
                    # a dual-basis member of a face node is 1 there: both
                    # sides of the equivalence must come out False
                    if fe.face_unisolvence(fam, k, i, elem.shape(on_face[0])) is not False:
                        ctx.fail("non-vanishing probe accepted at", (d, k, i))
                    # one for an off-face node vanishes at every face node,
                    # hence on the whole hyperplane: both sides True
                    off = next(a for a in elem.node_index if a not in set(on_face))
                    if fe.face_unisolvence(fam, k, i, elem.shape(off)) is not True:
                        ctx.fail("off-face dual member rejected at", (d, k, i))
                    if fe.face_unisolvence(fam, k, i, Polynomial.zero(d)) is not True:
                        ctx.fail("zero polynomial rejected at", (d, k, i))


@_check("1629", "element construction on independent families")
def _element_construction(ctx):
    for d in ctx.dims():
        for k in ctx.degrees(0, 3):
            for fam in ctx.families(d, include_reference=False)[:2]:
                ctx.cases += 1
                elem = fe.build_element(fam, k)
                if len(elem.shape_functions) != mi.binomial(k + d, d):
                    ctx.fail("basis size wrong at", (d, k))
        ctx.cases += 1
        degenerate = (geo.reference_vertices(d)[0],) * (d + 1)
        try:
            fe.build_element(degenerate, 1)
            ctx.fail("degenerate family accepted at d =", d)
        except DegenerateSimplexError:
            pass


@_check("1631", "reference element nodes and dual basis")
def _reference_element(ctx):
    for d in ctx.dims():
        for k in ctx.degrees(0, 3):
            ctx.cases += 1
            elem = fe.build_element(geo.reference_vertices(d), k)
            if list(zip(elem.node_index, elem.nodes)) != fe.reference_nodes(d, k):
                ctx.fail("reference nodes differ at", (d, k))
            if _kronecker_ok(elem) is not None:
                ctx.fail("reference dual basis fails at", (d, k))


@_check("1630", "dimension-1 elements match the product-formula basis")
def _element_1d(ctx):
    for k in ctx.degrees():
        for fam in ctx.families(1):
            ctx.cases += 1
            elem = fe.build_element(fam, k)
            nodes = [pt[0] for pt in elem.nodes]
            want = [lagrange_basis_1d(nodes, i) for i in range(k + 1)]
            if list(elem.shape_functions) != want:
                ctx.fail("product basis mismatch at k =", k)


@_check("1632", "dimension-1 reference element on the unit grid")
def _reference_element_1d(ctx):
    for k in ctx.degrees():
        ctx.cases += 1
        elem = fe.build_element(geo.reference_vertices(1), k)
        nodes = [pt[0] for pt in elem.nodes]
        want = [Fraction(1, 2)] if k == 0 else [Fraction(i, k) for i in range(k + 1)]
        if nodes != want:
            ctx.fail("grid nodes wrong at k =", k)
        basis = [lagrange_basis_1d(nodes, i) for i in range(k + 1)]
        if list(elem.shape_functions) != basis:
            ctx.fail("reference basis mismatch at k =", k)


# ---------------------------------------------------------------- runner


def run_suite(
    d_max: int = 3,
    k_max: int = 4,
    samples: int = 5,
    seed: int = 0,
    only: list[str] | None = None,
) -> VerifyReport:
    """Run the catalog (optionally a subset) and assemble the report.

    Deterministic given (seed, bounds): each check draws from its own
    generator, so the same ids produce the same data regardless of which
    other checks run.
    """
    if d_max < 1 or k_max < 0 or samples < 1:
        raise ValueError("bounds must satisfy d_max >= 1, k_max >= 0, samples >= 1")
    known = {cid for cid, _, _ in _CATALOG}
    if only is not None:
        unknown = [cid for cid in only if cid not in known]
        if unknown:
            raise UnknownCheckError(f"unknown check ids: {', '.join(unknown)}")
        wanted = set(only)
    else:
        wanted = known
    results = []
    for cid, title, fn in _CATALOG:
        if cid not in wanted:
            continue
        ctx = _Sweep(d_max, k_max, samples, seed, cid)
        try:
            fn(ctx)
            counterexample = None
        except _CheckFailed as exc:
            counterexample = str(exc)
        results.append(
            CheckResult(cid, title, counterexample is None, ctx.cases, counterexample)
        )
    return VerifyReport(seed, d_max, k_max, samples, tuple(results))
