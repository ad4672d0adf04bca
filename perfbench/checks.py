"""Exact output checks, written without any exactfem code.

Each check returns True when the output is exactly right.  They run outside
the timed region; a False (or an exception) counts the op as failed.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from math import lcm
from operator import mul
from pathlib import Path

DIGESTS = {
    int(seed): digest
    for seed, digest in json.loads(
        (Path(__file__).resolve().parent / "digests.json").read_text()
    )["verify_json_sha256"].items()
}


def labels(d: int, k: int) -> list[tuple[int, ...]]:
    """Every d-tuple of naturals with sum at most k (any fixed order)."""
    if d == 1:
        return [(a,) for a in range(k + 1)]
    return [(a,) + rest for a in range(k + 1) for rest in labels(d - 1, k - a)]


def node_point(vertices, k: int, alpha) -> tuple[Fraction, ...]:
    """v_0 + sum_i (alpha_i / k)(v_i - v_0); the isobarycenter when k = 0."""
    d = len(vertices) - 1
    if k == 0:
        return tuple(sum(v[r] for v in vertices) / (d + 1) for r in range(d))
    v0 = vertices[0]
    return tuple(
        v0[r] + sum(Fraction(alpha[i], k) * (vertices[i + 1][r] - v0[r]) for i in range(d))
        for r in range(d)
    )


def _int_power_row(point, k: int, monomials) -> tuple[list[int], int]:
    """Row of x^beta over the monomials, scaled by D^k to integers.

    D is the common denominator of the point, so x^beta = X^beta / D^|beta|
    with X = D x integral, and D^k x^beta = X^beta D^(k - |beta|).
    """
    den = lcm(*(x.denominator for x in point))
    ints = [int(x * den) for x in point]
    powers = [[1] * (k + 1) for _ in ints]
    for i, xi in enumerate(ints):
        for e in range(1, k + 1):
            powers[i][e] = powers[i][e - 1] * xi
    den_powers = [1] * (k + 1)
    for e in range(1, k + 1):
        den_powers[e] = den_powers[e - 1] * den
    row = []
    for beta in monomials:
        value = den_powers[k - sum(beta)]
        for i, e in enumerate(beta):
            if e:
                value *= powers[i][e]
        row.append(value)
    return row, den_powers[k]


def element_is_dual(elem, vertices, k: int) -> bool:
    """Exact proof that theta_b(node_a) = delta_ab for the built element.

    Nodes are recomputed from the vertices, and every product
    sum_beta c_beta node_a^beta is formed over the integers after clearing
    denominators, so the check is a complete exact proof of duality.
    """
    d = len(vertices) - 1
    monomials = labels(d, k)
    position = {beta: j for j, beta in enumerate(monomials)}
    index = list(elem.node_index)
    if len(index) != len(monomials) or set(index) != set(monomials):
        return False
    nodes = [node_point(vertices, k, alpha) for alpha in index]
    if list(elem.nodes) != nodes or len(elem.shape_functions) != len(index):
        return False
    rows = [_int_power_row(pt, k, monomials) for pt in nodes]
    for b, theta in enumerate(elem.shape_functions):
        terms = dict(theta.terms)
        if any(exp not in position for exp in terms):
            return False
        scale = lcm(1, *(c.denominator for c in terms.values()))
        column = [0] * len(monomials)
        for exp, c in terms.items():
            column[position[exp]] = int(c * scale)
        for a, (row, row_scale) in enumerate(rows):
            total = sum(map(mul, row, column))
            if total != (row_scale * scale if a == b else 0):
                return False
    return True


def is_kronecker_row(row, a: int) -> bool:
    return len(row) > a and all(v == (1 if j == a else 0) for j, v in enumerate(row))


def verify_output_ok(seed: int, code: int, text: str) -> bool:
    """The sweep passed; where a digest is recorded, the bytes are identical."""
    if code != 0 or json.loads(text)["totals"]["failed"] != 0:
        return False
    digest = DIGESTS.get(seed)
    return digest is None or hashlib.sha256(text.encode()).hexdigest() == digest
