"""Multi-indices, their sets, and the eight monomial orders.

A multi-index is a plain tuple of naturals of dimension d >= 1.  Three index
sets are supported, named by one-letter kinds:

* ``"A"`` -- indices of length (component sum) at most k,
* ``"C"`` -- indices of length exactly k,
* ``"Azero"`` -- indices of length at most k whose i-th component is zero
  (i is 1-based and needed only for this kind).

Orders
------

Four base orders compare equal-dimension tuples position by position:

* ``lex``    -- first differing position, smaller component first;
* ``colex``  -- last differing position, smaller component first;
* ``symlex`` -- mirror of lex:   a < b  iff  b <lex a;
* ``revlex`` -- mirror of colex: a < b  iff  b <colex a.

Each has a graded variant (``grlex``, ``grcolex``, ``grsymlex``,
``grevlex``) that compares lengths first and falls back to the base order on
ties.  ``grsymlex`` is the canonical order here: every enumeration, node
table and matrix in this package is flattened with it unless another order is
requested explicitly.
"""

from __future__ import annotations

from typing import Iterable, Iterator

MultiIndex = tuple[int, ...]

ORDERS = ("lex", "colex", "symlex", "revlex", "grlex", "grcolex", "grsymlex", "grevlex")
GRADED_ORDERS = ("grlex", "grcolex", "grsymlex", "grevlex")
_BASE_OF_GRADED = {
    "grlex": "lex",
    "grcolex": "colex",
    "grsymlex": "symlex",
    "grevlex": "revlex",
}
DEFAULT_ORDER = "grsymlex"

KINDS = ("A", "C", "Azero")


def binomial(n: int, p: int) -> int:
    """Binomial coefficient, 0 when p > n, computed by the Pascal recurrence.

    Stays in integers throughout; no factorial division.
    """
    if n < 0 or p < 0:
        raise ValueError("binomial arguments must be naturals")
    if p > n:
        return 0
    p = min(p, n - p)
    # One row of the Pascal triangle, built in place.
    row = [1] * (p + 1)
    for i in range(1, n - p + 1):
        for j in range(1, p + 1):
            row[j] += row[j - 1]
    return row[p]


def check_index(alpha: Iterable[int]) -> MultiIndex:
    """Validate and normalize a multi-index to a tuple of naturals, d >= 1."""
    t = tuple(alpha)
    if len(t) == 0:
        raise ValueError("multi-index dimension must be at least 1")
    if any((not isinstance(c, int)) or c < 0 for c in t):
        raise ValueError(f"multi-index components must be naturals, got {t!r}")
    return t


def length(alpha: MultiIndex) -> int:
    """Component sum of the multi-index."""
    return sum(alpha)


def factorial(alpha: MultiIndex) -> int:
    """Product of the componentwise factorials; always >= 1."""
    out = 1
    for c in alpha:
        for j in range(2, c + 1):
            out *= j
    return out


def kronecker(alpha: MultiIndex, beta: MultiIndex) -> int:
    """1 when the two indices agree componentwise, else 0."""
    _same_dim(alpha, beta)
    return 1 if alpha == beta else 0


def _same_dim(alpha: MultiIndex, beta: MultiIndex) -> None:
    if len(alpha) != len(beta):
        raise ValueError(
            f"dimension mismatch: {len(alpha)} vs {len(beta)}"
        )


def _base_compare(order: str, alpha: MultiIndex, beta: MultiIndex) -> int:
    if order == "lex":
        return (alpha > beta) - (alpha < beta)
    if order == "colex":
        ra, rb = alpha[::-1], beta[::-1]
        return (ra > rb) - (ra < rb)
    if order == "symlex":
        return _base_compare("lex", beta, alpha)
    if order == "revlex":
        return _base_compare("colex", beta, alpha)
    raise ValueError(f"unknown order {order!r}")


def compare(order: str, alpha: MultiIndex, beta: MultiIndex) -> int:
    """Three-way comparison under the named order: -1, 0 or +1.

    Graded orders compare lengths first and break ties with their base
    order.  Equality holds exactly when the tuples are equal.
    """
    if order not in ORDERS:
        raise ValueError(f"unknown order {order!r}")
    alpha = check_index(alpha)
    beta = check_index(beta)
    _same_dim(alpha, beta)
    if order in GRADED_ORDERS:
        la, lb = length(alpha), length(beta)
        if la != lb:
            return -1 if la < lb else 1
        return _base_compare(_BASE_OF_GRADED[order], alpha, beta)
    return _base_compare(order, alpha, beta)


def sort_key(order: str):
    """A sort key realizing the order (tuples are mapped to comparable keys)."""
    if order not in ORDERS:
        raise ValueError(f"unknown order {order!r}")
    graded = order in GRADED_ORDERS
    base = _BASE_OF_GRADED[order] if graded else order

    def invert(t: MultiIndex) -> tuple[int, ...]:
        return tuple(-c for c in t)

    def key(alpha: MultiIndex):
        if base == "lex":
            body = alpha
        elif base == "colex":
            body = alpha[::-1]
        elif base == "symlex":
            body = invert(alpha)
        else:  # revlex
            body = invert(alpha[::-1])
        return (length(alpha), body) if graded else body

    return key


def _exact_layer(d: int, k: int) -> Iterator[MultiIndex]:
    """All d-tuples of naturals with component sum exactly k (unordered)."""
    if d == 1:
        yield (k,)
        return
    for first in range(k + 1):
        for rest in _exact_layer(d - 1, k - first):
            yield (first,) + rest


def enumerate_indices(
    d: int,
    k: int,
    kind: str = "A",
    zero_index: int | None = None,
    order: str = DEFAULT_ORDER,
) -> list[MultiIndex]:
    """The index set, strictly increasing under the requested order.

    The members are gathered layer by layer (length 0, 1, ..., k) and sorted
    once; a graded order's key compares lengths first.
    """
    if order not in ORDERS:
        raise ValueError(f"unknown order {order!r}")
    if d < 1:
        raise ValueError("dimension must be at least 1")
    if k < 0:
        raise ValueError("degree must be a natural")
    if kind not in KINDS:
        raise ValueError(f"unknown index-set kind {kind!r}")
    if kind == "Azero" and (zero_index is None or not (1 <= zero_index <= d)):
        raise ValueError("Azero requires a zero_index in [1..d]")
    layers = (k,) if kind == "C" else range(k + 1)
    found = [
        a
        for l in layers
        for a in _exact_layer(d, l)
        if kind != "Azero" or a[zero_index - 1] == 0
    ]
    return sorted(found, key=sort_key(order))


def cardinal(d: int, k: int, kind: str = "A", zero_index: int | None = None) -> int:
    """Closed-form cardinal of the index set.

    ``A``:     binomial(k+d, d)       (extended to 1 for d = 0);
    ``C``:     binomial(k+d-1, d-1);
    ``Azero``: binomial(k+d-1, d-1)   (same count as dimension d-1, kind A).
    """
    if k < 0:
        raise ValueError("degree must be a natural")
    if kind == "A":
        if d < 0:
            raise ValueError("dimension must be a natural")
        return binomial(k + d, d)
    if d < 1:
        raise ValueError("dimension must be at least 1")
    if kind == "C":
        return binomial(k + d - 1, d - 1)
    if kind == "Azero":
        if zero_index is None or not (1 <= zero_index <= d):
            raise ValueError("Azero requires a zero_index in [1..d]")
        return binomial(k + d - 1, d - 1)
    raise ValueError(f"unknown index-set kind {kind!r}")


def slice_vertical(d: int, k: int, i: int) -> list[MultiIndex]:
    """Indices of sum k whose first component equals i, grsymlex order."""
    if d < 2:
        raise ValueError("slices need dimension at least 2")
    if not (0 <= i <= k):
        raise ValueError("slice position must lie in [0..k]")
    return [(i,) + rest for rest in enumerate_indices(d - 1, k - i, "C")]


def slice_horizontal(d: int, k: int, i: int) -> list[MultiIndex]:
    """Indices of sum k whose last component equals i, grsymlex order."""
    if d < 2:
        raise ValueError("slices need dimension at least 2")
    if not (0 <= i <= k):
        raise ValueError("slice position must lie in [0..k]")
    return [rest + (i,) for rest in enumerate_indices(d - 1, k - i, "C")]


def extend_front(k: int, alpha: MultiIndex) -> MultiIndex:
    """Prepend k - |alpha| so the result has dimension d+1 and sum exactly k."""
    alpha = check_index(alpha)
    deficit = k - length(alpha)
    if deficit < 0:
        raise ValueError("index length exceeds the target sum k")
    return (deficit,) + alpha


def extend_back(k: int, alpha: MultiIndex) -> MultiIndex:
    """Append k - |alpha| so the result has dimension d+1 and sum exactly k."""
    alpha = check_index(alpha)
    deficit = k - length(alpha)
    if deficit < 0:
        raise ValueError("index length exceeds the target sum k")
    return alpha + (deficit,)


def insert_zero(i: int, alpha: MultiIndex) -> MultiIndex:
    """Insert a zero component at 1-based position i; the sum is unchanged."""
    alpha = check_index(alpha)
    d = len(alpha) + 1
    if not (1 <= i <= d):
        raise ValueError(f"insert position must lie in [1..{d}]")
    return alpha[: i - 1] + (0,) + alpha[i - 1 :]


def jump_index(d: int, i: int, j: int) -> int:
    """Enumerate [0..d] into [0..d+1] skipping the value i.

    Returns j when j < i, else j + 1; injective with image [0..d+1] minus i.
    """
    if not (0 <= i <= d + 1):
        raise ValueError("skip value out of range")
    if not (0 <= j <= d):
        raise ValueError("argument out of range")
    return j if j < i else j + 1


def cyclic_index(d: int, i: int, j: int) -> int:
    """Circular shift of [0..d] sending d to i: j+i+1 when j < d-i, else j-(d-i)."""
    if not (0 <= i <= d):
        raise ValueError("shift target out of range")
    if not (0 <= j <= d):
        raise ValueError("argument out of range")
    return j + i + 1 if j < d - i else j - (d - i)


def swap_index(d: int, i: int, j: int) -> int:
    """Transposition of [0..d] exchanging i and d, fixing the rest."""
    if not (0 <= i <= d):
        raise ValueError("swap target out of range")
    if not (0 <= j <= d):
        raise ValueError("argument out of range")
    if j == i:
        return d
    if j == d:
        return i
    return j


def jump_tuple(d: int, i: int) -> MultiIndex:
    """(jump_index(d, i, j)) for j in [0..d], as a tuple."""
    return tuple(jump_index(d, i, j) for j in range(d + 1))


def cyclic_tuple(d: int, i: int) -> MultiIndex:
    """(cyclic_index(d, i, j)) for j in [0..d], as a tuple."""
    return tuple(cyclic_index(d, i, j) for j in range(d + 1))


def swap_tuple(d: int, i: int) -> MultiIndex:
    """(swap_index(d, i, j)) for j in [0..d], as a tuple."""
    return tuple(swap_index(d, i, j) for j in range(d + 1))


def condition_degree_monotone(order: str, d: int, k: int):
    """Whether indices of smaller length always come first under the order.

    Checks adjacent length layers exhaustively up to sum k; returns None when
    satisfied, else a witness pair (alpha, beta) with |beta| = |alpha| + 1
    but beta ordered before alpha.
    """
    for l in range(k):
        lower = enumerate_indices(d, l, "C", order=order)
        upper = enumerate_indices(d, l + 1, "C", order=order)
        for a in lower:
            for b in upper:
                if compare(order, a, b) >= 0:
                    return (a, b)
    return None


def condition_dimension_embedding(order: str, d: int, k: int):
    """Whether the maps into one more dimension preserve the order.

    The candidates are extend_front / extend_back (either may work) together
    with insert_zero at every position, all from the indices of dimension
    d-1 and sum at most k.  Returns a dict with fields:

    * ``satisfied``: bool;
    * ``route``: "front", "back" or None;
    * ``front_witness`` / ``back_witness`` / ``insert_witness``: a violating
      (a, b, image_a, image_b) tuple (insert also records the position), or
      None where that family of maps is monotone.
    """
    if d < 2:
        raise ValueError("the embedding condition needs dimension >= 2")
    source = enumerate_indices(d - 1, k, "A", order=order)
    pairs = [(a, b) for a in source for b in source if compare(order, a, b) < 0]

    def first_violation(f):
        for a, b in pairs:
            fa, fb = f(a), f(b)
            if compare(order, fa, fb) >= 0:
                return (a, b, fa, fb)
        return None

    front = first_violation(lambda t: extend_front(k, t))
    back = first_violation(lambda t: extend_back(k, t))
    insert = None
    for i in range(1, d + 1):
        w = first_violation(lambda t, i=i: insert_zero(i, t))
        if w is not None:
            insert = (i,) + w
            break
    satisfied = insert is None and (front is None or back is None)
    route = "front" if front is None else ("back" if back is None else None)
    if insert is not None:
        route = None
        satisfied = False
    return {
        "satisfied": satisfied,
        "route": route,
        "front_witness": front,
        "back_witness": back,
        "insert_witness": insert,
    }


def condition_vertex_numbering(order: str, d: int, k: int):
    """Whether 0 < k e_1 < k e_2 < ... < k e_d under the order.

    Returns None when satisfied, else the first out-of-order adjacent pair.
    """
    if k < 1:
        raise ValueError("needs degree k >= 1")
    seq = [(0,) * d] + [
        tuple(k if j == i else 0 for j in range(d)) for i in range(d)
    ]
    for a, b in zip(seq, seq[1:]):
        if compare(order, a, b) >= 0:
            return (a, b)
    return None


def enumeration_json(
    d: int,
    k: int,
    kind: str = "A",
    zero_index: int | None = None,
    order: str = DEFAULT_ORDER,
) -> dict:
    """JSON-ready header + enumeration for the CLI and file interfaces."""
    indices = enumerate_indices(d, k, kind, zero_index, order)
    out = {"d": d, "k": k, "kind": kind, "order": order}
    if kind == "Azero":
        out["zero_index"] = zero_index
    out["cardinal"] = cardinal(d, k, kind, zero_index)
    out["indices"] = [list(a) for a in indices]
    return out
