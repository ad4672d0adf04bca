"""Sparse multivariate polynomials over exact rationals.

A polynomial knows its dimension d (number of variables, >= 1) and stores a
map from exponent tuple to nonzero Fraction coefficient.  The zero polynomial
is the empty map, so structural equality is mathematical equality.  The zero
polynomial has degree -inf (``NEG_INF``), every other degree is an int.
Instances are treated as immutable.

Two constructors fill the map, and both drop zero coefficients.  The public
``Polynomial(dim, terms)`` checks every exponent (multiindex.check_index) and
every coefficient (exact.rationals: ints, Fractions and rational strings, never
floats or bools).  The private ``Polynomial._trusted`` builds the results of
the ring operations and of the derivative, embedding and split helpers of this
module: their exponents are sums, differences or extensions of exponents of
existing polynomials and their coefficients are already Fractions, so it checks
nothing.

Products and evaluation run in integers (von zur Gathen & Gerhard, *Modern
Computer Algebra*, ch. 5): each operand is brought to one common denominator,
the integer numerators are combined, and a Fraction (with its gcd) is formed
only for each output term of a product and once per evaluation.  The results
equal those of term-by-term Fraction arithmetic exactly.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from operator import add
from types import MappingProxyType

from . import multiindex as mi
from .exact import Matrix, rat_parse, rat_str, rationals

NEG_INF = float("-inf")


class Polynomial:
    __slots__ = ("dim", "_terms")

    def __init__(self, dim: int, terms=None):
        if dim < 1:
            raise ValueError("polynomial dimension must be at least 1")
        items = list((terms or {}).items())
        coeffs = rationals((c for _, c in items), "coefficients")
        clean: dict[tuple[int, ...], Fraction] = {}
        for (exp, _), c in zip(items, coeffs):
            exp = mi.check_index(exp)
            if len(exp) != dim:
                raise ValueError(f"exponent {exp!r} has dimension {len(exp)}, expected {dim}")
            if c != 0:
                clean[exp] = c
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "_terms", clean)

    @classmethod
    def _trusted(cls, dim: int, terms: dict) -> "Polynomial":
        """Wrap a result built in this module: exponents valid, coefficients Fractions.

        Only zero coefficients are dropped, so equal polynomials stay
        structurally equal; no exponent or coefficient is checked or re-wrapped.
        """
        p = object.__new__(cls)
        object.__setattr__(p, "dim", dim)
        object.__setattr__(p, "_terms", {exp: c for exp, c in terms.items() if c})
        return p

    def __setattr__(self, *_):
        raise AttributeError("Polynomial is immutable")

    @property
    def terms(self):
        """Read-only view of the exponent -> coefficient map."""
        return MappingProxyType(self._terms)

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, dim: int) -> "Polynomial":
        return cls(dim, {})

    @classmethod
    def constant(cls, dim: int, value) -> "Polynomial":
        return cls(dim, {(0,) * dim: value})

    @classmethod
    def variable(cls, dim: int, i: int) -> "Polynomial":
        """The coordinate function x_i (i is 1-based)."""
        if not (1 <= i <= dim):
            raise ValueError(f"variable index must lie in [1..{dim}]")
        exp = tuple(1 if j == i - 1 else 0 for j in range(dim))
        return cls(dim, {exp: 1})

    @classmethod
    def monomial(cls, alpha, coeff=1) -> "Polynomial":
        alpha = mi.check_index(alpha)
        return cls(len(alpha), {alpha: coeff})

    # -- basic queries ------------------------------------------------

    def is_zero(self) -> bool:
        return not self._terms

    def degree(self):
        """Max total degree of the stored terms; NEG_INF for the zero polynomial."""
        if not self._terms:
            return NEG_INF
        return max(sum(exp) for exp in self._terms)

    def coefficient(self, alpha) -> Fraction:
        alpha = mi.check_index(alpha)
        if len(alpha) != self.dim:
            raise ValueError("exponent dimension does not match")
        return self._terms.get(alpha, Fraction(0))

    def sorted_terms(self, order: str = mi.DEFAULT_ORDER):
        """Terms as (exponent, coefficient) pairs, exponents increasing."""
        key = mi.sort_key(order)
        return [(exp, self._terms[exp]) for exp in sorted(self._terms, key=key)]

    def __call__(self, point) -> Fraction:
        return self.eval(point)

    def eval(self, point) -> Fraction:
        """Exact value, as a Fraction, at a point of ints, Fractions or rational strings.

        Floats and bools raise ValueError.  The coordinates are written as
        integers X_i over one common denominator D, the coefficients as
        integers n_e over their lcm L.  With m the degree, the value is
        sum_e n_e X^e D^(m - |e|) / (L D^m): the sum runs in integers over
        tables of the powers of each X_i and of D up to m, and only the
        quotient is a Fraction.
        """
        pt = rationals(point, "evaluation points")
        if len(pt) != self.dim:
            raise ValueError("point dimension does not match")
        if not self._terms:
            return Fraction(0)
        terms, coeff_den = _integer_terms(self._terms)
        degrees = [sum(exp) for exp, _ in terms]
        m = max(degrees)
        den = lcm(*[x.denominator for x in pt])
        powers = []
        for x in pt:
            row = [1]
            num = x.numerator * (den // x.denominator)
            for _ in range(m):
                row.append(row[-1] * num)
            powers.append(row)
        den_powers = [1]
        for _ in range(m):
            den_powers.append(den_powers[-1] * den)
        total = 0
        for (exp, n), deg in zip(terms, degrees):
            value = n * den_powers[m - deg]
            for row, e in zip(powers, exp):
                if e:
                    value *= row[e]
            total += value
        return Fraction(total, coeff_den * den_powers[m])

    # -- ring operations ----------------------------------------------

    def _check_same_dim(self, other: "Polynomial") -> None:
        if self.dim != other.dim:
            raise ValueError("polynomial dimensions do not match")

    def __add__(self, other):
        if not isinstance(other, Polynomial):
            other = Polynomial.constant(self.dim, other)
        self._check_same_dim(other)
        out = dict(self._terms)
        for exp, coeff in other._terms.items():
            old = out.get(exp)
            out[exp] = coeff if old is None else old + coeff
        return Polynomial._trusted(self.dim, out)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial._trusted(self.dim, {exp: -c for exp, c in self._terms.items()})

    def __sub__(self, other):
        if not isinstance(other, Polynomial):
            other = Polynomial.constant(self.dim, other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def scale(self, c) -> "Polynomial":
        """The product with an exact scalar (no float or bool)."""
        (c,) = rationals((c,), "scalars")
        return Polynomial._trusted(self.dim, {exp: c * v for exp, v in self._terms.items()})

    def __mul__(self, other):
        """Product with a polynomial of the same dimension, or with a scalar.

        Each operand's coefficients become integer numerators over their lcm
        (da and db); the numerators are convolved in integers, and each output
        term is the one Fraction n / (da * db).  Terms that cancel to 0 are dropped.
        """
        if not isinstance(other, Polynomial):
            return self.scale(other)
        self._check_same_dim(other)
        a, da = _integer_terms(self._terms)
        b, db = _integer_terms(other._terms)
        out: dict[tuple[int, ...], int] = {}
        for ea, na in a:
            for eb, nb in b:
                exp = tuple(map(add, ea, eb))
                out[exp] = out.get(exp, 0) + na * nb
        den = da * db
        return Polynomial._trusted(self.dim, {exp: Fraction(n, den) for exp, n in out.items()})

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponent must be a natural")
        result = Polynomial.constant(self.dim, 1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.dim == other.dim and self._terms == other._terms

    def __hash__(self):
        return hash((self.dim, frozenset(self._terms.items())))

    def __repr__(self):
        if not self._terms:
            return f"Polynomial({self.dim}, 0)"
        bits = []
        for exp, coeff in self.sorted_terms():
            mono = monomial_str(exp)
            bits.append(f"{rat_str(coeff)}" + (f"*{mono}" if mono else ""))
        return f"Polynomial({self.dim}, {' + '.join(bits)})"


def _integer_terms(terms) -> tuple[list[tuple[tuple[int, ...], int]], int]:
    """(exponent, integer numerator) pairs over the lcm of the coefficient denominators."""
    den = lcm(*[c.denominator for c in terms.values()])
    return [(exp, c.numerator * (den // c.denominator)) for exp, c in terms.items()], den


def monomial_str(exp) -> str:
    """Render an exponent tuple as "X1^2*X3"; the constant monomial is ""."""
    return "*".join(f"X{i + 1}" + (f"^{e}" if e > 1 else "") for i, e in enumerate(exp) if e)


def partial_derivative(p: Polynomial, beta) -> Polynomial:
    """Iterated partial derivative with multiplicities given by beta.

    Each term picks up the falling-factorial factor
    prod_i alpha_i (alpha_i - 1) ... (alpha_i - beta_i + 1) and drops to
    exponent alpha - beta; terms with any beta_i > alpha_i vanish.
    """
    beta = mi.check_index(beta)
    if len(beta) != p.dim:
        raise ValueError("derivative order dimension does not match")
    out: dict[tuple[int, ...], Fraction] = {}
    for alpha, coeff in p.terms.items():
        if any(b > a for a, b in zip(alpha, beta)):
            continue
        factor = 1
        for a, b in zip(alpha, beta):
            for j in range(b):
                factor *= a - j
        exp = tuple(a - b for a, b in zip(alpha, beta))
        out[exp] = out.get(exp, Fraction(0)) + coeff * factor
    return Polynomial._trusted(p.dim, out)


def embed_last(p: Polynomial) -> Polynomial:
    """View a d-variable polynomial in d+1 variables (last exponent 0)."""
    return Polynomial._trusted(p.dim + 1, {exp + (0,): c for exp, c in p.terms.items()})


def divide_by_last_variable(p: Polynomial) -> tuple[Polynomial, Polynomial]:
    """Unique split p = embed_last(p0) + X_d * p1.

    p0 collects the terms free of the last variable (one dimension lower);
    p1 is the exact quotient of the rest by X_d (same dimension as p).
    """
    if p.dim < 2:
        raise ValueError("splitting off the last variable needs dimension >= 2")
    head: dict[tuple[int, ...], Fraction] = {}
    quot: dict[tuple[int, ...], Fraction] = {}
    for exp, coeff in p.terms.items():
        if exp[-1] == 0:
            head[exp[:-1]] = coeff
        else:
            quot[exp[:-1] + (exp[-1] - 1,)] = coeff
    return Polynomial._trusted(p.dim - 1, head), Polynomial._trusted(p.dim, quot)


def recombine_last_variable(p0: Polynomial, p1: Polynomial) -> Polynomial:
    """Inverse of divide_by_last_variable: embed_last(p0) + X_d * p1."""
    if p1.dim != p0.dim + 1:
        raise ValueError("quotient must have one more variable than the head")
    xd = Polynomial.variable(p1.dim, p1.dim)
    return embed_last(p0) + xd * p1


def horner_coefficients(p: Polynomial) -> list[Polynomial]:
    """Coefficients r_0..r_k (in d-1 variables) with p = sum r_i * X_d^i.

    Computed by repeated division by the last variable (Horner form); the
    list always has max(degree(p), 0) + 1 entries, zero-padded.
    """
    if p.dim < 2:
        raise ValueError("needs dimension >= 2")
    k = p.degree()
    k = 0 if k == NEG_INF else int(k)
    out: list[Polynomial] = []
    rest = p
    for _ in range(k + 1):
        head, rest = divide_by_last_variable(rest)
        out.append(head)
    if not rest.is_zero():
        raise AssertionError("division left a remainder beyond the degree bound")
    return out


def compose_affine(p: Polynomial, affine) -> Polynomial:
    """Exact composition p(f(y)) for an affine map f from R^l to R^(dim p).

    Each coordinate image c_i + sum_j A[i][j] y_j is an affine polynomial in
    l variables; its powers are cached per coordinate so every term of p is
    a product of precomputed factors.
    """
    matrix: Matrix = affine.matrix
    translation = affine.translation
    d = len(matrix)
    if d != p.dim:
        raise ValueError("affine map codomain does not match polynomial dimension")
    l = len(matrix[0]) if matrix else 0
    if l < 1:
        raise ValueError("affine map domain must have dimension >= 1")
    coords = []
    for i in range(d):
        q = Polynomial.constant(l, translation[i])
        for j in range(l):
            if matrix[i][j] != 0:
                q = q + Polynomial.variable(l, j + 1).scale(matrix[i][j])
        coords.append(q)
    max_exp = [0] * d
    for exp in p.terms:
        for i, e in enumerate(exp):
            max_exp[i] = max(max_exp[i], e)
    powers: list[list[Polynomial]] = []
    for i in range(d):
        cache = [Polynomial.constant(l, 1)]
        for _ in range(max_exp[i]):
            cache.append(cache[-1] * coords[i])
        powers.append(cache)
    out = Polynomial.zero(l)
    for exp, coeff in p.terms.items():
        term = Polynomial.constant(l, coeff)
        for i, e in enumerate(exp):
            if e:
                term = term * powers[i][e]
        out = out + term
    return out


def lagrange_basis_1d(nodes, i: int) -> Polynomial:
    """The i-th one-variable Lagrange basis polynomial for the given nodes.

    prod over j != i of (X - a_j)/(a_i - a_j), expanded; equals the constant
    1 when there is a single node.  Nodes must be pairwise distinct.
    """
    pts = rationals(nodes, "nodes")
    if len(set(pts)) != len(pts):
        raise ValueError("nodes must be pairwise distinct")
    if not (0 <= i < len(pts)):
        raise ValueError("basis index out of range")
    x = Polynomial.variable(1, 1)
    out = Polynomial.constant(1, 1)
    for j, a in enumerate(pts):
        if j == i:
            continue
        out = out * (x - Polynomial.constant(1, a)).scale(1 / (pts[i] - a))
    return out


def polynomial_to_json_dict(p: Polynomial) -> dict:
    """JSON form: {"dim": d, "terms": [{"exp": [...], "coeff": "n/d"}, ...]}."""
    return {
        "dim": p.dim,
        "terms": [
            {"exp": list(exp), "coeff": rat_str(coeff)}
            for exp, coeff in p.sorted_terms()
        ],
    }


def polynomial_from_json_dict(data: dict) -> Polynomial:
    return Polynomial(
        int(data["dim"]),
        {tuple(t["exp"]): rat_parse(t["coeff"]) for t in data["terms"]},
    )
