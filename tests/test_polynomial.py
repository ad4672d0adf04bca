import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exactfem.geometry import AffineMap, affine_apply, affine_compose, identity_map
from exactfem.multiindex import enumerate_indices
from exactfem.polynomial import (
    NEG_INF,
    Polynomial,
    compose_affine,
    divide_by_last_variable,
    embed_last,
    horner_coefficients,
    lagrange_basis_1d,
    partial_derivative,
    polynomial_from_json_dict,
    polynomial_to_json_dict,
    recombine_last_variable,
)


def rnd_rat(rng):
    return Fraction(rng.randint(-6, 6), rng.randint(1, 3))


def rnd_poly(d, k, rng):
    from exactfem.multiindex import enumerate_indices

    return Polynomial(
        d,
        {a: rnd_rat(rng) for a in enumerate_indices(d, k, "A") if rng.random() < 0.7},
    )


def diff_oracle(p, beta):
    """One variable at a time, one derivative at a time."""

    def diff_once(q, var):
        terms = {}
        for exp, c in q.terms.items():
            e = exp[var - 1]
            if e:
                ne = exp[: var - 1] + (e - 1,) + exp[var:]
                terms[ne] = terms.get(ne, Fraction(0)) + c * e
        return Polynomial(q.dim, terms)

    for var, times in enumerate(beta, start=1):
        for _ in range(times):
            p = diff_once(p, var)
    return p


def test_monomial_basics():
    one = Polynomial.monomial((0, 0, 0))
    assert one == Polynomial.constant(3, 1)
    x2 = Polynomial.monomial((0, 1, 0))
    assert x2 == Polynomial.variable(3, 2)
    assert Polynomial.monomial((2, 0, 1)).degree() == 3


def test_eval():
    c = Polynomial.constant(2, Fraction(7, 3))
    assert c.eval((Fraction(5), Fraction(-1))) == Fraction(7, 3)
    assert Polynomial.monomial((2, 1)).eval((2, 3)) == 12
    rng = random.Random(11)
    for _ in range(20):
        p, q = rnd_poly(2, 3, rng), rnd_poly(2, 3, rng)
        x = (rnd_rat(rng), rnd_rat(rng))
        assert (p + q).eval(x) == p.eval(x) + q.eval(x)
    with pytest.raises(ValueError):
        c.eval((1,))


def test_ring_operations():
    x1, x2 = Polynomial.variable(2, 1), Polynomial.variable(2, 2)
    assert x1 * x2 == Polynomial.monomial((1, 1))
    rng = random.Random(5)
    p = rnd_poly(2, 3, rng)
    assert p * Polynomial.constant(2, 1) == p
    assert p - p == Polynomial.zero(2)
    for _ in range(20):
        q = rnd_poly(3, 3, rng)
        r = rnd_poly(3, 3, rng)
        x = tuple(rnd_rat(rng) for _ in range(3))
        assert (q * r).eval(x) == q.eval(x) * r.eval(x)
    with pytest.raises(ValueError):
        x1 * Polynomial.variable(3, 1)


def test_degree():
    assert Polynomial.zero(2).degree() == NEG_INF
    assert Polynomial.monomial((1, 0, 2)).degree() == 3
    p = Polynomial(2, {(0, 0): 1, (2, 0): 1})
    assert p.degree() == 2
    # cancellation prunes to true degree
    q = Polynomial(2, {(2, 0): 1}) - Polynomial(2, {(2, 0): 1})
    assert q.degree() == NEG_INF


def test_degree_of_products():
    rng = random.Random(23)
    for _ in range(30):
        p, q = rnd_poly(2, 3, rng), rnd_poly(2, 2, rng)
        if not p.is_zero() and not q.is_zero():
            assert (p * q).degree() <= p.degree() + q.degree()
    for _ in range(30):
        p, q = rnd_poly(1, 4, rng), rnd_poly(1, 3, rng)
        if not p.is_zero() and not q.is_zero():
            assert (p * q).degree() == p.degree() + q.degree()


def test_partial_derivative():
    # any excess order kills the term
    assert partial_derivative(Polynomial.monomial((1, 2)), (2, 0)).is_zero()
    # full-order derivative at the origin gives the factorial
    from exactfem.multiindex import enumerate_indices, factorial

    origin = (Fraction(0),) * 2
    for alpha in enumerate_indices(2, 3, "A"):
        p = partial_derivative(Polynomial.monomial(alpha), alpha)
        assert p.eval(origin) == factorial(alpha)
    assert partial_derivative(Polynomial.monomial((2, 1)), (1, 0)) == Polynomial(
        2, {(1, 1): 2}
    )


def test_partial_derivative_against_oracle():
    rng = random.Random(31)
    from exactfem.multiindex import enumerate_indices

    for _ in range(10):
        p = rnd_poly(3, 3, rng)
        for beta in enumerate_indices(3, 2, "A"):
            assert partial_derivative(p, beta) == diff_oracle(p, beta)


def test_coefficient_recovery_through_derivatives():
    rng = random.Random(47)
    from exactfem.multiindex import enumerate_indices, factorial

    origin = (Fraction(0),) * 3
    for _ in range(5):
        p = rnd_poly(3, 3, rng)
        for beta in enumerate_indices(3, 3, "A"):
            got = partial_derivative(p, beta).eval(origin)
            assert got == factorial(beta) * p.coefficient(beta)


def test_divide_by_last_variable_examples():
    c = Polynomial.constant(2, Fraction(9, 4))
    head, quot = divide_by_last_variable(c)
    assert head == Polynomial.constant(1, Fraction(9, 4)) and quot.is_zero()

    xd = Polynomial.variable(2, 2)
    head, quot = divide_by_last_variable(xd)
    assert head.is_zero() and quot == Polynomial.constant(2, 1)

    # X1 X2 + X2^2 + 1 splits into head 1 and quotient X1 + X2
    p = Polynomial(2, {(1, 1): 1, (0, 2): 1, (0, 0): 1})
    head, quot = divide_by_last_variable(p)
    assert head == Polynomial.constant(1, 1)
    assert quot == Polynomial(2, {(1, 0): 1, (0, 1): 1})
    with pytest.raises(ValueError):
        divide_by_last_variable(Polynomial.variable(1, 1))


def test_divide_round_trip_and_uniqueness():
    rng = random.Random(3)
    for _ in range(25):
        p = rnd_poly(3, 3, rng)
        head, quot = divide_by_last_variable(p)
        assert recombine_last_variable(head, quot) == p
        # any pair comes back unchanged, which is the uniqueness statement
        h2, q2 = rnd_poly(2, 3, rng), rnd_poly(3, 2, rng)
        assert divide_by_last_variable(recombine_last_variable(h2, q2)) == (h2, q2)


def test_divide_is_additive():
    rng = random.Random(13)
    for _ in range(15):
        p, q = rnd_poly(3, 3, rng), rnd_poly(3, 3, rng)
        hp, qp = divide_by_last_variable(p)
        hq, qq = divide_by_last_variable(q)
        hs, qs = divide_by_last_variable(p + q)
        assert hs == hp + hq and qs == qp + qq
    assert divide_by_last_variable(Polynomial.zero(2)) == (
        Polynomial.zero(1),
        Polynomial.zero(2),
    )


def test_horner_coefficients():
    c = Polynomial.constant(2, Fraction(5))
    assert horner_coefficients(c) == [Polynomial.constant(1, 5)]
    p = Polynomial(2, {(0, 2): 1})
    assert horner_coefficients(p) == [
        Polynomial.zero(1),
        Polynomial.zero(1),
        Polynomial.constant(1, 1),
    ]
    rng = random.Random(7)
    for _ in range(15):
        q = rnd_poly(3, 4, rng)
        coeffs = horner_coefficients(q)
        xd = Polynomial.variable(3, 3)
        rebuilt = Polynomial.zero(3)
        power = Polynomial.constant(3, 1)
        for r in coeffs:
            rebuilt = rebuilt + embed_last(r) * power
            power = power * xd
        assert rebuilt == q
        kk = max(q.degree(), 0)
        for i, r in enumerate(coeffs):
            assert r.is_zero() or r.degree() <= kk - i


def test_compose_affine():
    rng = random.Random(17)
    p = rnd_poly(2, 3, rng)
    assert compose_affine(p, identity_map(2)) == p
    c = Polynomial.constant(2, Fraction(3, 7))
    f = AffineMap([[1, 2], [0, 1]], (Fraction(1), Fraction(2)))
    assert compose_affine(c, f) == c

    # one variable: substituting 2y + 1 into X gives 2X + 1
    q = compose_affine(Polynomial.variable(1, 1), AffineMap([[2]], (1,)))
    assert q == Polynomial(1, {(1,): 2, (0,): 1})

    for _ in range(10):
        p = rnd_poly(2, 3, rng)
        f = AffineMap(
            [[rnd_rat(rng), rnd_rat(rng)], [rnd_rat(rng), rnd_rat(rng)]],
            (rnd_rat(rng), rnd_rat(rng)),
        )
        comp = compose_affine(p, f)
        for _ in range(20):
            y = (rnd_rat(rng), rnd_rat(rng))
            assert comp.eval(y) == p.eval(affine_apply(f, y))


def test_compose_affine_functoriality():
    rng = random.Random(29)
    for _ in range(10):
        p = rnd_poly(2, 2, rng)
        f = AffineMap(
            [[rnd_rat(rng), rnd_rat(rng)], [rnd_rat(rng), rnd_rat(rng)]],
            (rnd_rat(rng), rnd_rat(rng)),
        )
        g = AffineMap(
            [[rnd_rat(rng), rnd_rat(rng)], [rnd_rat(rng), rnd_rat(rng)]],
            (rnd_rat(rng), rnd_rat(rng)),
        )
        assert compose_affine(p, affine_compose(f, g)) == compose_affine(
            compose_affine(p, f), g
        )


def test_lagrange_basis_1d():
    assert lagrange_basis_1d([Fraction(4)], 0) == Polynomial.constant(1, 1)
    assert lagrange_basis_1d([0, 1], 1) == Polynomial.variable(1, 1)
    nodes = [Fraction(0), Fraction(1, 2), Fraction(2), Fraction(-3)]
    basis = [lagrange_basis_1d(nodes, i) for i in range(4)]
    for i, Li in enumerate(basis):
        assert Li.degree() == 3
        for j, a in enumerate(nodes):
            assert Li.eval((a,)) == (1 if i == j else 0)
    total = Polynomial.zero(1)
    for Li in basis:
        total = total + Li
    assert total == Polynomial.constant(1, 1)
    with pytest.raises(ValueError):
        lagrange_basis_1d([0, 1, 0], 1)


def test_lagrange_decomposition_1d():
    rng = random.Random(41)
    nodes = [Fraction(-1), Fraction(0), Fraction(1, 3), Fraction(2)]
    for _ in range(10):
        p = rnd_poly(1, 3, rng)
        rebuilt = Polynomial.zero(1)
        for i, a in enumerate(nodes):
            rebuilt = rebuilt + lagrange_basis_1d(nodes, i).scale(p.eval((a,)))
        assert rebuilt == p


def test_json_round_trip():
    p = Polynomial(2, {(1, 1): Fraction(1, 2), (0, 0): -2, (0, 2): 3})
    data = polynomial_to_json_dict(p)
    assert data["dim"] == 2
    assert data["terms"] == [
        {"exp": [0, 0], "coeff": "-2"},
        {"exp": [1, 1], "coeff": "1/2"},
        {"exp": [0, 2], "coeff": "3"},
    ]
    assert polynomial_from_json_dict(data) == p


def test_immutability_and_pruning():
    p = Polynomial(2, {(1, 0): 0, (0, 1): 2})
    assert (1, 0) not in p.terms
    with pytest.raises(AttributeError):
        p.dim = 3
    with pytest.raises(TypeError):
        p.terms[(0, 1)] = Fraction(5)


# -- the integer kernel against term-by-term Fraction arithmetic -------------


def fraction_product(p, q):
    """Reference product: one Fraction multiply-add per pair of terms."""
    out = {}
    for ea, ca in p.terms.items():
        for eb, cb in q.terms.items():
            exp = tuple(x + y for x, y in zip(ea, eb))
            out[exp] = out.get(exp, Fraction(0)) + ca * cb
    return {exp: c for exp, c in out.items() if c != 0}


def fraction_eval(p, point):
    """Reference evaluation: Fraction powers, products and sums, term by term."""
    pt = tuple(Fraction(x) for x in point)
    total = Fraction(0)
    for exp, coeff in p.terms.items():
        value = coeff
        for x, e in zip(pt, exp):
            if e:
                value *= x**e
        total += value
    return total


big_rationals = st.builds(Fraction, st.integers(-(10**6), 10**6), st.integers(1, 10**4))


@st.composite
def polynomials(draw, d, max_degree=4):
    """Degree <= max_degree in d variables; empty (zero) and constant ones included."""
    exps = enumerate_indices(d, draw(st.integers(0, max_degree)), "A")
    chosen = draw(st.lists(st.sampled_from(exps), unique=True, max_size=len(exps)))
    return Polynomial(d, {exp: draw(big_rationals) for exp in chosen})


@st.composite
def points(draw, d):
    """Ints, Fractions (denominators of either sign) and rational strings, mixed."""
    coords = []
    for _ in range(d):
        num = draw(st.integers(-(10**6), 10**6))
        den = draw(st.integers(1, 10**4)) * draw(st.sampled_from((1, -1)))
        coords.append(draw(st.sampled_from((num, Fraction(num, den), f"{num}/{abs(den)}"))))
    return tuple(coords)


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_product_matches_fraction_reference(data):
    d = data.draw(st.integers(1, 4))
    p, q = data.draw(polynomials(d)), data.draw(polynomials(d))
    got = p * q
    want = fraction_product(p, q)
    assert dict(got.terms) == want
    assert all(c != 0 for c in got.terms.values())
    public = Polynomial(d, want)
    assert got == public and hash(got) == hash(public)


def test_eval_returns_fraction():
    for d in (1, 4):
        for p in (Polynomial.zero(d), Polynomial.constant(d, 3), Polynomial.variable(d, 1)):
            value = p.eval((2,) * d)
            assert type(value) is Fraction and value == fraction_eval(p, (2,) * d)


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_eval_matches_fraction_reference(data):
    d = data.draw(st.integers(1, 4))
    p = data.draw(polynomials(d))
    x = data.draw(points(d))
    value = p.eval(x)
    assert type(value) is Fraction
    assert value == fraction_eval(p, x)


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_cancelling_products_store_no_zeros(data):
    d = data.draw(st.integers(1, 4))
    c = data.draw(big_rationals.filter(bool))
    x = Polynomial.variable(d, d)
    square = (x + c) * (x - c)
    want = Polynomial(d, {(0,) * (d - 1) + (2,): 1, (0,) * d: -c * c})
    assert dict(square.terms) == dict(want.terms)
    assert square == want and hash(square) == hash(want)
    p, q = data.draw(polynomials(d)), data.draw(polynomials(d))
    diff = p * p - p * p
    assert diff.is_zero() and diff == Polynomial.zero(d)
    assert hash(diff) == hash(Polynomial.zero(d))
    lhs = (p + q) * (p - q)
    rhs = p * p - q * q
    assert all(c != 0 for c in lhs.terms.values())
    assert lhs == rhs and hash(lhs) == hash(rhs)
    assert lhs == Polynomial(d, fraction_product(p + q, p - q))
