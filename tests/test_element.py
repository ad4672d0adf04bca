import csv
import io
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from exactfem import element as fe
from exactfem import geometry
from exactfem.errors import DegenerateSimplexError, NotVanishingError
from exactfem.exact import identity_matrix, mat_solve
from exactfem.geometry import (
    barycentric_polynomials,
    is_affinely_independent,
    isobarycenter,
    reference_vertices,
    vertex_family,
)
from exactfem.multiindex import binomial, enumerate_indices
from exactfem.polynomial import Polynomial, lagrange_basis_1d
from exactfem.verify import random_independent_family, random_polynomial

SEGMENT = vertex_family([(0,), (1,)])
TRIANGLE = vertex_family([(0, 0), (2, 0), (0, 3)])


def test_nodes_degree_zero():
    fam = vertex_family([(2,), (6,)])
    assert fe.lagrange_nodes(fam, 0) == [((0,), (Fraction(4),))]
    assert fe.lagrange_nodes(TRIANGLE, 0)[0][1] == isobarycenter(TRIANGLE)


def test_nodes_degree_one_are_vertices():
    labeled = fe.lagrange_nodes(reference_vertices(2), 1)
    assert labeled == [
        ((0, 0), (Fraction(0), Fraction(0))),
        ((1, 0), (Fraction(1), Fraction(0))),
        ((0, 1), (Fraction(0), Fraction(1))),
    ]


def test_reference_node_coordinates():
    assert fe.reference_nodes(3, 0)[0][1] == (Fraction(1, 4),) * 3
    nodes = dict(fe.reference_nodes(2, 3))
    assert nodes[(2, 1)] == (Fraction(2, 3), Fraction(1, 3))
    for alpha, pt in fe.reference_nodes(3, 4):
        assert pt == tuple(Fraction(a, 4) for a in alpha)
    assert len(fe.reference_nodes(2, 3)) == 10


def test_segment_nodes():
    got = [pt[0] for _, pt in fe.lagrange_nodes(SEGMENT, 2)]
    assert got == [Fraction(0), Fraction(1, 2), Fraction(1)]
    v = vertex_family([(Fraction(1),), (Fraction(4),)])
    got = [pt[0] for _, pt in fe.lagrange_nodes(v, 3)]
    assert got == [Fraction(1), Fraction(2), Fraction(3), Fraction(4)]


def test_sub_vertices():
    assert fe.sub_vertices(SEGMENT, 2) == ((Fraction(0),), (Fraction(1, 2),))
    rng = random.Random(3)
    fam = random_independent_family(3, rng)
    for k in (1, 2, 3):
        sub = fe.sub_vertices(fam, k)
        assert sub[0] == fam[0]
    # degree 1 collapses everything onto the first vertex
    assert all(v == fam[0] for v in fe.sub_vertices(fam, 1))
    with pytest.raises(ValueError):
        fe.sub_vertices(fam, 0)


def test_sub_nodes_coincide():
    assert fe.sub_nodes_coincide(reference_vertices(2), 2)
    rng = random.Random(5)
    assert fe.sub_nodes_coincide(random_independent_family(3, rng), 3)
    # the zero label maps to the shared first vertex
    fam = random_independent_family(2, rng)
    nodes = dict(fe.lagrange_nodes(fam, 2))
    sub_nodes = dict(fe.lagrange_nodes(fe.sub_vertices(fam, 2), 1))
    assert nodes[(0, 0)] == sub_nodes[(0, 0)] == fam[0]
    with pytest.raises(ValueError):
        fe.sub_nodes_coincide(fam, 1)


def test_nodes_are_reference_images():
    assert fe.nodes_are_reference_images(reference_vertices(2), 3)
    rng = random.Random(7)
    assert fe.nodes_are_reference_images(random_independent_family(2, rng), 4)
    assert fe.nodes_are_reference_images(random_independent_family(3, rng), 0)


def test_vandermonde():
    assert fe.vandermonde_matrix(SEGMENT, 1) == (
        (Fraction(1), Fraction(0)),
        (Fraction(1), Fraction(1)),
    )
    assert fe.vandermonde_matrix(TRIANGLE, 0) == ((Fraction(1),),)
    vm = fe.vandermonde_matrix(TRIANGLE, 2)
    assert all(row[0] == 1 for row in vm)
    # square by construction: one row per node, one column per label
    assert len(vm) == len(vm[0]) == binomial(2 + 2, 2)


def test_unisolvence():
    assert fe.is_unisolvent(reference_vertices(2), 2)
    assert not fe.is_unisolvent(vertex_family([(0, 0), (1, 1), (2, 2)]), 1)
    assert fe.is_unisolvent(vertex_family([(0,), (Fraction(5),)]), 3)


def test_shape_functions_duality():
    rng = random.Random(11)
    for d, k in ((1, 3), (2, 2), (3, 1)):
        fam = random_independent_family(d, rng)
        elem = fe.build_element(fam, k)
        for b, theta in enumerate(elem.shape_functions):
            for a, pt in enumerate(elem.nodes):
                assert theta.eval(pt) == (1 if a == b else 0)


def test_shape_functions_special_cases():
    # degree 1: the barycentric polynomials, in node order
    rng = random.Random(13)
    fam = random_independent_family(2, rng)
    assert list(fe.shape_functions(fam, 1)) == barycentric_polynomials(fam)
    # one variable: the nodal product formula
    seg = vertex_family([(Fraction(-1),), (Fraction(2),)])
    elem = fe.build_element(seg, 3)
    nodes = [pt[0] for pt in elem.nodes]
    assert list(elem.shape_functions) == [
        lagrange_basis_1d(nodes, i) for i in range(4)
    ]
    # the basis always sums to one
    total = Polynomial.zero(2)
    for theta in fe.shape_functions(fam, 2):
        total = total + theta
    assert total == Polynomial.constant(2, 1)


def solved_basis(fam, k):
    """The dual basis from the node matrix: columns of V^-1 over the grsymlex labels."""
    d = len(fam) - 1
    labels = fe.node_labels(d, k)
    coeffs = mat_solve(fe.vandermonde_matrix(fam, k), identity_matrix(len(labels)))
    return [
        Polynomial(d, {g: coeffs[r][b] for r, g in enumerate(labels)})
        for b in range(len(labels))
    ]


ORACLE_CELLS = [(d, k) for d in (1, 2, 3) for k in range(5)] + [(4, 2)]


@pytest.mark.parametrize("d,k", ORACLE_CELLS)
def test_closed_form_matches_solve(d, k):
    rng = random.Random(f"oracle/{d}/{k}")
    for fam in (reference_vertices(d), random_independent_family(d, rng)):
        elem = fe.build_element(fam, k)
        assert list(elem.shape_functions) == solved_basis(fam, k)
        assert elem.vandermonde == fe.vandermonde_matrix(fam, k)


small_rationals = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 3))


@given(st.data())
@settings(max_examples=30, deadline=None)
def test_closed_form_matches_solve_property(data):
    d = data.draw(st.integers(1, 3))
    k = data.draw(st.integers(0, 3))
    fam = tuple(
        tuple(data.draw(small_rationals) for _ in range(d)) for _ in range(d + 1)
    )
    assume(is_affinely_independent(fam))
    assert list(fe.build_element(fam, k).shape_functions) == solved_basis(fam, k)


def test_linear_form():
    elem_nodes = dict(fe.lagrange_nodes(TRIANGLE, 2))
    one = Polynomial.constant(2, 1)
    for alpha in elem_nodes:
        assert fe.linear_form(TRIANGLE, 2, alpha, one) == 1
    shapes = fe.shape_functions(TRIANGLE, 2)
    labels = fe.node_labels(2, 2)
    for a, alpha in enumerate(labels):
        for b, beta in enumerate(labels):
            assert fe.linear_form(TRIANGLE, 2, alpha, shapes[b]) == (
                1 if a == b else 0
            )
    with pytest.raises(ValueError):
        fe.linear_form(TRIANGLE, 2, (3, 0), one)


def test_nodes_on_hyperplane():
    assert fe.nodes_on_hyperplane(TRIANGLE, 3, 0) == [(3, 0), (2, 1), (1, 2), (0, 3)]
    assert fe.nodes_on_hyperplane(TRIANGLE, 2, 1) == [(0, 0), (0, 1), (0, 2)]
    rng = random.Random(17)
    for d, k in ((2, 3), (3, 2)):
        fam = random_independent_family(d, rng)
        lams = barycentric_polynomials(fam)
        nodes = dict(fe.lagrange_nodes(fam, k))
        for i in range(d + 1):
            listed = fe.nodes_on_hyperplane(fam, k, i)
            assert len(listed) == binomial(k + d - 1, d - 1)
            geometric = {a for a, pt in nodes.items() if lams[i].eval(pt) == 0}
            assert set(listed) == geometric


def test_hyperface_transport():
    rng = random.Random(19)
    for i in range(4):
        assert fe.hyperface_transport_consistent(reference_vertices(3), 3, i)
    fam = random_independent_family(2, rng)
    for i in range(3):
        assert fe.hyperface_transport_consistent(fam, 4, i)


def test_factor_on_hyperplane():
    rng = random.Random(23)
    lams = barycentric_polynomials(TRIANGLE)
    assert fe.factor_on_hyperplane(TRIANGLE, 1, 1, lams[1]) == Polynomial.constant(2, 1)
    got = fe.factor_on_hyperplane(TRIANGLE, 2, 1, lams[1] * lams[2])
    assert got == lams[2]
    with pytest.raises(NotVanishingError):
        fe.factor_on_hyperplane(TRIANGLE, 2, 0, Polynomial.constant(2, 1))
    for d, k in ((2, 3), (3, 2)):
        fam = random_independent_family(d, rng)
        fam_lams = barycentric_polynomials(fam)
        for i in range(d + 1):
            q = random_polynomial(d, k - 1, rng)
            assert fe.factor_on_hyperplane(fam, k, i, fam_lams[i] * q) == q
    # dimension-1 branch
    seg = vertex_family([(Fraction(1),), (Fraction(3),)])
    seg_lams = barycentric_polynomials(seg)
    q = Polynomial(1, {(1,): Fraction(2), (0,): Fraction(-1, 3)})
    assert fe.factor_on_hyperplane(seg, 2, 0, seg_lams[0] * q) == q
    with pytest.raises(ValueError):
        fe.factor_on_hyperplane(TRIANGLE, 1, 0, Polynomial.monomial((1, 1)))


def test_face_unisolvence():
    rng = random.Random(29)
    fam = random_independent_family(2, rng)
    lams = barycentric_polynomials(fam)
    elem = fe.build_element(fam, 2)
    for i in range(3):
        q = random_polynomial(2, 1, rng)
        assert fe.face_unisolvence(fam, 2, i, lams[i] * q) is True
        assert fe.face_unisolvence(fam, 2, i, Polynomial.zero(2)) is True
        on_face = fe.nodes_on_hyperplane(fam, 2, i)
        assert fe.face_unisolvence(fam, 2, i, elem.shape(on_face[0])) is False


def test_build_element():
    elem = fe.build_element(reference_vertices(1), 2)
    assert [pt[0] for pt in elem.nodes] == [Fraction(0), Fraction(1, 2), Fraction(1)]
    assert list(elem.shape_functions) == [
        lagrange_basis_1d([0, Fraction(1, 2), 1], i) for i in range(3)
    ]
    elem32 = fe.build_element(reference_vertices(3), 2)
    assert len(elem32.nodes) == 10
    with pytest.raises(DegenerateSimplexError):
        fe.build_element(vertex_family([(0, 0), (1, 1), (2, 2)]), 2)


def test_build_element_checks_independence_once(monkeypatch):
    degenerate = vertex_family([(0, 0), (1, 1), (2, 2)])
    # a degenerate family is refused before the degree is looked at
    for k in (0, -1):
        with pytest.raises(DegenerateSimplexError, match="not affinely independent"):
            fe.build_element(degenerate, k)
    with pytest.raises(ValueError, match="degree must be a natural"):
        fe.build_element(TRIANGLE, -1)
    calls = {"require_independent": 0, "vertex_family": 0}

    def counted(name):
        original = getattr(geometry, name)

        def wrapper(*args):
            calls[name] += 1
            return original(*args)

        monkeypatch.setattr(geometry, name, wrapper)

    counted("require_independent")
    counted("vertex_family")
    geometry.require_independent(TRIANGLE)
    assert calls == {"require_independent": 1, "vertex_family": 1}
    fe.build_element(TRIANGLE, 2)
    assert calls["require_independent"] == 2


def test_dimension_table():
    for d in (1, 2, 3):
        for k in range(5):
            elem = fe.build_element(reference_vertices(d), k)
            want = {
                1: k + 1,
                2: (k + 1) * (k + 2) // 2,
                3: (k + 1) * (k + 2) * (k + 3) // 6,
            }[d]
            assert len(elem.shape_functions) == want == binomial(k + d, d)


def test_element_serialization():
    elem = fe.build_element(SEGMENT, 1)
    data = fe.element_to_json_dict(elem)
    assert data["d"] == 1 and data["k"] == 1
    assert data["vertices"] == [["0"], ["1"]]
    assert data["nodes"] == [
        {"alpha": [0], "point": ["0"]},
        {"alpha": [1], "point": ["1"]},
    ]
    assert data["shape_functions"][1] == {"dim": 1, "terms": [{"exp": [1], "coeff": "1"}]}

    table = fe.element_nodes_csv(fe.build_element(TRIANGLE, 1))
    rows = list(csv.reader(io.StringIO(table)))
    assert rows[0] == ["alpha_1", "alpha_2", "x_1", "x_2"]
    assert rows[1:] == [
        ["0", "0", "0", "0"],
        ["1", "0", "2", "0"],
        ["0", "1", "0", "3"],
    ]


def test_node_label_ordering_matches_enumeration():
    for d, k in ((2, 3), (3, 2)):
        elem = fe.build_element(reference_vertices(d), k)
        assert list(elem.node_index) == enumerate_indices(d, k, "A")
