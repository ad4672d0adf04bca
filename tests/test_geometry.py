import random
from fractions import Fraction
from itertools import permutations

import pytest

from exactfem.errors import DegenerateSimplexError
from exactfem.exact import matrix
from exactfem.geometry import (
    AffineMap,
    affine_apply,
    affine_compose,
    affine_inverse,
    affine_map_to_json_dict,
    barycentric_polynomials,
    face_hyperplane_contains,
    face_mapping,
    geometric_mapping,
    hyperface_mapping,
    identity_map,
    in_reference_simplex,
    in_simplex,
    is_affinely_independent,
    isobarycenter,
    permutation_mapping,
    point,
    reference_barycentric,
    reference_vertices,
    vertex_family,
    vertex_family_from_json_dict,
    vertex_family_to_json_dict,
)
from exactfem.polynomial import Polynomial, compose_affine, lagrange_basis_1d
from exactfem.verify import random_independent_family, random_point

TRIANGLE = vertex_family([(0, 0), (2, 0), (0, 3)])


def test_reference_vertices():
    assert reference_vertices(1) == ((Fraction(0),), (Fraction(1),))
    assert reference_vertices(2) == (
        (Fraction(0), Fraction(0)),
        (Fraction(1), Fraction(0)),
        (Fraction(0), Fraction(1)),
    )
    with pytest.raises(ValueError):
        reference_vertices(0)


def test_affine_independence():
    assert not is_affinely_independent(((Fraction(2),), (Fraction(2),)))
    assert is_affinely_independent(((Fraction(0),), (Fraction(1),)))
    for d in range(1, 5):
        assert is_affinely_independent(reference_vertices(d))
    assert not is_affinely_independent(vertex_family([(0, 0), (1, 1), (2, 2)]))


def test_isobarycenter():
    pt = (Fraction(1, 3), Fraction(2))
    assert isobarycenter([pt]) == pt
    for d in range(1, 4):
        assert isobarycenter(reference_vertices(d)) == (Fraction(1, d + 1),) * d
    rng = random.Random(2)
    for d in (1, 2, 3):
        pts = [random_point(d, rng) for _ in range(4)]
        f = AffineMap(
            [[Fraction(rng.randint(-3, 3)) for _ in range(d)] for _ in range(d)],
            random_point(d, rng),
        )
        assert affine_apply(f, isobarycenter(pts)) == isobarycenter(
            [affine_apply(f, p) for p in pts]
        )


def test_reference_barycentric():
    for d in (1, 2, 3):
        basis = [reference_barycentric(d, i) for i in range(d + 1)]
        for i, Li in enumerate(basis):
            for j, v in enumerate(reference_vertices(d)):
                assert Li.eval(v) == (1 if i == j else 0)
        total = Polynomial.zero(d)
        for Li in basis:
            total = total + Li
        assert total == Polynomial.constant(d, 1)
    assert [reference_barycentric(1, i) for i in range(2)] == [
        lagrange_basis_1d([0, 1], i) for i in range(2)
    ]
    with pytest.raises(ValueError):
        reference_barycentric(2, 3)


def test_geometric_mapping():
    for d in (1, 2, 3):
        assert geometric_mapping(reference_vertices(d)) == identity_map(d)
    f = geometric_mapping(((Fraction(2),), (Fraction(6),)))
    assert f.matrix == ((Fraction(4),),) and f.translation == (Fraction(2),)
    rng = random.Random(4)
    for d in (1, 2, 3):
        fam = random_independent_family(d, rng)
        g = geometric_mapping(fam)
        for i, rv in enumerate(reference_vertices(d)):
            assert affine_apply(g, rv) == fam[i]


def test_affine_inverse_and_compose():
    rng = random.Random(9)
    for d in (1, 2, 3):
        fam = random_independent_family(d, rng)
        f = geometric_mapping(fam)
        inv = affine_inverse(f)
        assert affine_compose(f, inv) == identity_map(d)
        for i, v in enumerate(fam):
            assert affine_apply(inv, v) == reference_vertices(d)[i]
    degenerate = geometric_mapping(vertex_family([(0, 0), (1, 1), (2, 2)]))
    with pytest.raises(DegenerateSimplexError):
        affine_inverse(degenerate)


def test_affine_maps_preserve_barycenters():
    rng = random.Random(14)
    d = 2
    f = AffineMap([[1, 2], [3, 4]], (Fraction(5), Fraction(-1)))
    for _ in range(10):
        pts = [random_point(d, rng) for _ in range(3)]
        weights = [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(2)]
        weights.append(1 - sum(weights))
        x = tuple(
            sum((w * p[row] for w, p in zip(weights, pts)), Fraction(0))
            for row in range(d)
        )
        fx = affine_apply(f, x)
        want = tuple(
            sum(
                (w * affine_apply(f, p)[row] for w, p in zip(weights, pts)),
                Fraction(0),
            )
            for row in range(d)
        )
        assert fx == want


def test_barycentric_polynomials():
    assert barycentric_polynomials(reference_vertices(2)) == [
        reference_barycentric(2, i) for i in range(3)
    ]
    rng = random.Random(21)
    fam = random_independent_family(3, rng)
    lams = barycentric_polynomials(fam)
    for i, lam in enumerate(lams):
        for j, v in enumerate(fam):
            assert lam.eval(v) == (1 if i == j else 0)
    total = Polynomial.zero(3)
    for lam in lams:
        total = total + lam
    assert total == Polynomial.constant(3, 1)
    with pytest.raises(DegenerateSimplexError):
        barycentric_polynomials(vertex_family([(0, 0), (1, 1), (2, 2)]))


def test_barycentric_matches_composed_reference():
    # Oracle: the reference barycentric polynomials pulled back through the
    # inverse geometric map by compose_affine, a construction independent of
    # reading the coordinates off the inverse.
    rng = random.Random(29)
    for d in (1, 2, 3, 4):
        families = [reference_vertices(d)] + [random_independent_family(d, rng) for _ in range(3)]
        for fam in families:
            inv = affine_inverse(geometric_mapping(fam))
            want = [compose_affine(reference_barycentric(d, i), inv) for i in range(d + 1)]
            assert barycentric_polynomials(fam) == want


def test_inexact_coordinates_rejected():
    for bad in ((0.1, 0), (True, 0), (0, False), (Fraction(1, 2), 1.0)):
        with pytest.raises(ValueError):
            point(bad)
    with pytest.raises(ValueError):
        vertex_family([(0, 0), (0.5, 0), (0, 1)])
    with pytest.raises(ValueError):
        vertex_family([(0, 0), (1, 0), (0, True)])
    for bad in ((0.1, 0), (0, True)):
        with pytest.raises(ValueError):
            AffineMap([[1, 0], [0, 1]], bad)
    assert point((1, Fraction(-2, 3), "3/4", " 0.1 ")) == (
        Fraction(1), Fraction(-2, 3), Fraction(3, 4), Fraction(1, 10)
    )
    assert AffineMap([[1]], ("1/2",)).translation == (Fraction(1, 2),)


def test_inexact_input_rejected_at_every_boundary():
    # The three calls below used to accept the float as a binary fraction.
    with pytest.raises(ValueError, match="must be exact"):
        face_hyperplane_contains(reference_vertices(2), 1, (0.0, 0.1))
    with pytest.raises(ValueError, match="must be exact"):
        Polynomial.variable(2, 1).eval((0.1, 0))
    with pytest.raises(ValueError, match="must be exact"):
        matrix([[0.1]])
    for bad in (
        lambda: AffineMap([[0.5]], (0,)),
        lambda: AffineMap([[True]], (0,)),
        lambda: Polynomial(1, {(1,): 0.5}),
        lambda: Polynomial(1, {(0,): True}),
        lambda: Polynomial.constant(2, 0.5),
        lambda: Polynomial.monomial((1, 0), 0.5),
        lambda: Polynomial.variable(2, 1).scale(0.5),
        lambda: Polynomial.variable(2, 1) * 0.5,
        lambda: Polynomial.variable(2, 1) + 0.5,
        lambda: Polynomial.variable(1, 1).eval((True,)),
        lambda: in_simplex(reference_vertices(2), (0.25, 0)),
        lambda: lagrange_basis_1d([0, 0.5, 1], 0),
    ):
        with pytest.raises(ValueError, match="must be exact"):
            bad()
    # rational strings stay accepted
    assert matrix([["1/2", 3]]) == ((Fraction(1, 2), Fraction(3)),)
    assert Polynomial(1, {(1,): "1/2"}) == Polynomial.variable(1, 1).scale(Fraction(1, 2))
    assert Polynomial.variable(2, 1).eval(("1/3", 0)) == Fraction(1, 3)
    assert face_hyperplane_contains(reference_vertices(2), 1, (0, "1/2"))


def test_barycentric_equals_inverse_coordinates():
    rng = random.Random(33)
    for d in (1, 2, 3):
        fam = random_independent_family(d, rng)
        lams = barycentric_polynomials(fam)
        inv = affine_inverse(geometric_mapping(fam))
        for _ in range(5):
            x = random_point(d, rng)
            back = affine_apply(inv, x)
            for i in range(1, d + 1):
                assert lams[i].eval(x) == back[i - 1]


def test_affine_polynomial_decomposition():
    rng = random.Random(37)
    for d in (1, 2, 3):
        fam = random_independent_family(d, rng)
        lams = barycentric_polynomials(fam)
        for _ in range(5):
            p = Polynomial(
                d,
                {
                    (0,) * d: Fraction(rng.randint(-5, 5), rng.randint(1, 3)),
                    **{
                        tuple(1 if j == i else 0 for j in range(d)): Fraction(
                            rng.randint(-5, 5), rng.randint(1, 3)
                        )
                        for i in range(d)
                    },
                },
            )
            rebuilt = Polynomial.zero(d)
            for v, lam in zip(fam, lams):
                rebuilt = rebuilt + lam.scale(p.eval(v))
            assert rebuilt == p


def test_simplex_membership():
    assert in_reference_simplex((Fraction(0), Fraction(0)))
    assert in_reference_simplex((Fraction(1, 3), Fraction(1, 3)))
    assert not in_reference_simplex((Fraction(1), Fraction(1)))
    assert in_simplex(TRIANGLE, isobarycenter(TRIANGLE))
    assert in_simplex(TRIANGLE, TRIANGLE[1])
    assert not in_simplex(TRIANGLE, (Fraction(5), Fraction(5)))
    # forward images of reference members are members
    rng = random.Random(8)
    fam = random_independent_family(2, rng)
    g = geometric_mapping(fam)
    for _ in range(20):
        a = Fraction(rng.randint(0, 4), 8)
        b = Fraction(rng.randint(0, 4), 8)
        if a + b <= 1:
            assert in_simplex(fam, affine_apply(g, (a, b)))


def test_membership_invariant_under_relabeling():
    rng = random.Random(10)
    fam = random_independent_family(2, rng)
    for _ in range(10):
        x = random_point(2, rng)
        inside = in_simplex(fam, x)
        for perm in permutations(range(3)):
            assert in_simplex(tuple(fam[p] for p in perm), x) == inside


def test_face_hyperplane():
    for j in (1, 2):
        assert face_hyperplane_contains(TRIANGLE, 0, TRIANGLE[j])
    assert not face_hyperplane_contains(TRIANGLE, 0, TRIANGLE[0])
    ref = reference_vertices(2)
    rng = random.Random(12)
    for _ in range(20):
        x = random_point(2, rng)
        assert face_hyperplane_contains(ref, 1, x) == (x[0] == 0)
        assert face_hyperplane_contains(ref, 2, x) == (x[1] == 0)
        assert face_hyperplane_contains(ref, 0, x) == (sum(x) == 1)


def test_face_mapping():
    fam = TRIANGLE
    assert face_mapping(fam, (0, 1, 2)) == geometric_mapping(fam)
    rng = random.Random(5)
    fam3 = random_independent_family(3, rng)
    for sel in ((0, 2, 3), (3, 1, 0), (2, 0, 1)):
        f = face_mapping(fam3, sel)
        for j, rv in enumerate(reference_vertices(2)):
            assert affine_apply(f, rv) == fam3[sel[j]]
    with pytest.raises(ValueError):
        face_mapping(fam, (0, 0, 1))
    with pytest.raises(ValueError):
        face_mapping(fam, (2,))


def test_hyperface_mapping():
    v0, v1, v2 = TRIANGLE
    f0 = hyperface_mapping(TRIANGLE, 0)
    # the image of t is v1 + t (v2 - v1)
    for t in (Fraction(0), Fraction(1, 2), Fraction(3)):
        want = tuple(v1[r] + t * (v2[r] - v1[r]) for r in range(2))
        assert affine_apply(f0, (t,)) == want
    rng = random.Random(6)
    fam = random_independent_family(3, rng)
    for i in range(4):
        f = hyperface_mapping(fam, i)
        for j, rv in enumerate(reference_vertices(2)):
            assert affine_apply(f, rv) == (fam[j] if j < i else fam[j + 1])
        lam = barycentric_polynomials(fam)[i]
        for _ in range(50):
            xhat = random_point(2, rng)
            assert lam.eval(affine_apply(f, xhat)) == 0
    with pytest.raises(ValueError):
        hyperface_mapping(((Fraction(0),), (Fraction(1),)), 0)


def test_permutation_mapping():
    rng = random.Random(16)
    fam = random_independent_family(3, rng)
    assert permutation_mapping(fam, (0, 1, 2, 3)) == geometric_mapping(fam)
    from exactfem.multiindex import cyclic_tuple

    perm = cyclic_tuple(3, 0)
    f = permutation_mapping(fam, perm)
    for j, rv in enumerate(reference_vertices(3)):
        assert affine_apply(f, rv) == fam[perm[j]]
    # pullback of each barycentric polynomial is the reference one
    lams = barycentric_polynomials(fam)
    for j in range(4):
        assert compose_affine(lams[perm[j]], f) == reference_barycentric(3, j)
    with pytest.raises(ValueError):
        permutation_mapping(fam, (0, 1, 2, 2))


def test_subfamily_independence():
    rng = random.Random(19)
    from exactfem.exact import mat_rank

    fam = random_independent_family(3, rng)
    for sel in ((0, 1), (1, 3), (0, 2, 3), (3, 2, 1, 0)):
        f = face_mapping(fam, sel)
        assert mat_rank(f.matrix) == len(sel) - 1


def test_json_round_trips():
    data = vertex_family_to_json_dict(TRIANGLE)
    assert data == {"d": 2, "vertices": [["0", "0"], ["2", "0"], ["0", "3"]]}
    assert vertex_family_from_json_dict(data) == TRIANGLE
    with pytest.raises(ValueError):
        vertex_family_from_json_dict({"d": 1, "vertices": [["0", "0"], ["1", "0"], ["0", "1"]]})
    f = geometric_mapping(TRIANGLE)
    assert affine_map_to_json_dict(f) == {
        "matrix": [["2", "0"], ["0", "3"]],
        "translation": ["0", "0"],
    }
