"""Points, affine maps, simplices, barycentric coordinates and face mappings.

A point is a tuple of Fractions.  A vertex family is a tuple of d+1 points in
dimension d; affine independence is a checked property, not an invariant, so
degenerate families can still build the forward geometric mapping while any
inversion raises DegenerateSimplexError.

Nondegeneracy is decided algebraically: the d x d matrix of differences
v_i - v_0 must have full rank, which is exactly decidable over rationals.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import DegenerateSimplexError, SingularMatrixError
from .exact import (
    Matrix,
    identity_matrix,
    mat_mul,
    mat_rank,
    mat_solve,
    mat_vec,
    matrix,
    rat_parse,
    rat_str,
    rationals,
)
from .multiindex import jump_tuple
from .polynomial import Polynomial

Point = tuple[Fraction, ...]
VertexFamily = tuple[Point, ...]


def point(coords) -> Point:
    """Exact coordinates from ints, Fractions or rational strings; no floats or bools."""
    pt = rationals(coords, "coordinates")
    if not pt:
        raise ValueError("points must have dimension at least 1")
    return pt


def vertex_family(vertices) -> VertexFamily:
    """Normalize and validate: d+1 points, each of dimension d >= 1."""
    fam = tuple(point(v) for v in vertices)
    if len(fam) < 2:
        raise ValueError("a vertex family needs at least 2 points")
    d = len(fam) - 1
    if any(len(v) != d for v in fam):
        raise ValueError(f"{d + 1} vertices must each have dimension {d}")
    return fam


def family_dim(vertices: VertexFamily) -> int:
    return len(vertices) - 1


@dataclass(frozen=True)
class AffineMap:
    """x -> translation + matrix @ x, from R^(cols) to R^(rows)."""

    matrix: Matrix
    translation: Point

    def __post_init__(self):
        m = matrix(self.matrix)
        t = point(self.translation)
        if len(t) != len(m):
            raise ValueError("translation length must equal the matrix row count")
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "translation", t)

    @property
    def domain_dim(self) -> int:
        return len(self.matrix[0]) if self.matrix else 0

    @property
    def codomain_dim(self) -> int:
        return len(self.matrix)

    def __call__(self, x) -> Point:
        return affine_apply(self, x)


def identity_map(d: int) -> AffineMap:
    return AffineMap(identity_matrix(d), (Fraction(0),) * d)


def affine_apply(f: AffineMap, x) -> Point:
    x = point(x)
    if len(x) != f.domain_dim:
        raise ValueError("point dimension does not match the map domain")
    return tuple(t + s for t, s in zip(f.translation, mat_vec(f.matrix, x)))


def affine_compose(g: AffineMap, f: AffineMap) -> AffineMap:
    """The map x -> g(f(x))."""
    if g.domain_dim != f.codomain_dim:
        raise ValueError("composition dimensions do not match")
    return AffineMap(
        mat_mul(g.matrix, f.matrix),
        tuple(t + s for t, s in zip(g.translation, mat_vec(g.matrix, f.translation))),
    )


def affine_inverse(f: AffineMap) -> AffineMap:
    """Exact inverse; requires a square nonsingular matrix.

    Raises DegenerateSimplexError (a SingularMatrixError subclass is not
    used here: the caller-facing meaning is a degenerate configuration).
    """
    if f.domain_dim != f.codomain_dim:
        raise ValueError("only square affine maps can be inverted")
    try:
        inv = mat_solve(f.matrix, identity_matrix(f.codomain_dim))
    except SingularMatrixError as exc:
        raise DegenerateSimplexError("affine map is not invertible") from exc
    return AffineMap(inv, tuple(-x for x in mat_vec(inv, f.translation)))


# -- simplices -------------------------------------------------------------


def reference_vertices(d: int) -> VertexFamily:
    """The origin followed by the canonical basis points e_1..e_d."""
    if d < 1:
        raise ValueError("dimension must be at least 1")
    zero = (Fraction(0),) * d
    return (zero,) + tuple(
        tuple(Fraction(1 if j == i else 0) for j in range(d)) for i in range(d)
    )


def difference_matrix(vertices: VertexFamily) -> Matrix:
    """Columns v_i - v_0 for i = 1..d (the linear part of the geometric map)."""
    return _differences(vertex_family(vertices))


def _differences(fam: VertexFamily) -> Matrix:
    """difference_matrix of a family already normalized by vertex_family."""
    d = family_dim(fam)
    v0 = fam[0]
    return tuple(tuple(fam[j + 1][row] - v0[row] for j in range(d)) for row in range(d))


def _independent(fam: VertexFamily) -> bool:
    """Full rank of the differences of a family already normalized by vertex_family."""
    return mat_rank(_differences(fam)) == family_dim(fam)


def is_affinely_independent(vertices: VertexFamily) -> bool:
    return _independent(vertex_family(vertices))


def require_independent(vertices: VertexFamily) -> VertexFamily:
    vertices = vertex_family(vertices)
    if not _independent(vertices):
        raise DegenerateSimplexError("vertex family is not affinely independent")
    return vertices


def isobarycenter(points) -> Point:
    pts = [point(p) for p in points]
    if not pts:
        raise ValueError("isobarycenter of an empty family")
    d = len(pts[0])
    if any(len(p) != d for p in pts):
        raise ValueError("points must share a dimension")
    n = len(pts)
    return tuple(sum(p[i] for p in pts) / n for i in range(d))


def reference_barycentric(d: int, i: int) -> Polynomial:
    """The i-th affine basis polynomial on the reference simplex.

    i = 0 gives 1 - x_1 - ... - x_d; i in [1..d] gives x_i.  They evaluate
    to the Kronecker delta on the reference vertices and sum to 1.
    """
    if d < 1:
        raise ValueError("dimension must be at least 1")
    if not (0 <= i <= d):
        raise ValueError(f"index must lie in [0..{d}]")
    if i == 0:
        out = Polynomial.constant(d, 1)
        for j in range(1, d + 1):
            out = out - Polynomial.variable(d, j)
        return out
    return Polynomial.variable(d, i)


def geometric_mapping(vertices: VertexFamily) -> AffineMap:
    """The affine map sending the reference vertices onto the given ones.

    Defined for any family (degenerate included); only its inverse needs
    affine independence.
    """
    vertices = vertex_family(vertices)
    return AffineMap(_differences(vertices), vertices[0])


def barycentric_polynomials(vertices: VertexFamily) -> list[Polynomial]:
    """The d+1 affine polynomials with lambda_i(v_j) = delta_ij, sum = 1.

    lambda_i for i >= 1 is coordinate i of the inverse geometric map, read off
    its matrix row and translation; lambda_0 = 1 - sum.
    """
    vertices = require_independent(vertices)
    d = family_dim(vertices)
    inv = affine_inverse(geometric_mapping(vertices))
    units = [tuple(int(j == i) for j in range(d)) for i in range(d)]
    lams = [
        Polynomial(d, {(0,) * d: shift, **dict(zip(units, row))})
        for row, shift in zip(inv.matrix, inv.translation)
    ]
    lams.insert(0, Polynomial.constant(d, 1) - sum(lams, Polynomial.zero(d)))
    return lams


def check_face_index(d: int, i: int) -> None:
    """Reject a face (opposite-vertex) index outside [0..d]."""
    if not (0 <= i <= d):
        raise ValueError(f"face index must lie in [0..{d}]")


def in_reference_simplex(x) -> bool:
    """Closed membership: all coordinates >= 0 and their sum <= 1."""
    x = point(x)
    return all(c >= 0 for c in x) and sum(x) <= 1


def in_simplex(vertices: VertexFamily, x) -> bool:
    """Closed membership in the convex envelope, via barycentric signs."""
    lams = barycentric_polynomials(vertices)
    x = point(x)
    return all(lam.eval(x) >= 0 for lam in lams)


def face_hyperplane_contains(vertices: VertexFamily, i: int, x) -> bool:
    """Whether x lies on the hyperplane spanned by all vertices except v_i."""
    lams = barycentric_polynomials(vertices)
    check_face_index(len(lams) - 1, i)
    return lams[i].eval(x) == 0


def face_mapping(vertices: VertexFamily, selector) -> AffineMap:
    """Affine map of the reference l-simplex onto the face picked by selector.

    selector lists the l+1 vertex numbers (v_selector[j])_j; it must be
    injective into [0..d] with l >= 1.  The reference vertex j goes to
    v_selector[j]; the matrix columns are v_selector[j] - v_selector[0].
    """
    vertices = vertex_family(vertices)
    d = family_dim(vertices)
    sel = tuple(int(j) for j in selector)
    l = len(sel) - 1
    if l < 1:
        raise ValueError("faces of dimension 0 are not supported")
    if l > d:
        raise ValueError("face dimension exceeds the simplex dimension")
    if any(not (0 <= j <= d) for j in sel):
        raise ValueError(f"selector values must lie in [0..{d}]")
    if len(set(sel)) != len(sel):
        raise ValueError("selector must be injective")
    base = vertices[sel[0]]
    cols = [vertices[sel[j + 1]] for j in range(l)]
    mat = tuple(tuple(col[row] - base[row] for col in cols) for row in range(d))
    return AffineMap(mat, base)


def hyperface_mapping(vertices: VertexFamily, i: int) -> AffineMap:
    """Map of the reference (d-1)-simplex onto the hyperface opposite v_i."""
    vertices = vertex_family(vertices)
    d = family_dim(vertices)
    if d < 2:
        raise ValueError("hyperface mappings need dimension >= 2")
    check_face_index(d, i)
    return face_mapping(vertices, jump_tuple(d - 1, i))


def permutation_mapping(vertices: VertexFamily, perm) -> AffineMap:
    """Map of the reference simplex onto the simplex with relabeled vertices.

    perm must be a bijection of [0..d]; the reference vertex j is sent to
    v_perm[j].
    """
    vertices = vertex_family(vertices)
    d = family_dim(vertices)
    sel = tuple(int(j) for j in perm)
    if len(sel) != d + 1 or sorted(sel) != list(range(d + 1)):
        raise ValueError("perm must be a bijection of [0..d]")
    return face_mapping(vertices, sel)


# -- serialization ---------------------------------------------------------


def point_to_json(p: Point) -> list[str]:
    return [rat_str(c) for c in p]


def point_from_json(data) -> Point:
    return point(rat_parse(str(c)) for c in data)


def vertex_family_to_json_dict(vertices: VertexFamily) -> dict:
    vertices = vertex_family(vertices)
    return {
        "d": family_dim(vertices),
        "vertices": [point_to_json(v) for v in vertices],
    }


def vertex_family_from_json_dict(data: dict) -> VertexFamily:
    fam = vertex_family(point_from_json(v) for v in data["vertices"])
    if "d" in data and int(data["d"]) != family_dim(fam):
        raise ValueError("declared dimension does not match the vertex list")
    return fam


def affine_map_to_json_dict(f: AffineMap) -> dict:
    return {
        "matrix": [[rat_str(x) for x in row] for row in f.matrix],
        "translation": point_to_json(f.translation),
    }
