"""Simplicial Lagrange finite elements of arbitrary degree and dimension.

The element on a nondegenerate simplex with vertices (v_0..v_d) and degree k
consists of:

* nodes, one per multi-index of length at most k (grsymlex order): the
  isobarycenter for k = 0, else v_0 + sum_i (alpha_i / k)(v_i - v_0);
* point-evaluation linear forms at those nodes;
* shape functions, the polynomial basis dual to the evaluations, built in
  closed form as products of shifted barycentric coordinates.

Unisolvence (nonsingularity of the node-vs-monomial matrix) always holds on
affinely independent vertices; ``is_unisolvent`` is the executable witness.
Solving that matrix against the identity gives the same basis; the tests use
the solve as an independent oracle for the closed form.
The node/matrix flattening uses grsymlex for rows and columns alike.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from . import multiindex as mi
from .errors import NotVanishingError
from .exact import Matrix, mat_det, rat_str
from .geometry import (
    Point,
    VertexFamily,
    affine_apply,
    affine_inverse,
    barycentric_polynomials,
    check_face_index,
    family_dim,
    geometric_mapping,
    hyperface_mapping,
    is_affinely_independent,
    isobarycenter,
    permutation_mapping,
    point_to_json,
    require_independent,
    reference_vertices,
    vertex_family,
    vertex_family_to_json_dict,
)
from .polynomial import (
    NEG_INF,
    Polynomial,
    compose_affine,
    divide_by_last_variable,
    polynomial_to_json_dict,
)


def node_labels(d: int, k: int) -> list[mi.MultiIndex]:
    """All node labels (length at most k) in grsymlex order."""
    return mi.enumerate_indices(d, k, "A")


def lagrange_nodes(vertices: VertexFamily, k: int) -> list[tuple[mi.MultiIndex, Point]]:
    """(label, point) pairs in grsymlex label order.

    Degree 0 places the single node at the isobarycenter; otherwise the node
    of label alpha sits at v_0 + sum_i (alpha_i / k)(v_i - v_0).
    """
    vertices = vertex_family(vertices)
    d = family_dim(vertices)
    if k < 0:
        raise ValueError("degree must be a natural")
    if k == 0:
        return [((0,) * d, isobarycenter(vertices))]
    v0 = vertices[0]
    out = []
    for alpha in node_labels(d, k):
        pt = tuple(
            v0[row]
            + sum(
                Fraction(alpha[i], k) * (vertices[i + 1][row] - v0[row])
                for i in range(d)
            )
            for row in range(d)
        )
        out.append((alpha, pt))
    return out


def reference_nodes(d: int, k: int) -> list[tuple[mi.MultiIndex, Point]]:
    """Nodes on the reference simplex: coordinates alpha_i / k (k >= 1)."""
    return lagrange_nodes(reference_vertices(d), k)


def sub_vertices(vertices: VertexFamily, k: int) -> VertexFamily:
    """The shrunken family v_0, (1/k) v_0 + ((k-1)/k) v_i.

    Its degree-(k-1) nodes coincide with the inner degree-k nodes of the
    original family.  Affinely independent whenever the input is and k >= 2;
    for k = 1 all its members collapse onto v_0.
    """
    vertices = vertex_family(vertices)
    d = family_dim(vertices)
    if k < 1:
        raise ValueError("sub-vertices need degree k >= 1")
    v0 = vertices[0]
    shrink = Fraction(k - 1, k)
    keep = Fraction(1, k)
    out = [v0]
    for i in range(1, d + 1):
        out.append(tuple(keep * v0[row] + shrink * vertices[i][row] for row in range(d)))
    return tuple(out)


def sub_nodes_coincide(vertices: VertexFamily, k: int) -> bool:
    """Degree-(k-1) nodes of the sub-vertices equal the inner degree-k nodes."""
    if k < 2:
        raise ValueError("the sub-node identity needs k >= 2")
    vertices = require_independent(vertices)
    inner = dict(lagrange_nodes(vertices, k))
    for alpha, pt in lagrange_nodes(sub_vertices(vertices, k), k - 1):
        if inner[alpha] != pt:
            return False
    return True


def nodes_are_reference_images(vertices: VertexFamily, k: int) -> bool:
    """Every node is the geometric-mapping image of its reference peer."""
    vertices = vertex_family(vertices)
    d = family_dim(vertices)
    forward = geometric_mapping(vertices)
    ref = dict(reference_nodes(d, k))
    return all(
        affine_apply(forward, ref[alpha]) == pt
        for alpha, pt in lagrange_nodes(vertices, k)
    )


def vandermonde_matrix(vertices: VertexFamily, k: int) -> Matrix:
    """Entry (row alpha, col beta) is the beta-monomial evaluated at node alpha.

    Rows and columns share the grsymlex flattening; the first column (the
    constant monomial) is all ones.
    """
    vertices = require_independent(vertices)
    d = family_dim(vertices)
    labels = node_labels(d, k)
    nodes = [pt for _, pt in lagrange_nodes(vertices, k)]
    rows = []
    for pt in nodes:
        # Power tables per coordinate keep each entry to d multiplications.
        powers = [[Fraction(1)] for _ in range(d)]
        for i in range(d):
            for _ in range(k):
                powers[i].append(powers[i][-1] * pt[i])
        row = []
        for beta in labels:
            value = Fraction(1)
            for i, e in enumerate(beta):
                if e:
                    value *= powers[i][e]
            row.append(value)
        rows.append(tuple(row))
    return tuple(rows)


def is_unisolvent(vertices: VertexFamily, k: int) -> bool:
    """True iff the vertices are independent and the node matrix is regular.

    Both always hold together on independent vertices; degenerate families
    return False rather than raising.
    """
    vertices = vertex_family(vertices)
    if not is_affinely_independent(vertices):
        return False
    return mat_det(vandermonde_matrix(vertices, k)) != 0


def shape_functions(vertices: VertexFamily, k: int) -> list[Polynomial]:
    """The polynomial basis dual to point evaluation at the nodes.

    theta_beta(a_alpha) = delta_{alpha beta}, built in closed form from the
    barycentric coordinates (see build_element).  The columns of the solution
    C of V C = I give the same basis as theta_beta = sum_gamma C[gamma][beta]
    X^gamma.
    """
    return build_element(vertices, k).shape_functions


def linear_form(vertices: VertexFamily, k: int, alpha, p: Polynomial) -> Fraction:
    """Evaluate p at the node labeled alpha."""
    vertices = vertex_family(vertices)
    d = family_dim(vertices)
    alpha = mi.check_index(alpha)
    if len(alpha) != d or mi.length(alpha) > k:
        raise ValueError("label is not a node label for this degree")
    if p.dim != d:
        raise ValueError("polynomial dimension does not match")
    nodes = dict(lagrange_nodes(vertices, k))
    return p.eval(nodes[alpha])


def nodes_on_hyperplane(vertices: VertexFamily, k: int, i: int) -> list[mi.MultiIndex]:
    """Labels of the nodes lying on the face hyperplane opposite v_i.

    For i = 0 these are the labels of full length k; for i >= 1 those whose
    i-th component vanishes.  Either way there are binomial(k+d-1, d-1).
    """
    vertices = require_independent(vertices)
    d = family_dim(vertices)
    if k < 1:
        raise ValueError("needs degree k >= 1")
    check_face_index(d, i)
    if i == 0:
        return [a for a in node_labels(d, k) if mi.length(a) == k]
    return [a for a in node_labels(d, k) if a[i - 1] == 0]


def hyperface_transport_consistent(vertices: VertexFamily, k: int, i: int) -> bool:
    """The hyperface mapping carries reference (d-1)-nodes onto face nodes.

    The reference node labeled alpha' lands on the node labeled
    extend_front(k, alpha') when i = 0, and insert_zero(i, alpha') otherwise.
    """
    vertices = require_independent(vertices)
    d = family_dim(vertices)
    if d < 2 or k < 1:
        raise ValueError("needs dimension >= 2 and degree >= 1")
    check_face_index(d, i)
    face = hyperface_mapping(vertices, i)
    nodes = dict(lagrange_nodes(vertices, k))
    for alpha, ref_pt in reference_nodes(d - 1, k):
        target = mi.extend_front(k, alpha) if i == 0 else mi.insert_zero(i, alpha)
        if affine_apply(face, ref_pt) != nodes[target]:
            return False
    return True


def _check_face_polynomial(d: int, k: int, i: int, p: Polynomial) -> None:
    """Reject a face index outside [0..d] and p outside the degree-k space in d variables."""
    check_face_index(d, i)
    if p.dim != d:
        raise ValueError("polynomial dimension does not match")
    deg = p.degree()
    if deg != NEG_INF and deg > k:
        raise ValueError("polynomial degree exceeds the stated bound")


def factor_on_hyperplane(
    vertices: VertexFamily, k: int, i: int, p: Polynomial
) -> Polynomial:
    """Divide out the barycentric factor from p vanishing on a face hyperplane.

    Returns q of degree <= k-1 with p = lambda_i * q, exactly.  The
    polynomial is pulled back through the cyclic-relabeling map so the face
    becomes the zero set of the last variable, split there, and pushed
    forward again; the head of the split must vanish identically, else
    NotVanishingError is raised.
    """
    vertices = require_independent(vertices)
    d = family_dim(vertices)
    if k < 1:
        raise ValueError("needs degree k >= 1")
    _check_face_polynomial(d, k, i, p)
    relabel = permutation_mapping(vertices, mi.cyclic_tuple(d, i))
    pulled = compose_affine(p, relabel)
    if d == 1:
        # One variable: the face is the single point with last coordinate 0,
        # so vanishing there just kills the constant term.
        head = pulled.coefficient((0,))
        quotient = Polynomial(
            1, {(e[0] - 1,): c for e, c in pulled.terms.items() if e[0] >= 1}
        )
        if head != 0:
            raise NotVanishingError("polynomial does not vanish on the face hyperplane")
    else:
        head_poly, quotient = divide_by_last_variable(pulled)
        if not head_poly.is_zero():
            raise NotVanishingError("polynomial does not vanish on the face hyperplane")
    return compose_affine(quotient, affine_inverse(relabel))


def face_unisolvence(vertices: VertexFamily, k: int, i: int, p: Polynomial) -> bool:
    """Whether p vanishes at every node on the face opposite v_i.

    The result is cross-checked against the pullback through the hyperface
    mapping being the zero polynomial; the two sides are equivalent, and a
    disagreement means a library bug, not bad input.
    """
    vertices = require_independent(vertices)
    d = family_dim(vertices)
    if d < 2 or k < 1:
        raise ValueError("needs dimension >= 2 and degree >= 1")
    _check_face_polynomial(d, k, i, p)
    nodes = dict(lagrange_nodes(vertices, k))
    node_side = all(
        p.eval(nodes[alpha]) == 0 for alpha in nodes_on_hyperplane(vertices, k, i)
    )
    poly_side = compose_affine(p, hyperface_mapping(vertices, i)).is_zero()
    if node_side != poly_side:
        raise AssertionError(
            "face-node vanishing and hyperplane vanishing disagree; "
            "this is an internal inconsistency"
        )
    return node_side


@dataclass(frozen=True)
class LagrangeElement:
    """Immutable bundle: simplex, degree, nodes, shape basis; the node matrix on demand."""

    vertices: VertexFamily
    degree: int
    node_index: tuple[mi.MultiIndex, ...]
    nodes: tuple[Point, ...]
    shape_functions: tuple[Polynomial, ...]

    @property
    def dim(self) -> int:
        return family_dim(self.vertices)

    @cached_property
    def vandermonde(self) -> Matrix:
        """The node-vs-monomial matrix, assembled on first access."""
        return vandermonde_matrix(self.vertices, self.degree)

    def node(self, alpha) -> Point:
        return self.nodes[self.node_index.index(tuple(alpha))]

    def shape(self, alpha) -> Polynomial:
        return self.shape_functions[self.node_index.index(tuple(alpha))]


def build_element(vertices: VertexFamily, k: int) -> LagrangeElement:
    """Construct the degree-k element on the given simplex.

    Affine independence is checked once, by barycentric_polynomials, before
    the degree (DegenerateSimplexError, also at k = 0 and k < 0).  Then the
    nodes and the shape functions are assembled, each a product of at most
    d+1 tabulated factors in the barycentric coordinates (_closed_form_basis);
    degree 0 gives the constant 1.  The only linear solve is the d x d
    inverse of the geometric map.
    """
    lams = barycentric_polynomials(vertices)
    vertices = vertex_family(vertices)
    labeled = lagrange_nodes(vertices, k)
    labels = tuple(alpha for alpha, _ in labeled)
    nodes = tuple(pt for _, pt in labeled)
    return LagrangeElement(vertices, k, labels, nodes, _closed_form_basis(lams, k, labels))


def _closed_form_basis(
    lams: list[Polynomial], k: int, labels: tuple[mi.MultiIndex, ...]
) -> tuple[Polynomial, ...]:
    """theta_alpha = prod_{i=0..d} prod_{j<a_i} (k lambda_i - j)/(j+1), a_0 = k - |alpha|.

    At the node labeled beta, k lambda_i takes the value b_i (b_0 = k - |beta|).
    The factor of vertex i is 1 where k lambda_i = a_i and 0 where it is one
    of 0..a_i-1; a node beta != alpha has b_i < a_i for some i, so theta_alpha
    is dual to the nodes (Silvester 1969; Nicolaides 1972).  The lambda_i come
    from geometry.barycentric_polynomials.
    """
    one = Polynomial.constant(lams[0].dim, 1)
    if k == 0:
        return (one,)
    # table[i][a] = prod_{j<a} (k lambda_i - j)/(j+1), the factor of vertex i.
    table = []
    for lam in lams:
        scaled = lam.scale(k)
        row = [one]
        for j in range(k):
            row.append((row[-1] * (scaled - j)).scale(Fraction(1, j + 1)))
        table.append(row)
    shapes = []
    for alpha in labels:
        theta = table[0][k - mi.length(alpha)]
        for i, a in enumerate(alpha, 1):
            if a:
                theta = theta * table[i][a]
        shapes.append(theta)
    return tuple(shapes)


def nodes_to_json_dict(vertices: VertexFamily, k: int, labeled) -> dict:
    """JSON form of the (label, point) node pairs of the degree-k element."""
    return {
        "d": family_dim(vertices),
        "k": k,
        "vertices": vertex_family_to_json_dict(vertices)["vertices"],
        "nodes": [{"alpha": list(alpha), "point": point_to_json(pt)} for alpha, pt in labeled],
    }


def nodes_to_csv(d: int, labeled) -> str:
    """Node table with columns alpha_1..alpha_d, x_1..x_d (rational strings)."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow([f"alpha_{i + 1}" for i in range(d)] + [f"x_{i + 1}" for i in range(d)])
    for alpha, pt in labeled:
        writer.writerow([str(a) for a in alpha] + [rat_str(x) for x in pt])
    return buf.getvalue()


def element_to_json_dict(elem: LagrangeElement) -> dict:
    data = nodes_to_json_dict(elem.vertices, elem.degree, zip(elem.node_index, elem.nodes))
    data["shape_functions"] = [polynomial_to_json_dict(s) for s in elem.shape_functions]
    return data


def element_nodes_csv(elem: LagrangeElement) -> str:
    """Node table with columns alpha_1..alpha_d, x_1..x_d (rational strings)."""
    return nodes_to_csv(elem.dim, zip(elem.node_index, elem.nodes))
