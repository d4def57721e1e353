"""Spherical toolbox: vertex figures, nice/skew triangles, polar duality and
the ten-normals certificates.

A vertex figure of a simple 3-polytope vertex is the spherical triangle of
its unit edge directions; its side lengths are the planar angles of the
incident facets and its angles are the dihedral angles along the incident
edges.  A triangle is *nice* when some interior point projects onto all
three sides and stays within distance pi/2 of all three vertices; a simple
polytope with a nice vertex has at least 10 concurrent normals from a point
near that vertex.

Each triangle is measured once, when it is built: its three sides, and its
three angles from the unit tangents at its vertices, each in one row-wise
pass.  The vertex-local quantities are read from what the polytope already
holds: a vertex figure's directions are the vertex's rows of
``Polytope._region_rows``, :func:`local_critical_test` reads the same table
for the faces at the vertex, and :func:`acute_census` reads the angles and
sides of the vertex figures.

Every witness condition is linear in the witness: X must satisfy
<X, h> > 0 for twelve fixed unit vectors h (three triangle sides, six
projection hemispheres, three distance hemispheres).  The min-margin score
is therefore maximized either at one of the h, or where two or three margins
tie, so a closed-form candidate enumeration finds the global optimum.  The
enumeration is one array pass per triangle over fixed pair and triple index
tables of the twelve rows: at most 12 + 66 + 2 * 220 = 518 candidates, scored
by one product with the rows.
:func:`classify` is the one route the rest of the package takes: the
side/angle lemma, or this witness search when the lemma is borderline.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, permutations

import numpy as np
from numpy.random import default_rng

from .bifurcation import CHAMBER_EPS, _line_intervals, _line_tol, _pieces
from .errors import Borderline, NonSimpleVertex, NotGeneric, NotSimple, ValidationError
from .geometry import _cross, contains_interior, right_angle_defect, unit
from .normals import _random_unit

RIGHT = np.pi / 2
WITNESS_MARGIN = 1e-7   # best witness margin needed for a nice verdict
BORDERLINE_BAND = 1e-6  # |margin| below this marks a definition verdict borderline
LEMMA_TOL = 1e-9        # lemma quantities this close to pi/2 raise Borderline
RIGHT_ANGLE_TOL = 1e-9  # dihedral/planar angles this close to pi/2 are not generic


def _arcs(x, y):
    """Row-wise geodesic distances between unit vectors, robust near 0 and pi."""
    n = _cross(x, y)
    return np.arctan2(np.sqrt(n[:, None, :] @ n[:, :, None]), x[:, None, :] @ y[:, :, None])[:, 0, 0]


def _tangents(x, toward):
    """Row-wise unit tangents at x along the great circles toward other points."""
    t = toward - (x[:, None, :] @ toward[:, :, None])[:, 0] * x
    n = np.sqrt(t[:, None, :] @ t[:, :, None])[:, 0]
    if (n < 1e-14).any():
        raise ValidationError("tangent undefined for coincident or antipodal points")
    return t / n


def spherical_distance(x, y):
    """Geodesic distance between unit vectors, robust near 0 and pi."""
    x, y = np.asarray(x, float), np.asarray(y, float)
    return float(_arcs(x[None], y[None])[0])


class SphericalTriangle:
    """Triangle with geodesic edges inside an open hemisphere.

    ``verts`` rows are the vertices A, B, C.  ``sides[k]`` is the length of
    the side opposite vertex k; ``angles[k]`` the interior angle at vertex k;
    both are measured once, at construction.  When built from a polytope
    vertex, ``edge_ids[k]`` is the polytope edge giving triangle vertex k and
    ``facet_ids[k]`` the facet carrying the opposite side.
    """

    __slots__ = ("verts", "edge_ids", "facet_ids", "sides", "angles")

    def __init__(self, a, b, c, edge_ids=None, facet_ids=None):
        verts = np.array([unit(a), unit(b), unit(c)], dtype=float)
        if abs(np.linalg.det(verts)) < 1e-12:
            raise ValidationError("spherical triangle is degenerate (coplanar with origin)")
        self.verts = verts
        self.edge_ids = edge_ids
        self.facet_ids = facet_ids
        nxt, prv = verts[[1, 2, 0]], verts[[2, 0, 1]]
        self.sides = _arcs(nxt, prv)
        self.angles = _arcs(_tangents(verts, nxt), _tangents(verts, prv))

    def side_between(self, i, j):
        return self.sides[3 - i - j]

    def solid_angle(self):
        """Spherical excess, i.e. the area of the triangle."""
        return float(self.angles.sum() - np.pi)

    def __repr__(self):
        s = np.round(self.sides, 4)
        return f"SphericalTriangle(sides={list(s)})"


def vertex_figure(P, v):
    """Spherical triangle cut by a small sphere at a simple vertex.

    Triangle vertex k is the unit direction of the k-th incident edge, the
    vertex's k-th region row (``Polytope._region_rows``); the side between
    two edge directions lies in their common facet.
    """
    if P.dim != 3:
        raise ValidationError("vertex figures need a 3-polytope")
    edges = P.vertex_edges[v]
    if len(edges) != 3:
        raise NonSimpleVertex(f"vertex {v} has {len(edges)} incident edges")
    T = P._region_rows
    face = len(T.dims) - P.n_vertices + v  # vertices come last
    dirs = T.G[T.starts[face]:T.starts[face + 1]]
    facet_ids = []
    for k in range(3):
        e1, e2 = edges[(k + 1) % 3], edges[(k + 2) % 3]
        common = set(P.edge_facets[e1]) & set(P.edge_facets[e2])
        if len(common) != 1:
            raise ValidationError(f"edges {e1},{e2} at vertex {v} share {len(common)} facets")
        facet_ids.append(common.pop())
    return SphericalTriangle(*dirs, edge_ids=tuple(int(e) for e in edges),
                             facet_ids=tuple(int(f) for f in facet_ids))


def spherical_project(x, y, z):
    """Foot of the spherical perpendicular from x onto the arc yz, or None.

    The three points must fit in an open hemisphere.  When x is the pole of
    the arc's great circle every arc point is equidistant (pi/2); the arc
    midpoint is returned.
    """
    x, y, z = unit(x), unit(y), unit(z)
    g = unit(_cross(y, z))
    w = x - float(x @ g) * g
    nw = np.linalg.norm(w)
    if nw < 1e-12:
        return unit(y + z)
    w /= nw
    return w if _on_arc(w, y, z) else None


def _on_arc(p, y, z):
    """Whether p, in the great-circle plane of y and z, is a nonnegative
    combination of them (within 1e-12): the 2x2 solve in the (y, z) basis."""
    gram = np.array([[1.0, float(y @ z)], [float(y @ z), 1.0]])
    ab = np.linalg.solve(gram, np.array([float(p @ y), float(p @ z)]))
    return bool((ab >= -1e-12).all())


def witness_constraints(tri):
    """Unit vectors h with <X, h> > 0 iff X is a valid nice-vertex witness.

    Rows: the three interior side poles, then per side k the two projection
    rows (beyond the perpendicular at its first endpoint, before the one at
    its second), then the three vertices (distance below pi/2).
    """
    v = tri.verts
    y, z = v[[1, 2, 0]], v[[2, 0, 1]]
    g = _cross(y, z)
    g /= np.linalg.norm(g, axis=1)[:, None]
    inward = np.where(np.einsum("ij,ij->i", g, v) > 0, 1.0, -1.0)[:, None] * g
    projection = np.stack([_cross(g, y), _cross(z, g)], axis=1).reshape(6, 3)
    return np.vstack([inward, projection, v])


@lru_cache(maxsize=None)
def _candidate_index(n):
    """Pair and triple row indices of n witness rows, in combinations order."""
    pairs = np.array(list(combinations(range(n), 2))).T
    triples = np.array(list(combinations(range(n), 3))).T
    return pairs, triples


def _best_witness_enumeration(H):
    """Global maximum of min_h <X, h> by closed-form candidate enumeration.

    Candidates, in order: the rows of H, the normalised sums of row pairs,
    and for each row triple both unit normals (+c, -c) of the plane through
    the three rows; the argmax breaks ties toward the earliest candidate.
    """
    (i, j), (a, b, c) = _candidate_index(len(H))
    s = H[i] + H[j]
    ns = np.linalg.norm(s, axis=1)
    keep = ns > 1e-9
    s = s[keep] / ns[keep, None]
    t = _cross(H[a] - H[b], H[b] - H[c])
    nt = np.linalg.norm(t, axis=1)
    keep = nt > 1e-9
    t = t[keep] / nt[keep, None]
    X = np.vstack([H, s, np.stack([t, -t], axis=1).reshape(-1, 3)])
    scores = (X @ H.T).min(axis=1)
    best = int(np.argmax(scores))
    return float(scores[best]), X[best]


@dataclass
class VertexClassification:
    """Nice/skew verdict with its witness or its satisfied condition table."""

    verdict: str
    witness: np.ndarray | None = None
    borderline: bool = False
    score: float | None = None
    conditions: tuple | None = None

    @property
    def is_nice(self):
        return self.verdict == "nice"


def classify_by_definition(tri):
    """Search the triangle interior for a nice-vertex witness.

    The candidate enumeration gives the best witness margin, the maximum
    over X of min_h <X, h>; the verdict is nice iff it clears
    ``WITNESS_MARGIN`` and borderline when it lies within
    ``BORDERLINE_BAND`` of zero.
    """
    score, x = _best_witness_enumeration(witness_constraints(tri))
    verdict = "nice" if score >= WITNESS_MARGIN else "skew"
    return VertexClassification(
        verdict=verdict,
        witness=x if verdict == "nice" else None,
        borderline=abs(score) < BORDERLINE_BAND,
        score=score,
    )


def _foot_of_right_angle(tri, a, b, c):
    """Z on arc (a->c) with the arc ZB orthogonal to BC at B, or None."""
    v = tri.verts
    t_bc = _tangents(v[b][None], v[c][None])[0]
    g_ac = _cross(v[a], v[c])
    n = np.linalg.norm(g_ac)
    if n < 1e-12:
        return None
    g_ac /= n
    z = _cross(t_bc, g_ac)
    nz = np.linalg.norm(z)
    if nz < 1e-12:
        return None
    z /= nz
    for cand in (z, -z):
        if _on_arc(cand, v[a], v[c]):
            return cand
    return None


def classify_by_lemma(tri):
    """Skew iff some relabeling satisfies all seven side/angle conditions.

    Raises Borderline when any compared quantity sits within
    ``LEMMA_TOL`` of its pi/2 threshold.
    """
    sides_ok = np.abs(tri.sides - RIGHT)
    angles_ok = np.abs(tri.angles - RIGHT)
    if sides_ok.min() < LEMMA_TOL or angles_ok.min() < LEMMA_TOL:
        raise Borderline("a side or angle is within tolerance of pi/2")
    table = []
    skew_found = False
    for perm in permutations(range(3)):
        a, b, c = perm
        conds = [
            bool(tri.side_between(c, a) > RIGHT),
            bool(tri.side_between(b, c) < RIGHT),
            bool(tri.angles[b] > RIGHT),
            bool(tri.angles[a] < RIGHT),
            bool(tri.angles[c] < RIGHT),
            bool(tri.side_between(b, a) > RIGHT),
        ]
        if all(conds):
            z = _foot_of_right_angle(tri, a, b, c)
            if z is None:
                conds.append(False)
            else:
                az = float(tri.verts[a] @ z)
                if abs(az) < LEMMA_TOL:
                    raise Borderline("|AZ| is within tolerance of pi/2")
                conds.append(bool(az < 0.0))
        else:
            conds.append(False)
        table.append((perm, tuple(conds)))
        if all(conds):
            skew_found = True
    return VertexClassification(verdict="skew" if skew_found else "nice",
                                conditions=tuple(table))


def classify(tri):
    """Nice/skew verdict by the lemma, or by the definition when the lemma
    raises Borderline (the returned verdict may then be borderline too)."""
    try:
        return classify_by_lemma(tri)
    except Borderline:
        return classify_by_definition(tri)


def polar_dual_triangle(tri):
    """Triangle of the inward side poles (``witness_constraints``); swaps sides and
    angles as a <-> pi - a'."""
    return SphericalTriangle(*witness_constraints(tri)[:3])


@dataclass(frozen=True)
class LocalCriticalReport:
    """Which faces at a vertex carry critical points for nearby ray points."""

    is_max: bool
    saddle_edges: tuple
    min_facets: tuple


def local_critical_test(P, v, direction):
    """Critical faces at vertex v for points y = v + t * direction, t small.

    A face of v carries a critical point of the squared distance from y
    exactly when y lies in its active region: each of the face's rows in
    ``Polytope._region_rows`` that vanishes at v (within the chamber eps,
    CHAMBER_EPS times ``P.tol_scale``) must grow along the direction.  The
    vertex itself is then a maximum, an incident edge a saddle and an
    incident facet a minimum; edges are listed in ``edge_ids`` order, facets
    in ``facet_ids`` order.
    """
    fig = vertex_figure(P, v)
    d = unit(np.asarray(direction, dtype=float))
    T = P._region_rows
    at_v = T.G @ P.vertices[v] - T.c <= CHAMBER_EPS * P.tol_scale
    critical = np.logical_and.reduceat(~at_v | (T.G @ d > 0.0), T.starts[:-1])
    return LocalCriticalReport(bool(critical[len(T.dims) - P.n_vertices + v]),
                               tuple(e for e in fig.edge_ids if critical[P.n_facets + e]),
                               tuple(f for f in fig.facet_ids if critical[f]))


def _require_simple_generic(P):
    if P.dim != 3 or not P.is_simple():
        raise NotSimple("polytope has a non-simple vertex")
    defect = right_angle_defect(P, RIGHT_ANGLE_TOL)
    if defect is not None:
        raise NotGeneric(defect)


def ten_normals_certificate(P):
    """First nice vertex of a simple generic polytope, or None.

    A nice vertex certifies that the maximum concurrent-normal count is at
    least 10 (checked against the chamber maximum in the test suite).
    """
    _require_simple_generic(P)
    for v in range(P.n_vertices):
        verdict = classify(vertex_figure(P, v))
        if verdict.is_nice and not verdict.borderline:
            return v
    return None


@dataclass(frozen=True)
class VertexCensus:
    """Acute-angle bookkeeping at one vertex."""

    vertex: int
    acute_dihedral_edges: tuple
    acute_planar_facets: tuple
    acute_planar_between_acute_dihedrals: tuple

    def compatible_with_low_max(self):
        """Necessary pattern at this vertex when the maximum count is below 10:
        exactly two acute dihedral angles, exactly one acute planar angle, and
        that angle not spanned by the two acute-dihedral edges."""
        return (len(self.acute_dihedral_edges) == 2
                and len(self.acute_planar_facets) == 1
                and not self.acute_planar_between_acute_dihedrals[0])


def acute_census(P):
    """Per-vertex counts of acute dihedral and planar angles (simple P).

    Read from the vertex figures: angle k is the dihedral angle along edge k,
    side k the planar angle of the facet spanned by the other two edges.
    """
    _require_simple_generic(P)
    out = []
    for v in range(P.n_vertices):
        fig = vertex_figure(P, v)
        acute = fig.angles < RIGHT
        facets = sorted((f, bool(acute.sum() == 2 and not acute[k]))
                        for k, f in enumerate(fig.facet_ids) if fig.sides[k] < RIGHT)
        out.append(VertexCensus(v, tuple(e for e, a in zip(fig.edge_ids, acute) if a),
                                tuple(f for f, _ in facets), tuple(b for _, b in facets)))
    return out


def normal_fan_tiling(P):
    """Spherical tiles of the outer normal fan and whether all are skew.

    Each tile is the triangle of the three outward facet normals at a vertex,
    congruent (antipodally) to the polar dual of the vertex figure.  An
    all-skew tiling is necessary for the maximum count to fall below 10.
    """
    if P.dim != 3 or not P.is_simple():
        raise NotSimple("normal fan tiling needs a simple 3-polytope")
    tiles = []
    all_skew = True
    for v in range(P.n_vertices):
        fs = P.vertex_facets[v]
        tri = SphericalTriangle(*(P.facet_normals[f] for f in fs))
        tiles.append(tri)
        if classify(tri).is_nice:
            all_skew = False
    return tiles, all_skew


def shell_ratio_check(P, center=None):
    """r_out / r_in for spheres about ``center`` sandwiching the boundary.

    A ratio at most sqrt(2) rules out acute dihedral angles, which forces the
    maximum normal count to 10 or more on simple generic polytopes.
    """
    if center is None:
        center = P.centroid
    center = np.asarray(center, dtype=float)
    if not contains_interior(P, center):
        raise ValidationError("center must be interior")
    r_in = float((P.facet_offsets - P.facet_normals @ center).min())
    r_out = float(np.linalg.norm(P.vertices - center, axis=1).max())
    return r_out / r_in


def random_hemispheric_triangle(rng=None, right_angle_gap=1e-4, min_det=1e-3):
    """Random triangle in an open hemisphere, rejecting near-right sides/angles."""
    rng = default_rng() if rng is None else rng
    while True:
        pole = _random_unit(rng, 3)
        pts = []
        while len(pts) < 3:
            x = _random_unit(rng, 3)
            if float(x @ pole) > 0.05:
                pts.append(x)
        try:
            tri = SphericalTriangle(*pts)
        except ValidationError:
            continue
        if abs(np.linalg.det(tri.verts)) < min_det:
            continue
        if (np.abs(tri.sides - RIGHT).min() < right_angle_gap
                or np.abs(tri.angles - RIGHT).min() < right_angle_gap):
            continue
        return tri


def ray_scan_counts(P, v, direction):
    """Exact normal counts on the pieces of a ray from vertex v through P.

    Pieces end where the ray enters or leaves an active region (ends within
    tolerance merged), so their maximum is a certified lower bound for N(P).
    """
    origin, d = P.vertices[v], unit(np.asarray(direction, dtype=float))
    dn = P.facet_normals @ d
    ahead = dn > 1e-14
    t_exit = ((P.facet_offsets - P.facet_normals @ origin)[ahead] / dn[ahead]).min(initial=np.inf)
    tol = _line_tol(P)
    # with its midpoint interior, the whole open segment from v to the exit is
    if not (np.isfinite(t_exit) and contains_interior(P, origin + 0.5 * t_exit * d, tol)):
        return np.array([], dtype=int)
    return _pieces(*_line_intervals(P, origin, d), t_exit, tol)[1].sum(axis=1)
