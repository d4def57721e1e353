"""Spherical toolbox: vertex figures, nice/skew triangles, polar duality and
the ten-normals certificates.

A vertex figure of a simple 3-polytope vertex is the spherical triangle of
its unit edge directions; its side lengths are the planar angles of the
incident facets and its angles are the dihedral angles along the incident
edges.  A triangle is *nice* when some interior point projects onto all
three sides and stays within distance pi/2 of all three vertices; a simple
polytope with a nice vertex has at least 10 concurrent normals from a point
near that vertex.

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

from .errors import Borderline, NonSimpleVertex, NotGeneric, NotSimple, ValidationError
from .geometry import contains_interior, dihedral_angle, planar_angle, right_angle_defect, unit
from .normals import _random_unit

RIGHT = np.pi / 2
WITNESS_MARGIN = 1e-7   # best witness margin needed for a nice verdict
BORDERLINE_BAND = 1e-6  # |margin| below this marks a definition verdict borderline
LEMMA_TOL = 1e-9        # lemma quantities this close to pi/2 raise Borderline
RIGHT_ANGLE_TOL = 1e-9  # dihedral/planar angles this close to pi/2 are not generic


def spherical_distance(x, y):
    """Geodesic distance between unit vectors, robust near 0 and pi."""
    x, y = np.asarray(x, float), np.asarray(y, float)
    return float(np.arctan2(np.linalg.norm(np.cross(x, y)), float(x @ y)))


def _tangent(x, toward):
    """Unit tangent at x along the great circle toward another point."""
    t = toward - float(x @ toward) * x
    n = np.linalg.norm(t)
    if n < 1e-14:
        raise ValidationError("tangent undefined for coincident or antipodal points")
    return t / n


class SphericalTriangle:
    """Triangle with geodesic edges inside an open hemisphere.

    ``verts`` rows are the vertices A, B, C.  ``sides[k]`` is the length of
    the side opposite vertex k; ``angles[k]`` the interior angle at vertex k.
    When built from a polytope vertex, ``edge_ids[k]`` is the polytope edge
    giving triangle vertex k and ``facet_ids[k]`` the facet carrying the
    opposite side.
    """

    __slots__ = ("verts", "edge_ids", "facet_ids", "_sides", "_angles")

    def __init__(self, a, b, c, edge_ids=None, facet_ids=None):
        verts = np.array([unit(a), unit(b), unit(c)], dtype=float)
        if abs(np.linalg.det(verts)) < 1e-12:
            raise ValidationError("spherical triangle is degenerate (coplanar with origin)")
        self.verts = verts
        self.edge_ids = edge_ids
        self.facet_ids = facet_ids
        self._sides = None
        self._angles = None

    @property
    def sides(self):
        if self._sides is None:
            v = self.verts
            self._sides = np.array([spherical_distance(v[(k + 1) % 3], v[(k + 2) % 3])
                                    for k in range(3)])
        return self._sides

    @property
    def angles(self):
        if self._angles is None:
            v = self.verts
            out = []
            for k in range(3):
                t1 = _tangent(v[k], v[(k + 1) % 3])
                t2 = _tangent(v[k], v[(k + 2) % 3])
                out.append(float(np.arctan2(np.linalg.norm(np.cross(t1, t2)),
                                            float(t1 @ t2))))
            self._angles = np.array(out)
        return self._angles

    def side_between(self, i, j):
        return self.sides[3 - i - j]

    def solid_angle(self):
        """Spherical excess, i.e. the area of the triangle."""
        return float(self.angles.sum() - np.pi)

    def __repr__(self):
        s = np.round(self.sides, 4)
        return f"SphericalTriangle(sides={list(s)})"


def _interior_normal(verts, k):
    """Unit pole of the side opposite vertex k, on the triangle's side."""
    i, j = (k + 1) % 3, (k + 2) % 3
    g = unit(np.cross(verts[i], verts[j]))
    return g if float(g @ verts[k]) > 0 else -g


def vertex_figure(P, v):
    """Spherical triangle cut by a small sphere at a simple vertex.

    Triangle vertex k is the unit direction of the k-th incident edge;
    the side between two edge directions lies in their common facet.
    """
    if P.dim != 3:
        raise ValidationError("vertex figures need a 3-polytope")
    edges = P.vertex_edges[v]
    if len(edges) != 3:
        raise NonSimpleVertex(f"vertex {v} has {len(edges)} incident edges")
    dirs = []
    for e in edges:
        a, b = P.edges[e]
        other = b if a == v else a
        dirs.append(unit(P.vertices[other] - P.vertices[v]))
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
    g = unit(np.cross(y, z))
    w = x - float(x @ g) * g
    nw = np.linalg.norm(w)
    if nw < 1e-12:
        return unit(y + z)
    w /= nw
    # decompose the foot in the (y, z) basis of the great-circle plane
    gram = np.array([[1.0, float(y @ z)], [float(y @ z), 1.0]])
    ab = np.linalg.solve(gram, np.array([float(w @ y), float(w @ z)]))
    if ab[0] < -1e-12 or ab[1] < -1e-12:
        return None
    return w


def witness_constraints(tri):
    """Unit vectors h with <X, h> > 0 iff X is a valid nice-vertex witness.

    Rows: the three interior side poles, then per side k the two projection
    rows (beyond the perpendicular at its first endpoint, before the one at
    its second), then the three vertices (distance below pi/2).
    """
    v = tri.verts
    y, z = v[[1, 2, 0]], v[[2, 0, 1]]
    g = np.cross(y, z)
    g /= np.linalg.norm(g, axis=1)[:, None]
    inward = np.where(np.einsum("ij,ij->i", g, v) > 0, 1.0, -1.0)[:, None] * g
    projection = np.stack([np.cross(g, y), np.cross(z, g)], axis=1).reshape(6, 3)
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
    t = np.cross(H[a] - H[b], H[b] - H[c])
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
    t_bc = _tangent(v[b], v[c])
    g_ac = np.cross(v[a], v[c])
    n = np.linalg.norm(g_ac)
    if n < 1e-12:
        return None
    g_ac /= n
    z = np.cross(t_bc, g_ac)
    nz = np.linalg.norm(z)
    if nz < 1e-12:
        return None
    z /= nz
    for cand in (z, -z):
        gram = np.array([[1.0, float(v[a] @ v[c])], [float(v[a] @ v[c]), 1.0]])
        ab = np.linalg.solve(gram, np.array([float(cand @ v[a]), float(cand @ v[c])]))
        if ab[0] >= -1e-12 and ab[1] >= -1e-12:
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
    """Triangle of the side poles; swaps sides and angles as a <-> pi - a'."""
    v = tri.verts
    duals = []
    for k in range(3):
        duals.append(_interior_normal(v, k))
    return SphericalTriangle(*duals)


@dataclass(frozen=True)
class LocalCriticalReport:
    """Which faces at a vertex carry critical points for nearby ray points."""

    is_max: bool
    saddle_edges: tuple
    min_facets: tuple


def local_critical_test(P, v, direction):
    """Critical faces at vertex v for points y = v + t * direction, t small.

    The vertex is a maximum iff the mapped direction Y stays within pi/2 of
    all triangle vertices; an incident edge carries a saddle iff its triangle
    vertex is a boundary-local maximum of the distance to Y (still below
    pi/2); an incident facet carries a minimum iff Y projects onto its side
    at distance below pi/2.
    """
    fig = vertex_figure(P, v)
    y = unit(np.asarray(direction, dtype=float))
    tv = fig.verts
    is_max = bool((tv @ y > 0.0).all())
    saddle_edges = []
    for k in range(3):
        t1 = _tangent(tv[k], tv[(k + 1) % 3])
        t2 = _tangent(tv[k], tv[(k + 2) % 3])
        boundary_max = float(y @ t1) > 0.0 and float(y @ t2) > 0.0
        if boundary_max and float(tv[k] @ y) > 0.0:
            saddle_edges.append(fig.edge_ids[k])
    min_facets = []
    for k in range(3):
        foot = spherical_project(y, tv[(k + 1) % 3], tv[(k + 2) % 3])
        if foot is not None and float(foot @ y) > 0.0:
            min_facets.append(fig.facet_ids[k])
    return LocalCriticalReport(is_max, tuple(saddle_edges), tuple(min_facets))


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
    """Per-vertex counts of acute dihedral and planar angles (simple P)."""
    _require_simple_generic(P)
    out = []
    for v in range(P.n_vertices):
        acute_edges = tuple(int(e) for e in P.vertex_edges[v]
                            if dihedral_angle(P, int(e)) < RIGHT)
        acute_facets = []
        between = []
        for f in P.vertex_facets[v]:
            if planar_angle(P, int(f), v) >= RIGHT:
                continue
            acute_facets.append(int(f))
            spanning = {int(e) for e in P.vertex_edges[v]
                        if int(f) in P.edge_facets[int(e)]}
            between.append(spanning == set(acute_edges))
        out.append(VertexCensus(v, acute_edges, tuple(acute_facets), tuple(between)))
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
    if not contains_interior(P, center, tol=P.tol * max(1.0, P.diameter)):
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
    from .bifurcation import _line_intervals, _pieces

    origin, d = P.vertices[v], unit(np.asarray(direction, dtype=float))
    dn = P.facet_normals @ d
    ahead = dn > 1e-14
    t_exit = ((P.facet_offsets - P.facet_normals @ origin)[ahead] / dn[ahead]).min(initial=np.inf)
    tol = max(P.tol, 1e-12) * max(1.0, P.diameter)
    # with its midpoint interior, the whole open segment from v to the exit is
    if not (np.isfinite(t_exit)
            and (P.facet_normals @ (origin + 0.5 * t_exit * d) <= P.facet_offsets - tol).all()):
        return np.array([], dtype=int)
    return _pieces(*_line_intervals(P, origin, d), t_exit, tol)[1].sum(axis=1)
