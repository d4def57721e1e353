"""Convex polytopes in 2-D and 3-D: hulls, face lattices, inner normal cones,
angles and inscribed spheres.

The face lattice is held as arrays: edges with their facets, each vertex's
edges, facets and unit edge directions, each edge's frame and cone rows.
Those arrays feed the region-row table, the volume and the centroid;
``Face`` objects are built from them on first use of ``Polytope.faces``.

Coordinates are double precision.  A single tolerance (default 1e-9, applied
relative to the body diameter wherever it guards an incidence test) rejects
near-degenerate input instead of resolving it exactly.
"""

from __future__ import annotations

from functools import cached_property
from typing import NamedTuple

import numpy as np
from numpy.random import default_rng
from scipy.spatial import ConvexHull, HalfspaceIntersection, QhullError

from .errors import (
    DegenerateInput,
    Empty,
    InvariantViolation,
    Unbounded,
    ValidationError,
)

DEFAULT_TOL = 1e-9
MERGE_ANGLE = 1e-7  # radians; hull triangles closer than this in normal direction merge


def unit(v):
    """Normalize a vector, rejecting zero input."""
    v = np.asarray(v, dtype=float)
    n = np.linalg.norm(v)
    if n == 0.0:
        raise ValueError("cannot normalize zero vector")
    return v / n


def _unit_rows(X):
    """The rows of X (over any leading axes) normalized like :func:`unit`, bit for bit."""
    n = np.sqrt(X[..., None, :] @ X[..., :, None])[..., 0]
    if not n.all():
        raise ValueError("cannot normalize zero vector")
    return X / n


class Face:
    """One face of a polytope: a vertex (dim 0), an edge (dim 1) or a facet.

    ``cone_generators`` are the extreme rays of the inner normal cone: the
    negated outward normals of every facet containing the face.
    ``cone_support`` holds the dual description: unit vectors h with
    <h, x> >= 0 for every x in the cone (edge directions for a vertex cone).
    """

    __slots__ = ("dim", "index", "vertex_ids", "affine_point", "cone_generators", "cone_support")

    def __init__(self, dim, index, vertex_ids, affine_point, cone_generators, cone_support):
        self.dim = dim
        self.index = index
        self.vertex_ids = vertex_ids
        self.affine_point = affine_point
        self.cone_generators = cone_generators
        self.cone_support = cone_support

    @property
    def key(self):
        return (self.dim, self.index)

    def __repr__(self):
        return f"Face(dim={self.dim}, index={self.index}, vertices={list(self.vertex_ids)})"


class RegionRows(NamedTuple):
    """Every face's active region as rows; faces are ordered facets, edges (3-D), vertices.

    y lies in the region of face i exactly when ``G[j] @ y > c[j]`` for every
    j in ``starts[i]:starts[i + 1]``; ``dims[i]`` is the face's dimension.
    The rows are the face tests without their positive normalisations (the
    per-face fixed divisor is ``scale``: facet diameter, edge length, 1).
    ``K`` has the rows ``(g, -c)`` for ``K @ [y, 1]``, laid out for
    counting, every row once: one run per row count k among the facets and
    vertices, holding row r of each of its faces in block r; ``runs`` lists
    (k, faces) with faces indexed facets first, then vertices.  The edges'
    four rows follow the same way, then two frame rows per edge orthogonal
    to it.
    """

    G: np.ndarray
    c: np.ndarray
    starts: np.ndarray
    dims: np.ndarray
    K: np.ndarray
    runs: tuple
    scale: np.ndarray


class Polytope:
    """Immutable convex polytope with a complete face lattice.

    Built through :func:`hull_from_points` or :func:`polytope_from_halfspaces`.
    Facets satisfy <n, x> <= b with outward unit normal n.  The lattice is
    kept as arrays (``edges``, ``edge_facets``, ``vertex_edges``,
    ``vertex_facets``, the vertex and edge rows); ``faces`` builds the
    ``Face`` objects from them the first time it is read.  For ``dim == 2``
    the facets are the edges of the polygon and the face lattice has
    dimensions 0 and 1 only; edge-specific queries (dihedral angles, vertex
    figures) are 3-D only and raise on polygons.
    """

    def __init__(self, vertices, facet_normals, facet_offsets, facet_cycles, tol=DEFAULT_TOL):
        self.tol = float(tol)
        self.vertices = np.array(vertices, dtype=float)
        self.dim = self.vertices.shape[1]
        self.facet_normals = np.array(facet_normals, dtype=float)
        self.facet_offsets = np.array(facet_offsets, dtype=float)
        self.facet_cycles = [np.array(c, dtype=int) for c in facet_cycles]
        D = self.vertices[:, None, :] - self.vertices[None, :, :]
        self.diameter = float(np.sqrt((D[..., None, :] @ D[..., :, None]).max()))
        self._validate_basic()
        self._build_edges()
        self._check_lattice()
        self._build_rows()
        self.volume, self.centroid = self._volume_centroid()
        for arr in (self.vertices, self.facet_normals, self.facet_offsets, self.edges):
            arr.setflags(write=False)

    # -- construction ------------------------------------------------------

    def _validate_basic(self):
        norms = np.linalg.norm(self.facet_normals, axis=1)
        if np.any(np.abs(norms - 1.0) > 1e-12):
            raise InvariantViolation("outward normals must have unit length within 1e-12")
        slack = self.vertices @ self.facet_normals.T - self.facet_offsets
        if slack.max() > self.tol * max(1.0, self.diameter):
            raise InvariantViolation("vertex violates a facet inequality beyond tolerance")

    def _build_edges(self):
        """Edges as sorted vertex pairs with their two facets (a polygon's facets are
        its edges, both views sharing indices), and each vertex's edges and facets
        in index order."""
        cycles, nv = self.facet_cycles, len(self.vertices)
        ids = np.concatenate(cycles)
        facet = np.repeat(np.arange(len(cycles)), [len(cycle) for cycle in cycles])
        self._cycle_next = np.concatenate([np.roll(c, -1) for c in cycles])  # successor in its cycle
        if self.dim == 3:
            pairs = np.sort(np.column_stack([ids, self._cycle_next]))
            order = np.lexsort(pairs.T[::-1])
            pairs, facet2 = pairs[order], facet[order]
            head = np.flatnonzero(np.r_[True, (pairs[1:] != pairs[:-1]).any(axis=1)])
            count = np.diff(np.append(head, len(pairs)))
            if (count != 2).any():
                k = np.flatnonzero(count != 2)[0]
                raise InvariantViolation(f"edge {tuple(pairs[head[k]].tolist())} has {count[k]} "
                                         "incident facets, expected 2")
            self.edges, self.edge_facets = pairs[head], facet2.reshape(-1, 2)
        else:
            self.edges = np.array([c[:2] for c in cycles], dtype=int)
            self.edge_facets = np.repeat(np.arange(len(cycles)), 2).reshape(-1, 2)
        ends = self.edges.ravel()
        self.vertex_edges = np.split(np.argsort(ends, kind="stable") // 2,
                                     np.cumsum(np.bincount(ends, minlength=nv))[:-1])
        self.vertex_facets = np.split(facet[np.argsort(ids, kind="stable")],
                                      np.cumsum(np.bincount(ids, minlength=nv))[:-1])

    def _check_lattice(self):
        if self.dim == 3:
            v, e, f = len(self.vertices), len(self.edges), len(self.facet_cycles)
            if v - e + f != 2:
                raise InvariantViolation(f"Euler formula V - E + F = 2 failed: {v} - {e} + {f}")
        cycles = self.facet_cycles
        rims = np.array([len(cycle) for cycle in cycles])
        rank = np.empty(len(cycles), dtype=int)
        for k in np.unique(rims):
            f = np.flatnonzero(rims == k)
            X = self.vertices[np.array([cycles[j] for j in f])]
            rank[f] = np.linalg.matrix_rank(X - X[:, :1], tol=1e-7 * max(1.0, self.diameter))
        if (rank != self.dim - 1).any():
            f = np.flatnonzero(rank != self.dim - 1)[0]
            raise InvariantViolation(f"facet {f} vertex set is not affinely {self.dim - 1}-dimensional")

    def _build_rows(self):
        """The vertex rows: each vertex's unit edge directions, in ``vertex_edges``
        order; in 3-D each edge's origin, length, direction and the two unit
        rows of its inner normal cone's dual (``_edge_support``)."""
        V = self.vertices
        at = np.repeat(np.arange(len(V)), [len(e) for e in self.vertex_edges])
        other = self.edges[np.concatenate(self.vertex_edges)].sum(axis=1) - at
        self._vertex_rows = _unit_rows(V[other] - V[at])
        if self.dim == 3:
            a, b = V[self.edges[:, 0]], V[self.edges[:, 1]]
            self._edge_origin = a
            self._edge_len = np.linalg.norm(b - a, axis=1)
            self._edge_dir = (b - a) / self._edge_len[:, None]
            g = -self.facet_normals[self.edge_facets]  # the cone generators g1, g2
            self._edge_support = _unit_rows(g - (g[:, :1] @ g[:, 1, :, None]) * g[:, ::-1])

    @cached_property
    def faces(self):
        """Face objects by dimension, built from the lattice arrays on first use and kept."""
        V, gens, dim = self.vertices, -self.facet_normals, self.dim
        dirs = np.split(self._vertex_rows.copy(), np.cumsum([len(e) for e in self.vertex_edges])[:-1])
        faces = {0: [Face(0, v, np.array([v]), V[v].copy(), gens[f], U)
                     for v, (f, U) in enumerate(zip(self.vertex_facets, dirs))]}
        if dim == 3:
            faces[1] = [Face(1, e, ab.copy(), 0.5 * (V[ab[0]] + V[ab[1]]), gens[f], h)
                        for e, (ab, f, h) in enumerate(zip(self.edges, self.edge_facets,
                                                           self._edge_support.copy()))]
        faces[dim - 1] = [Face(dim - 1, f, np.array(cycle), V[cycle].mean(axis=0), gens[f][None, :],
                               np.zeros((0, dim))) for f, cycle in enumerate(self.facet_cycles)]
        return faces

    @cached_property
    def _region_rows(self):
        """The RegionRows table, built on first use and kept."""
        V, cycles = self.vertices, self.facet_cycles
        # facet rims: in-plane inward normals of the boundary edges (i, j); facet
        # diameters over all vertex pairs, the facets of one size at a time
        rims = np.array([len(cycle) for cycle in cycles])
        i = np.concatenate(cycles)
        W = V[self._cycle_next] - V[i]
        if self.dim == 3:
            W = np.cross(np.repeat(self.facet_normals, rims, axis=0), W)
        W /= np.sqrt(W[:, None, :] @ W[:, :, None])[:, 0]
        diameters = np.empty(len(cycles))
        for k in np.unique(rims):
            f = np.flatnonzero(rims == k)
            X = V[np.array([cycles[j] for j in f])]
            X = X[:, :, None] - X[:, None]
            diameters[f] = np.sqrt((X[..., None, :] @ X[..., :, None]).max(axis=(1, 2, 3, 4)))
        # vertex offsets, the vertices of one degree at a time
        U, sizes = self._vertex_rows, np.array([len(e) for e in self.vertex_edges])
        offsets = np.empty(len(U))
        for k in np.unique(sizes):
            v = np.flatnonzero(sizes == k)
            rows = (np.cumsum(sizes) - sizes)[v, None] + np.arange(k)
            offsets[rows] = (U[rows] @ V[v][:, :, None])[..., 0]
        # per family (facets, edges in 3-D, vertices): rows, offsets, rows per face, divisors
        families = [(W, (W[:, None, :] @ V[i][:, :, None])[:, 0, 0], rims, diameters),
                    (U, offsets, sizes, np.ones(len(V)))]
        frame = np.zeros((0, self.dim + 1))
        if self.dim == 3:
            d, a, h, L = self._edge_dir, self._edge_origin, self._edge_support, self._edge_len
            da = np.einsum("ed,ed->e", d, a)
            c = np.column_stack([da, -da - L, np.einsum("ekd,ed->ek", h, a)]).ravel()
            families.insert(1, (np.stack([d, -d, h[:, 0], h[:, 1]], axis=1).reshape(-1, 3), c,
                                np.full(len(d), 4), L))
            u = h[:, 0] - np.einsum("ed,ed->e", h[:, 0], d)[:, None] * d
            u /= np.linalg.norm(u, axis=1)[:, None]
            u = np.stack([u, np.cross(d, u)])
            frame = np.column_stack([u.reshape(-1, 3), -np.einsum("fed,ed->fe", u, a).ravel()])
        G, c, sizes, scale = (np.concatenate(x) for x in zip(*families))
        starts = np.concatenate([[0], np.cumsum(sizes)])
        F, nf = len(cycles), len(sizes)
        faces = np.r_[:F, nf - len(V):nf]  # facets, then vertices
        runs = tuple((k, np.flatnonzero(sizes[faces] == k)) for k in np.unique(sizes[faces]))
        blocks = [(k, faces[f]) for k, f in runs] + [(4, np.arange(F, nf - len(V)))]
        order = np.concatenate([(starts[f] + np.arange(k)[:, None]).ravel() for k, f in blocks])
        K = np.vstack([np.column_stack([G[order], -c[order]]), frame])
        dims = np.repeat(np.arange(self.dim - 1, -1, -1), [len(f[2]) for f in families])
        return RegionRows(G, c, starts, dims, K, runs, scale)

    def _volume_centroid(self):
        """Volume and centroid from the facet cycles, summed in cycle order: in 2-D a
        shoelace over the polygon's edges, in 3-D the cones from the origin over each
        facet's fan triangles."""
        V = self.vertices
        if self.dim == 2:
            (x, y), (xs, ys) = V[self.edges[:, 0]].T, V[self.edges[:, 1]].T
            cross = x * ys - xs * y
            area = cross.sum() / 2.0
            centroid = np.array([((x + xs) * cross).sum(), ((y + ys) * cross).sum()]) / (6.0 * area)
            return abs(float(area)), centroid
        rims = np.array([len(cycle) for cycle in self.facet_cycles])
        ids, start = np.concatenate(self.facet_cycles), np.cumsum(rims) - rims
        k = np.arange(len(ids)) - np.repeat(start, rims)  # position in its cycle
        mid = np.flatnonzero((k > 0) & (k < np.repeat(rims, rims) - 1))
        p0, p1, p2 = V[ids[np.repeat(start, rims - 2)]], V[ids[mid]], V[ids[mid + 1]]
        v6 = (p0[:, None, :] @ np.cross(p1, p2)[:, :, None])[:, 0, 0]
        vol = np.cumsum(v6)[-1] / 6.0
        centroid = np.cumsum(v6[:, None] * (p0 + p1 + p2), axis=0)[-1] / (24.0 * vol)
        return float(vol), centroid

    # -- queries -----------------------------------------------------------

    @property
    def n_vertices(self):
        return len(self.vertices)

    @property
    def n_edges(self):
        return len(self.edges)

    @property
    def n_facets(self):
        return len(self.facet_cycles)

    @property
    def n_faces(self):
        """Total number of proper faces; an upper bound for any normal count."""
        if self.dim == 3:
            return self.n_vertices + self.n_edges + self.n_facets
        return self.n_vertices + self.n_facets

    def face(self, key):
        dim, index = key
        return self.faces[dim][index]

    def edge_index(self, a, b):
        """Edge id for a vertex pair, or -1."""
        a, b = (a, b) if a < b else (b, a)
        hits = np.nonzero((self.edges[:, 0] == a) & (self.edges[:, 1] == b))[0]
        return int(hits[0]) if len(hits) else -1

    def is_simple(self):
        return self.dim == 3 and all(len(e) == 3 for e in self.vertex_edges)

    def bounding_box(self):
        return self.vertices.min(axis=0), self.vertices.max(axis=0)

    def __repr__(self):
        if self.dim == 3:
            return (f"Polytope(dim=3, V={self.n_vertices}, E={self.n_edges}, "
                    f"F={self.n_facets})")
        return f"Polytope(dim=2, V={self.n_vertices}, E={self.n_facets})"


# -- hull construction -------------------------------------------------------


def hull_from_points(points, tol=DEFAULT_TOL):
    """Convex hull of a point set with a complete merged face lattice.

    Points interior to the hull are dropped.  Raises DegenerateInput when the
    points do not span the ambient dimension.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] not in (2, 3):
        raise DegenerateInput("points must be an (n, 2) or (n, 3) array")
    dim = pts.shape[1]
    if len(pts) < dim + 1:
        raise DegenerateInput(f"need at least {dim + 1} points in dimension {dim}")
    centered = pts - pts.mean(axis=0)
    sv = np.linalg.svd(centered, compute_uv=False)
    if sv[dim - 1] <= 1e-9 * max(1.0, sv[0]):
        raise DegenerateInput("points are affinely degenerate")
    try:
        hull = ConvexHull(pts)
    except QhullError as exc:  # pragma: no cover - degeneracy is caught above
        raise DegenerateInput(str(exc)) from exc
    if dim == 2:
        return _polygon_from_hull(pts, hull, tol)
    return _polytope_from_hull_3d(pts, hull, tol)


def _polygon_from_hull(pts, hull, tol):
    order = hull.vertices  # counterclockwise per scipy
    V = pts[order]
    k = len(V)
    normals, offsets, cycles = [], [], []
    for i in range(k):
        a, b = V[i], V[(i + 1) % k]
        d = b - a
        n = unit(np.array([d[1], -d[0]]))
        normals.append(n)
        offsets.append(float(n @ a))
        cycles.append([i, (i + 1) % k])
    return Polytope(V, normals, offsets, cycles, tol)


def _polytope_from_hull_3d(pts, hull, tol):
    used = hull.vertices
    remap = -np.ones(len(pts), dtype=int)
    remap[used] = np.arange(len(used))
    V = pts[used]
    tris = remap[hull.simplices]
    tri_n = hull.equations[:, :3]
    tri_b = -hull.equations[:, 3]
    scale = max(1.0, float(np.linalg.norm(V.max(0) - V.min(0))))

    cos_merge = np.cos(MERGE_ANGLE)
    groups = []  # (normal, offset, set of vertex ids)
    for t in range(len(tris)):
        n, b = tri_n[t], tri_b[t]
        for g in groups:
            if n @ g[0] >= cos_merge and abs(b - g[1]) <= 1e-7 * scale:
                g[2].update(int(v) for v in tris[t])
                break
        else:
            groups.append((n.copy(), float(b), {int(v) for v in tris[t]}))

    normals, offsets, cycles = [], [], []
    for n, b, vset in groups:
        ids = np.array(sorted(vset), dtype=int)
        center = V[ids].mean(axis=0)
        u1 = unit(V[ids[0]] - center)
        u2 = np.cross(n, u1)
        ang = np.arctan2((V[ids] - center) @ u2, (V[ids] - center) @ u1)
        cycle = ids[np.argsort(ang)]
        # refit the plane from the ordered cycle (Newell) for merged facets
        poly = V[cycle]
        newell = np.cross(poly, np.roll(poly, -1, axis=0)).sum(axis=0)
        n_fit = unit(newell)
        if n_fit @ n < 0:
            n_fit, cycle = -n_fit, cycle[::-1]
        normals.append(n_fit)
        offsets.append(float(np.mean(V[cycle] @ n_fit)))
        cycles.append(cycle)
    return Polytope(V, normals, offsets, cycles, tol)


# -- halfspace intersection --------------------------------------------------


def _chebyshev_lp(normals, offsets):
    """(center, radius) of the largest inscribed ball of {x : <n, x> <= b}."""
    # imported here so that reading an OFF file never loads scipy.optimize
    from scipy.optimize import linprog

    A = np.asarray(normals, dtype=float)
    b = np.asarray(offsets, dtype=float)
    m, n = A.shape
    c = np.zeros(n + 1)
    c[-1] = -1.0
    A_ub = np.column_stack([A, np.linalg.norm(A, axis=1)])
    res = linprog(c, A_ub=A_ub, b_ub=b, bounds=[(None, None)] * n + [(0, None)],
                  method="highs")
    if res.status == 2:
        raise Empty("halfspace intersection is empty")
    if res.status == 3:
        raise Unbounded("inscribed radius is unbounded")
    if not res.success:  # pragma: no cover
        raise ValidationError(f"LP solver failed: {res.message}")
    return res.x[:n], float(res.x[n])


def _assert_bounded(normals):
    """Raise Unbounded unless the origin lies strictly inside conv(normals).

    {x : <n_i, x> <= b_i} with a nonempty interior is bounded exactly when
    its unit normals positively span space; too few or coplanar normals make
    Qhull fail and leave a direction of recession.  The 1e-12 margin is above
    the rounding noise of unit normals.
    """
    try:
        hull = ConvexHull(normals)
    except QhullError as exc:
        raise Unbounded("halfspace intersection is unbounded") from exc
    if not (hull.equations[:, -1] < -1e-12).all():
        raise Unbounded("halfspace intersection is unbounded")


def polytope_from_halfspaces(planes, tol=DEFAULT_TOL):
    """Vertex-enumerate the intersection of halfspaces <n, x> <= b.

    ``planes`` is a sequence of (normal, offset) pairs or rows [n..., b].
    Raises Unbounded / Empty as appropriate.
    """
    rows = []
    for p in planes:
        if isinstance(p, (tuple, list)) and len(p) == 2:
            rows.append(list(np.asarray(p[0], dtype=float)) + [float(p[1])])
        else:
            rows.append(list(np.asarray(p, dtype=float)))
    arr = np.array(rows, dtype=float)
    normals, offsets = arr[:, :-1], arr[:, -1]
    norms = np.linalg.norm(normals, axis=1)
    if np.any(norms < 1e-12):
        raise DegenerateInput("zero plane normal")
    normals = normals / norms[:, None]
    offsets = offsets / norms
    center, radius = _chebyshev_lp(normals, offsets)
    scale = max(1.0, float(np.abs(offsets).max()))
    if radius <= tol * scale:
        raise Empty("halfspace intersection has empty interior")
    _assert_bounded(normals)
    hs = np.column_stack([normals, -offsets])
    try:
        inter = HalfspaceIntersection(hs, center)
    except QhullError as exc:
        raise DegenerateInput(f"halfspace intersection failed: {exc}") from exc
    pts = inter.intersections
    # cluster duplicate intersection points before hulling
    grid = np.round(pts / (1e-7 * max(1.0, np.abs(pts).max())))
    _, idx = np.unique(grid, axis=0, return_index=True)
    keep = pts[np.sort(idx)]
    return hull_from_points(keep, tol)


# -- operations ---------------------------------------------------------------


def inner_normal_cone(P, face):
    """Extreme rays of the inner normal cone of a face (rows of an array)."""
    if not isinstance(face, Face):
        face = P.face(face)
    return face.cone_generators


def cone_contains(P, face, vector, slack=None):
    """Membership of a direction in Cone(face), tested against all vertices.

    Uses the dual description <p - q, v> >= 0 for every vertex p of P, with q
    a point of the face; equivalent to v being a nonnegative combination of
    the cone generators.
    """
    if not isinstance(face, Face):
        face = P.face(face)
    v = np.asarray(vector, dtype=float)
    nv = np.linalg.norm(v)
    if nv == 0.0:
        return True
    if slack is None:
        slack = P.tol
    rel = (P.vertices - face.affine_point) @ (v / nv)
    return bool(rel.min() >= -slack * max(1.0, P.diameter))


class ChebyshevSphere:
    """Largest inscribed sphere: center, radius and the tangent facet ids."""

    __slots__ = ("center", "radius", "tangent_facets")

    def __init__(self, center, radius, tangent_facets):
        self.center = center
        self.radius = radius
        self.tangent_facets = tangent_facets

    def __iter__(self):
        return iter((self.center, self.radius))

    def __repr__(self):
        return (f"ChebyshevSphere(center={np.round(self.center, 6)}, "
                f"radius={self.radius:.6g}, tangent_facets={self.tangent_facets})")


def chebyshev_center(P, rng=None):
    """Center and radius of the largest inscribed sphere, plus tangency list.

    When the optimum center is not unique the optimizer is swept to a vertex
    of the optimal set, which always carries at least dim + 1 tangent facets.
    """
    from scipy.optimize import linprog

    center, radius = _chebyshev_lp(P.facet_normals, P.facet_offsets)
    rng = default_rng(0) if rng is None else rng
    scale = max(1.0, P.diameter)
    # sweep within the optimal set {y : <n, y> <= b - r} to a vertex
    shrunk = P.facet_offsets - radius + 1e-11 * scale
    for _ in range(4):
        c = rng.standard_normal(P.dim)
        res = linprog(-c, A_ub=P.facet_normals, b_ub=shrunk,
                      bounds=[(None, None)] * P.dim, method="highs")
        if res.success:
            slack = P.facet_offsets - P.facet_normals @ res.x
            if abs(slack.min() - radius) <= 1e-7 * scale:
                center = res.x
                break
    gaps = P.facet_offsets - P.facet_normals @ center - radius
    tangent = tuple(int(i) for i in np.nonzero(gaps <= 1e-7 * scale)[0])
    return ChebyshevSphere(center, radius, tangent)


def dihedral_angle(P, edge):
    """Interior dihedral angle along an edge of a 3-polytope, in (0, pi)."""
    if P.dim != 3:
        raise ValidationError("dihedral angles are defined for 3-polytopes only")
    f1, f2 = P.edge_facets[edge]
    c = float(P.facet_normals[f1] @ P.facet_normals[f2])
    return float(np.arccos(np.clip(-c, -1.0, 1.0)))


def planar_angle(P, facet, vertex):
    """Interior angle of a facet polygon at one of its vertices, in (0, pi)."""
    cycle = list(P.facet_cycles[facet])
    if vertex not in cycle:
        raise ValidationError(f"vertex {vertex} is not on facet {facet}")
    i = cycle.index(vertex)
    prev_v = P.vertices[cycle[i - 1]]
    next_v = P.vertices[cycle[(i + 1) % len(cycle)]]
    v = P.vertices[vertex]
    u1, u2 = unit(prev_v - v), unit(next_v - v)
    return float(np.arccos(np.clip(u1 @ u2, -1.0, 1.0)))


def right_angle_defect(P, tol):
    """First dihedral or planar angle of a 3-polytope within ``tol`` of a
    right angle, described, or None when there is none."""
    for e in range(P.n_edges):
        if abs(dihedral_angle(P, e) - np.pi / 2) < tol:
            return f"right dihedral angle at edge {e}"
    for f, cycle in enumerate(P.facet_cycles):
        for v in cycle:
            if abs(planar_angle(P, f, int(v)) - np.pi / 2) < tol:
                return f"right planar angle at facet {f}, vertex {v}"
    return None


def contains_interior(P, y, tol=None):
    """True iff y satisfies every facet inequality with margin ``tol``."""
    if tol is None:
        tol = P.tol
    y = np.asarray(y, dtype=float)
    return bool((P.facet_normals @ y <= P.facet_offsets - tol).all())
