"""Convex polytopes in 2-D and 3-D: hulls, face lattices, inner normal cones,
angles and inscribed spheres.

The facet cycles are laid out once, flat (``Polytope._build_edges``); the
edges, lattice check, region rows, volume, right-angle test and sheet planes
read it.  The rest of the face lattice is held as arrays; ``Face`` objects
are built from them on first use of ``Polytope.faces``.

Every 3-D build (hull, OFF faces, halfspaces) ends in one route,
``_polytope_from_planes``, given vertices, candidate planes and the incidence
the build knows (OFF face planes, the planes a vertex is solved from): it
takes planes through 3 vertices as facets, checks Euler's formula, sorts and
refits the facets one size at a time, and raises the lattice's errors as the
build's own error class.  Halfspaces and point clouds (through the polar)
share one vertex enumeration, ``_clip``, with no interior point, hull or LP.
No build loads scipy; only ``chebyshev_center`` loads scipy.optimize.

Coordinates are double precision.  A single tolerance (default 1e-9, applied
relative to the body's size wherever it guards an incidence test) rejects
near-degenerate input instead of resolving it exactly.
"""

from __future__ import annotations

from functools import cached_property
from typing import NamedTuple

import numpy as np
from numpy.random import default_rng

from .errors import (
    DegenerateInput,
    Empty,
    InvariantViolation,
    Unbounded,
    ValidationError,
)

DEFAULT_TOL = 1e-9
MERGE_ANGLE = 1e-7  # radians; planes closer than this in normal direction merge, and meet in no line


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


def _cross(x, y):
    """np.cross over the last axis of 3-vectors, bit for bit, without its axis handling."""
    return x[..., [1, 2, 0]] * y[..., [2, 0, 1]] - x[..., [2, 0, 1]] * y[..., [1, 2, 0]]


def _by_size(sizes):
    """For each size k: the items of size k and their (items, k) positions when laid end to end."""
    start = np.cumsum(sizes) - sizes
    for k in np.flatnonzero(np.bincount(sizes)):  # np.unique(sizes) would import numpy.ma
        f = np.flatnonzero(sizes == k)
        yield f, start[f, None] + np.arange(k)


def _diameter(V):
    """Largest distance between two rows of V, measured on all row differences."""
    D = (V[:, None, :] - V[None, :, :]).reshape(-1, V.shape[1])
    return float(np.sqrt((D[:, None, :] @ D[:, :, None]).max()))


def _ranks(V, ids, sizes, diameter):
    """Affine rank of each vertex set at the lattice tolerance 1e-7 * diameter; the sets'
    vertex ids lie end to end in ``ids``, ``sizes`` gives their lengths."""
    rank = np.empty(len(sizes), dtype=int)
    for f, pos in _by_size(sizes):
        X = V[ids[pos]]
        rank[f] = np.linalg.matrix_rank(X - X[:, :1], tol=1e-7 * max(1.0, diameter))
    return rank


def _float_rows(rows, widths, what, error=DegenerateInput):
    """Finite float rows of one width in ``widths``, or ``error`` naming ``what``."""
    shape = error(f"{what} must be rows of {' or '.join(map(str, widths))} numbers")
    try:
        arr = np.array(rows, dtype=float)
    except (TypeError, ValueError) as exc:
        raise shape from exc
    if arr.ndim != 2 or arr.shape[1] not in widths:
        raise shape
    if not np.isfinite(arr).all():
        raise error(f"non-finite entry in {what}")
    return arr


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
    counting, every row once and no other: one run per row count k among
    the facets and vertices, holding row r of each of its faces in block r;
    ``runs`` lists (k, faces) with faces indexed facets first, then vertices.
    The edges' four rows follow the same way, last, so ``K[:len(K) - 4E]``
    holds the facet and vertex rows alone.
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
        self.diameter = _diameter(self.vertices)
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
        """The cycles end to end (``_cycle_ids``) with each position's facet, next and
        previous vertex and edge to the next, their lengths ``_rims`` and stacks by
        length; edges as sorted vertex pairs with their two facets (a polygon's facets
        are its edges, same indices); each vertex's edges and facets in index order."""
        cycles, nv = self.facet_cycles, len(self.vertices)
        rims = self._rims = np.array([len(cycle) for cycle in cycles])
        ids = self._cycle_ids = np.concatenate(cycles)
        facet = self._cycle_facet = np.repeat(np.arange(len(cycles)), rims)
        end = np.cumsum(rims)
        nxt, prv = np.arange(1, len(ids) + 1), np.arange(-1, len(ids) - 1)
        nxt[end - 1], prv[end - rims] = end - rims, end - 1
        self._cycle_next, self._cycle_prev = ids[nxt], ids[prv]
        self._facet_stacks = [(f, ids[pos]) for f, pos in _by_size(rims)]
        if self.dim == 3:
            pairs = np.sort(np.column_stack([ids, self._cycle_next]))
            order = np.lexsort(pairs.T[::-1])
            pairs, facet2 = pairs[order], facet[order]
            new = np.r_[True, (pairs[1:] != pairs[:-1]).any(axis=1)]
            count = np.diff(np.flatnonzero(np.r_[new, True]))
            if (count != 2).any():
                k = np.flatnonzero(count != 2)[0]
                raise InvariantViolation(f"edge {tuple(pairs[new][k].tolist())} has {count[k]} "
                                         "incident facets, expected 2")
            self.edges, self.edge_facets = pairs[new], facet2.reshape(-1, 2)
            self._cycle_edge = (np.cumsum(new) - 1)[np.argsort(order)]
        else:
            self.edges = np.column_stack([ids, self._cycle_next])[end - rims]
            self.edge_facets = np.repeat(np.arange(len(cycles)), 2).reshape(-1, 2)
            self._cycle_edge = facet
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
        rank = _ranks(self.vertices, self._cycle_ids, self._rims, self.diameter)
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
        V, rims, i = self.vertices, self._rims, self._cycle_ids
        # facet rims: in-plane inward normals of the boundary edges (i, j); facet
        # diameters over all vertex pairs, the facets of one size at a time
        W = V[self._cycle_next] - V[i]
        if self.dim == 3:
            W = _cross(self.facet_normals[self._cycle_facet], W)
        W /= np.sqrt(W[:, None, :] @ W[:, :, None])[:, 0]
        diameters = np.empty(len(rims))
        for f, ids in self._facet_stacks:
            X = V[ids][:, :, None] - V[ids][:, None]
            diameters[f] = np.sqrt((X[..., None, :] @ X[..., :, None]).max(axis=(1, 2, 3, 4)))
        # vertex offsets, the vertices of one degree at a time
        U, sizes = self._vertex_rows, np.array([len(e) for e in self.vertex_edges])
        offsets = np.empty(len(U))
        for v, rows in _by_size(sizes):
            offsets[rows] = (U[rows] @ V[v][:, :, None])[..., 0]
        # per family (facets, edges in 3-D, vertices): rows, offsets, rows per face, divisors
        families = [(W, (W[:, None, :] @ V[i][:, :, None])[:, 0, 0], rims, diameters),
                    (U, offsets, sizes, np.ones(len(V)))]
        if self.dim == 3:
            d, a, h, L = self._edge_dir, self._edge_origin, self._edge_support, self._edge_len
            da = np.einsum("ed,ed->e", d, a)
            c = np.column_stack([da, -da - L, np.einsum("ekd,ed->ek", h, a)]).ravel()
            families.insert(1, (np.stack([d, -d, h[:, 0], h[:, 1]], axis=1).reshape(-1, 3), c,
                                np.full(len(d), 4), L))
        G, c, sizes, scale = (np.concatenate(x) for x in zip(*families))
        starts = np.concatenate([[0], np.cumsum(sizes)])
        F, nf = len(rims), len(sizes)
        faces = np.r_[:F, nf - len(V):nf]  # facets, then vertices
        runs = tuple((k, np.flatnonzero(sizes[faces] == k))
                     for k in np.flatnonzero(np.bincount(sizes[faces])))
        blocks = [(k, faces[f]) for k, f in runs] + [(4, np.arange(F, nf - len(V)))]
        order = np.concatenate([(starts[f] + np.arange(k)[:, None]).ravel() for k, f in blocks])
        K = np.column_stack([G[order], -c[order]])
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
        rims, ids = self._rims, self._cycle_ids
        start = np.cumsum(rims) - rims
        k = np.arange(len(ids)) - np.repeat(start, rims)  # position in its cycle
        mid = np.flatnonzero((k > 0) & (k < np.repeat(rims, rims) - 1))
        p0, p1, p2 = V[ids[np.repeat(start, rims - 2)]], V[ids[mid]], V[ids[mid + 1]]
        v6 = (p0[:, None, :] @ _cross(p1, p2)[:, :, None])[:, 0, 0]
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
    """Convex hull of a point set with a complete face lattice, as the polar of
    Q = {y : <p - c, y> <= R}, c the points' mean and R the largest |p - c|.

    Each vertex of Q (``_clip``, at scale 1: every offset R / |p - c| is at
    least 1) is a facet of the hull, with outward normal along it; the points
    whose planes hold a facet of Q (an edge in 2-D) are the vertices, in input
    order, and the rest are dropped, a point at c too.  A point listed twice
    counts once.  A polygon runs counterclockwise from its lowest-index vertex.
    The cost is O(m^3) in the number of points m.  Raises DegenerateInput
    unless the points are finite (n, 2) or (n, 3) rows spanning the ambient
    dimension about c, else InvariantViolation on a failed clip or lattice.
    """
    pts = _float_rows(points, (2, 3), "points")
    dim = pts.shape[1]
    if len(pts) < dim + 1:
        raise DegenerateInput(f"need at least {dim + 1} points in dimension {dim}")
    centered = pts - pts.mean(axis=0)
    sv = np.linalg.svd(centered, compute_uv=False)
    if sv[dim - 1] <= 1e-9 * max(1.0, sv[0]):
        raise DegenerateInput("points are affinely degenerate")
    r = np.sqrt((centered[:, None, :] @ centered[:, :, None])[:, 0, 0])
    keep = np.flatnonzero(r > 0.0)  # a point at c has no polar plane: it is interior
    try:
        Y, on, heads = _clip(centered[keep] / r[keep, None], r.max() / r[keep], tol, 1.0)
    except Unbounded as exc:
        raise DegenerateInput("points are affinely degenerate about their mean") from exc
    except Empty as exc:
        raise InvariantViolation(f"polar body: {exc}") from exc
    on = on.T  # (point, facet): each vertex of Q is a facet of the hull
    vertex = np.flatnonzero(on.sum(axis=1) >= dim)
    ids = keep[heads[vertex]]
    if dim == 3:
        return _polytope_from_planes(pts[ids], on[vertex], Y, tol, InvariantViolation)
    X = centered[ids]
    order = np.argsort(np.arctan2(X[:, 1], X[:, 0]))
    return _polygon(pts[ids[np.roll(order, -order.argmin())]], tol, InvariantViolation)


def _polygon(V, tol, error):
    """The polygon with counterclockwise vertices V; lattice errors raise ``error``."""
    i = np.arange(len(V))
    D = np.roll(V, -1, axis=0) - V
    normals = _unit_rows(np.column_stack([D[:, 1], -D[:, 0]]))
    offsets = (normals[:, None, :] @ V[:, :, None])[:, 0, 0]
    return _built(error, V, normals, offsets, np.column_stack([i, np.roll(i, -1)]), tol)


def _built(error, *args):
    """``Polytope(*args)``, its lattice errors raised as ``error``."""
    try:
        return Polytope(*args)
    except InvariantViolation as exc:
        raise error(str(exc)) from exc


def _merge_planes(normals, offsets, scale):
    """Each plane's facet and each facet's first plane (``_first_of``): planes merge
    when their normals lie within MERGE_ANGLE and their offsets within 1e-7 * scale."""
    return _first_of((normals @ normals.T >= np.cos(MERGE_ANGLE))
                     & (abs(offsets[:, None] - offsets) <= 1e-7 * scale))


def _first_of(merge):
    """Each item's group and each group's first item, in order: an item joins the
    group of the first item it merges with (``merge``, a square boolean matrix)."""
    np.fill_diagonal(merge, True)
    first = merge.argmax(axis=1)
    while (first[first] != first).any():
        first = first[first]
    heads, group = np.unique(first, return_inverse=True)
    return group, heads


def _polytope_from_planes(V, on, outward, tol, error):
    """The 3-polytope with vertices V and facets among the planes with outward
    normals roughly ``outward``, ``on`` the (vertex, plane) incidence: every 3-D
    build ends here, and its checks and the lattice's raise ``error``.

    A plane through at least 3 vertices is a facet.  Each vertex must lie on at
    least 3 facets, and the facet sizes must sum to twice the edge count
    Euler's formula gives.  Per facet size, the vertices are sorted by angle
    about their mean, counterclockwise about the outward normal, so the refit
    plane (Newell) is outward.
    """
    facets = np.flatnonzero(on.sum(axis=0) >= 3)
    on, outward, nv = on[:, facets], outward[facets], len(V)
    count = on.sum(axis=1)
    if not count.all():
        raise error("input vertices are not in convex position")
    if count.min() < 3:
        v = int(count.argmin())
        raise error(f"vertex {v} lies on {count[v]} facet planes, fewer than 3")
    if 2 * (nv + len(facets) - 2) != count.sum():  # Euler, with each edge on two facets
        raise error("the facets do not close up: their sizes break Euler's formula")
    key = np.flatnonzero(on.T)  # facet * nv + vertex, sorted
    rims, ids = np.bincount(key // nv), key % nv
    normals, offsets, cycles = np.empty((len(rims), 3)), np.empty(len(rims)), np.empty_like(ids)
    for f, pos in _by_size(rims):
        n, X = outward[f], V[ids[pos]] - V[ids[pos]].mean(axis=1)[:, None]
        u1 = _unit_rows(X[:, 0])
        u2 = _cross(n, u1)
        ang = np.arctan2((X @ u2[:, :, None])[..., 0], (X @ u1[:, :, None])[..., 0])
        cycle = np.take_along_axis(ids[pos], np.argsort(ang, axis=1), axis=1)
        poly = V[cycle]
        fit = _unit_rows(np.cumsum(_cross(poly, np.roll(poly, -1, axis=1)), axis=1)[:, -1])
        normals[f], cycles[pos] = fit, cycle
        offsets[f] = (V[cycle] @ fit[:, :, None])[..., 0].mean(axis=1)
    return _built(error, V, normals, offsets, np.split(cycles, np.cumsum(rims)[:-1]), tol)


def polytope_from_faces(V, faces, tol=DEFAULT_TOL):
    """The 3-polytope with vertex rows V, in their order, whose facets are the
    given faces (lists of vertex ids), as read from an OFF file.

    Each face's plane is its Newell plane, oriented away from the vertex mean;
    coincident face planes are one facet (so a triangulated facet reads whole),
    which holds every vertex within tol times the diameter of its first plane.
    Raises ValidationError when the vertices are not distinct, a face is
    degenerate, a vertex lies above a face plane by more than that, or the face
    planes do not bound a polytope with these vertices.
    """
    nv, sizes = len(V), np.array([len(f) for f in faces])
    ids = np.concatenate(faces).astype(int)
    diameter = _diameter(V)
    scale = max(1.0, float(np.abs(V).max()))
    if len(np.unique(np.round(V / (1e-9 * scale)), axis=0, return_index=True)[1]) < nv:
        raise ValidationError("input vertices are not distinct")
    flat = np.flatnonzero(sizes < 3)
    if not len(flat):
        flat = np.flatnonzero(_ranks(V, ids, sizes, diameter) < 2)
    if len(flat):
        raise ValidationError(f"face {flat[0]} is degenerate: its vertices span no plane")
    normals = np.empty((len(faces), 3))
    for f, pos in _by_size(sizes):
        poly = V[ids[pos]]
        normals[f] = _cross(poly, np.roll(poly, -1, axis=1)).sum(axis=1)
    centers = np.add.reduceat(V[ids], np.cumsum(sizes) - sizes) / sizes[:, None]
    normals = _unit_rows(normals)
    normals[((centers - V.mean(axis=0)) * normals).sum(axis=1) < 0.0] *= -1.0
    offsets = (centers * normals).sum(axis=1)
    slack = V @ normals.T - offsets
    eps = tol * max(1.0, diameter)
    if (slack > eps).any():
        v, f = np.argwhere(slack > eps)[0]
        raise ValidationError(f"vertex {v} lies outside the plane of face {f}")
    heads = _merge_planes(normals, offsets, max(1.0, diameter))[1]
    return _polytope_from_planes(V, abs(slack[:, heads]) <= eps, normals[heads], tol,
                                 ValidationError)


# -- halfspace intersection --------------------------------------------------

CLIP = 2 ** 14  # line-by-plane entries per block of the line clip (128 kB per array)
BIG = 1e300  # masks a crossing out of a min or max
FLAT_SLOPE = 1e-9  # a slope on a unit row (n, -b) / |(n, -b)| at most this is flat


def polytope_from_halfspaces(planes, tol=DEFAULT_TOL):
    """Vertex-enumerate the intersection P of halfspaces <n, x> <= b.

    ``planes`` is a sequence of (normal, offset) pairs or rows [n..., b].  No
    interior point and no hull is needed: ``_clip`` finds the vertices and the
    planes each lies on, and in 3-D the facets follow from that incidence
    (``_polytope_from_planes``).  The cost is O(m^3) in the number of planes m.

    Raises DegenerateInput on malformed input.  Raises Unbounded, before any
    emptiness test, when the normals span less than space or a line direction
    +-d has <n, d> <= FLAT_SLOPE |(n, -b)| against every plane: the extreme
    rays of a recession cone lie on such lines.  Raises Empty when no line
    holds an edge longer than tol times the largest offset, when an endpoint's
    planes do not meet in one point, when the vertices do not bound a polytope
    on these planes (a 2-D one has fewer than 3), or when the face lattice
    fails, as when a facet is flat at its 1e-7 * diameter rank tolerance.
    """
    try:
        rows = [[*np.asarray(p[0], dtype=float), float(p[1])]
                if isinstance(p, (tuple, list)) and len(p) == 2 else p for p in planes]
    except (TypeError, ValueError) as exc:
        raise DegenerateInput("planes must be (normal, offset) pairs or rows [n..., b]") from exc
    arr = _float_rows(rows, (3, 4), "planes")
    normals, offsets = arr[:, :-1], arr[:, -1]
    norms = np.linalg.norm(normals, axis=1)
    if np.any(norms < 1e-12):
        raise DegenerateInput("zero plane normal")
    normals = normals / norms[:, None]
    offsets = offsets / norms
    if np.linalg.matrix_rank(normals) < normals.shape[1]:
        raise Unbounded("halfspace intersection is unbounded")
    V, on, heads = _clip(normals, offsets, tol, max(1.0, np.abs(offsets).max()))
    if V.shape[1] == 3:
        return _polytope_from_planes(V, on, normals[heads], tol, Empty)
    if len(V) < 3:
        raise Empty("halfspace intersection is flat: fewer than 3 vertices")
    X = V - V.mean(axis=0)
    return _polygon(V[np.argsort(np.arctan2(X[:, 1], X[:, 0]))], tol, Empty)


def _clip(normals, offsets, tol, scale):
    """The vertices of {x : <n, x> <= b} (unit normals n), their (vertex, plane)
    incidence ``on`` and the indices ``heads`` of the planes ``on`` spans.

    Coincident planes (``_merge_planes`` at 1e-7 scale) are one, the first.
    Every line where two planes meet (in 2-D, every plane) is clipped by all
    of them (``_edges``); each endpoint of a segment longer than tol scale is
    solved from its sorted plane triple (pair in 2-D), and endpoints closer
    than 1e-8 times the widest gap between two are one vertex, the first, on
    every plane they were solved from.  Raises Unbounded from ``_edges``, and
    Empty when no line holds an edge or an endpoint's planes meet in no point.
    """
    heads = _merge_planes(normals, offsets, scale)[1]
    normals, offsets = normals[heads], offsets[heads]
    m, dim = normals.shape
    pair, ends = _edges(normals, offsets, tol * scale)
    if not len(pair):
        raise Empty("halfspace intersection has empty interior")
    # every endpoint's sorted plane triple (pair in 2-D), each once
    at = np.sort(np.column_stack([np.repeat(pair, 2, axis=0), ends.ravel()]), axis=1)
    at = at[np.unique(at @ m ** np.arange(dim - 1, -1, -1), return_index=True)[1]]
    try:
        pts = np.linalg.solve(normals[at], offsets[at][..., None])[..., 0]
    except np.linalg.LinAlgError as exc:  # a singular triple: its planes meet in no one point
        raise Empty("an edge endpoint's planes do not meet in one point") from exc
    gap = abs(pts[:, None] - pts).max(axis=2)
    vertex, first = _first_of(gap <= 1e-8 * gap.max())
    on = np.zeros((len(first), m), dtype=bool)
    on[vertex[:, None], at] = True
    return pts[first], on, heads


def _edges(normals, offsets, eps):
    """The lines of the halfspace build that hold an edge longer than eps.

    Every line a + t d where two planes meet (in 2-D, every plane) is clipped
    by all planes, one block of lines at a time.  Along the line each plane has
    a slope s and an offset o, taken on its unit row (n, -b) / |(n, -b)|; the
    line's interval runs from lo = max(-o / s) over s < -FLAT_SLOPE to
    hi = min(-o / s) over s > FLAT_SLOPE.  A plane with |s| <= FLAT_SLOPE is
    flat: where three planes share a line, the third has a slope along it of
    about 1e-17 from rounding, or about 1e-10 on a body with 1e-10 vertex
    noise, and its crossing -o / s is noise.  A flat plane empties the line
    only when o > eps.  Returns each edge's planes (pairs in 3-D) and the
    planes attaining lo and hi.  Raises Unbounded when some line direction
    +-d has s <= FLAT_SLOPE against every plane.
    """
    m, dim = normals.shape
    if dim == 3:
        i, j = np.triu_indices(m, 1)
        c = _cross(normals[i], normals[j])
        s = np.sqrt((c * c).sum(axis=1))
        keep = s > MERGE_ANGLE  # planes closer than this in direction have no line
        pair, c, s = np.column_stack([i, j])[keep], c[keep], s[keep, None]
        # the direction and the point of both planes nearest the origin
        d = c / s
        a = _cross(c, offsets[pair[:, 1:]] * normals[pair[:, 0]]
                   - offsets[pair[:, :1]] * normals[pair[:, 1]]) / (s * s)
    else:
        pair = np.arange(m)[:, None]
        d, a = normals @ np.array([[0.0, 1.0], [-1.0, 0.0]]), offsets[:, None] * normals
    rows = _unit_rows(np.column_stack([normals, -offsets]))
    lines = np.column_stack([a, np.ones(len(a))])
    found = []
    step = max(1, CLIP // m)
    for start in range(0, len(d), step):
        b = slice(start, start + step)
        s, o = rows[:, :-1] @ d[b].T, rows @ lines[b].T
        if ((s.max(axis=0) <= FLAT_SLOPE) | (s.min(axis=0) >= -FLAT_SLOPE)).any():
            raise Unbounded("halfspace intersection is unbounded")
        own = pair[b].T, np.arange(s.shape[1])
        s[own], o[own] = 0.0, -1.0  # a line's own planes do not clip it
        up, down = s > FLAT_SLOPE, s < -FLAT_SLOPE
        flat = np.nonzero(~(up | down))
        s[flat] = 1.0
        w = o / s  # -t at each crossing; below, -lo = min(w) over s < 0, -hi = max(w) over s > 0
        lower, upper = w + BIG * ~down, w - BIG * ~up
        keep = lower.min(axis=0) - upper.max(axis=0) > eps
        keep[flat[1][o[flat] > eps]] = False
        e = np.flatnonzero(keep)
        found.append((pair[b][e], np.column_stack([lower[:, e].argmin(axis=0),
                                                   upper[:, e].argmax(axis=0)])))
    return tuple(np.concatenate(x) for x in zip(*found))


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
    # imported here: the one LP caller, so that building or reading a body
    # never loads scipy.optimize
    from scipy.optimize import linprog

    # the largest ball: maximise r subject to <n, x> + |n| r <= b
    A_ub = np.column_stack([P.facet_normals, np.linalg.norm(P.facet_normals, axis=1)])
    res = linprog(np.r_[np.zeros(P.dim), -1.0], A_ub=A_ub, b_ub=P.facet_offsets,
                  bounds=[(None, None)] * P.dim + [(0, None)], method="highs")
    if not res.success:  # pragma: no cover - P is bounded with an interior
        raise ValidationError(f"LP solver failed: {res.message}")
    center, radius = res.x[:P.dim], float(res.x[P.dim])
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
    right angle, described, or None: edges in edge order, then the facets'
    corners in cycle order."""
    if P.dim != 3:
        raise ValidationError("dihedral angles are defined for 3-polytopes only")
    N = P.facet_normals[P.edge_facets]
    c = (N[:, :1] @ N[:, 1, :, None])[:, 0, 0]
    e = np.flatnonzero(abs(np.arccos(np.clip(-c, -1.0, 1.0)) - np.pi / 2) < tol)
    if len(e):
        return f"right dihedral angle at edge {e[0]}"
    V, v = P.vertices, P._cycle_ids
    u1, u2 = _unit_rows(V[P._cycle_prev] - V[v]), _unit_rows(V[P._cycle_next] - V[v])
    c = (u1[:, None, :] @ u2[:, :, None])[:, 0, 0]
    p = np.flatnonzero(abs(np.arccos(np.clip(c, -1.0, 1.0)) - np.pi / 2) < tol)
    if len(p):
        return f"right planar angle at facet {P._cycle_facet[p[0]]}, vertex {v[p[0]]}"
    return None


def contains_interior(P, y, tol=None):
    """True iff y satisfies every facet inequality with margin ``tol``."""
    if tol is None:
        tol = P.tol
    y = np.asarray(y, dtype=float)
    return bool((P.facet_normals @ y <= P.facet_offsets - tol).all())
