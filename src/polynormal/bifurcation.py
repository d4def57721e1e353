"""Bifurcation set, chamber decomposition, maximum and average normal counts.

The active-region boundaries lie in finitely many planes: one per
(facet, boundary edge) incidence, orthogonal to the facet through the edge
("blue", minimum/saddle events), and one per (edge, endpoint) incidence,
orthogonal to the edge through the endpoint ("red", maximum/saddle events).
These are boundary rows of the region-row table (``Polytope._region_rows``)
the counting kernel reads: a blue plane is a facet rim row and a red plane
is an edge's slab row ``d`` placed at an endpoint, so the sheet planes are
taken from that table rather than rebuilt.  In 2-D both sheet families
coincide: the lines through each vertex orthogonal to its incident edges
(the polygon's rim rows) bound edge strips and vertex cones alike, and
crossings trade a minimum and a maximum instead of touching saddles.
Lines read the same table: on a line each region is one open interval, so
crossing audits and ray scans take sheet crossings from interval endpoints
and counts from interval membership, not from samples.

Chambers are cut along the same rows only where a region is undecided, so
each cell lies outside every region or inside its closure, and its count is
read from the rows at its vertices, not sampled.
All cells share one stacked vertex array: a face's rows and their negations
give one product, whose ``logical_or.reduceat`` over the cell starts is a
boolean table of each cell's rows above eps and below -eps somewhere; a row
cuts all its straddled cells in one batch, which changes only their entries.
Every cell vertex carries a bitmask of the geometric planes it lies on
(region rows and facet planes of P, coincident ones merged), so a cut
crosses only the (plus, minus) vertex pairs that share dim - 1 planes; these
include every cell edge.  The crossings and the on-plane vertices are sorted
by angle in the plane and pruned by rounds of chord tests, which drop twins
and collinear points, with no point set rounded to a grid.  A cell's volume
comes from its facet polygons, each on a region row or a facet plane of P:
the sum of facet area times the distance from the cell's vertex mean, over
dim.  No chamber step calls Qhull.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from numpy.random import default_rng

from .errors import InvariantViolation, NonTransversal, TooManyChambers
from .geometry import _cross
from .normals import MorseProfile, count_normals_batch, perturb_to_generic

PLANE_TOL = 1e-9        # coincidence of sheet planes: normal cosine and offset
ON_SHEET_TOL = 1e-7     # point_on_sheet and plane-incidence slack, relative to the body's scale
MIN_REL_VOLUME = 1e-12  # cells below this fraction of Vol P are degenerate
VOLUME_CHECK = 1e-9     # the cell volumes must sum to Vol P within this fraction
BLOCK = 512             # cell vertices per plane product in ``_measure_cells``
DRAW = 1 << 20          # most entries of one Monte-Carlo draw's facet product (8 MB)


@dataclass(frozen=True)
class SheetPlane:
    """A plane carrying one or more sheets of the bifurcation set.

    ``sources`` lists every incidence that generated the plane:
    (facet, edge) pairs for blue planes, (edge, vertex) pairs for red ones.
    """

    normal: np.ndarray
    offset: float
    color: str
    sources: tuple


@dataclass
class Chamber:
    """A convex cell on which every active region is decided, with its normal count."""

    vertices: np.ndarray
    rep_point: np.ndarray
    volume: float
    count: int
    profile: MorseProfile


def _first_coincident(normals, offsets, scale):
    """Index of each plane's first coincident plane: planes i and j coincide when
    |<n_i, n_j> - 1| and |b_i - b_j| / scale are below PLANE_TOL."""
    return ((np.abs(normals @ normals.T - 1.0) < PLANE_TOL)
            & (np.abs(offsets[:, None] - offsets[None, :]) < PLANE_TOL * scale)).argmax(axis=1)


def _merge(normals, offsets, scale):
    """Groups of coincident planes, as index arrays in order of first member.

    Planes whose first coincident plane (``_first_coincident``) is the same
    form one group, and its first member represents it: for planes that
    coincide only up to rounding noise this is the first-match merge in
    input order.
    """
    first = _first_coincident(normals, offsets, scale)
    order = np.argsort(first, kind="stable")
    return np.split(order, np.flatnonzero(np.diff(first[order])) + 1)


def _canonical(normals, offsets):
    """Planes with signs flipped so that each normal's largest-magnitude component is positive."""
    pivot = normals[np.arange(len(normals)), np.abs(normals).argmax(axis=1)]
    sign = np.where(pivot < 0, -1.0, 1.0)
    return normals * sign[:, None], offsets * sign


def _sheets(P, normals, offsets, color, sources):
    """SheetPlanes of one color from stacked (normal, offset) rows and their sources."""
    normals, offsets = _canonical(normals, offsets)
    return [SheetPlane(normals[g[0]], float(offsets[g[0]]), color,
                       tuple(sources[i] for i in g))
            for g in _merge(normals, offsets, max(1.0, P.diameter))]


def sheet_planes(P):
    """All sheet planes of the bifurcation set, deduplicated per color.

    Raw incidence counts (sum of len(sources) per color) are 2E for blue and
    2E for red in 3-D.  Blue rows are the facet rim rows in cycle order, red
    rows the edge directions at each endpoint; in 2-D the rim rows are the
    lines through each vertex orthogonal to its edge, all blue.
    """
    G, c, starts = P._region_rows[:3]
    rims, rim_offsets = G[:starts[P.n_facets]], c[:starts[P.n_facets]]
    ends = [(e, v) for e, pair in enumerate(P.edges.tolist()) for v in pair]
    if P.dim == 2:
        return _sheets(P, rims, rim_offsets, "blue", ends)
    rim_edges = list(zip(P._cycle_facet.tolist(), P._cycle_edge.tolist()))
    dirs = np.repeat(P._edge_dir, 2, axis=0)
    dir_offsets = np.einsum("ij,ij->i", dirs, P.vertices[P.edges.ravel()])
    return (_sheets(P, rims, rim_offsets, "blue", rim_edges)
            + _sheets(P, dirs, dir_offsets, "red", ends))


def arrangement_planes(P):
    """Distinct cutting planes across colors, with their colors (the bench tracer counts them)."""
    planes = sheet_planes(P)
    normals = np.array([sp.normal for sp in planes])
    offsets = np.array([sp.offset for sp in planes])
    return [{"normal": planes[g[0]].normal, "offset": planes[g[0]].offset,
             "colors": {planes[i].color for i in g}}
            for g in _merge(normals, offsets, max(1.0, P.diameter))]


def _line_intervals(P, a, d):
    """Each face's open interval (lo, hi) of t with a + t*d in its region, and each row's end.

    With alpha = G.a - c and beta = G.d, row j holds for t above -alpha_j / beta_j
    when beta_j > 0, below it when beta_j < 0, and nowhere when beta_j = 0 and
    alpha_j <= 0; ``ends[j]`` is that t where it bounds a non-empty interval, else nan.
    """
    G, c, starts = P._region_rows[:3]
    alpha, beta = G @ a - c, G @ d
    t = np.divide(-alpha, beta, out=np.full(len(G), np.nan), where=beta != 0.0)
    lo = np.maximum.reduceat(np.where(beta > 0.0, t, -np.inf), starts[:-1])
    hi = np.minimum.reduceat(np.where(beta < 0.0, t, np.inf), starts[:-1])
    lo[np.logical_or.reduceat((beta == 0.0) & (alpha <= 0.0), starts[:-1])] = np.inf
    face = np.repeat(np.arange(len(lo)), np.diff(starts))
    ends = (lo < hi)[face] & (((beta > 0.0) & (t == lo[face])) | ((beta < 0.0) & (t == hi[face])))
    return lo, hi, np.where(ends, t, np.nan)


def _pieces(lo, hi, ends, t_end, tol):
    """Row groups of the endpoints in (tol, t_end - tol), chained while within tol, in order.

    Row i of the returned mask holds the faces inside at the midpoint of the
    piece of (0, t_end) before group i; its last row, after the last group.
    """
    rows = np.flatnonzero((ends > tol) & (ends < t_end - tol))
    rows = rows[np.argsort(ends[rows], kind="stable")]
    t = ends[rows]
    cut = np.flatnonzero(np.diff(t) >= tol) + 1
    groups = np.split(rows, cut) if len(rows) else []
    mids = 0.5 * (np.r_[0.0, t[cut - 1], t[-1:]] + np.r_[t[:1], t[cut], t_end])
    return groups, (lo < mids[:, None]) & (mids[:, None] < hi)


def _profiles(P, inside):
    """MorseProfile of each row of a (points, faces) region-membership mask."""
    dims = P._region_rows.dims
    slot = np.where(dims == 0, 2, P.dim - 1 - dims)  # minima, saddles, maxima
    counts = np.column_stack([inside[:, slot == k].sum(axis=1) for k in range(3)])
    return [MorseProfile(*map(int, row)) for row in counts]


def point_on_sheet(P, sheet, q):
    """Whether q lies on an actual sheet region carried by ``sheet``.

    The plane extends beyond the true sheet; this checks q against each
    generating incidence (swept edge for blue, endpoint cap inside the edge
    cone for red).
    """
    q = np.asarray(q, dtype=float)
    slack = ON_SHEET_TOL * max(1.0, P.diameter)
    if abs(float(sheet.normal @ q - sheet.offset)) > slack:
        return False
    for src in sheet.sources:
        if sheet.color == "blue" and P.dim == 3:
            f, e = src
            a, d = P._edge_origin[e], P._edge_dir[e]
            t = (q - a) @ d
            if -slack <= t <= P._edge_len[e] + slack:
                foot = a + t * d
                if (q - foot) @ (-P.facet_normals[f]) >= -slack:
                    return True
        else:
            e, v = src
            w = q - P.vertices[v]
            if np.linalg.norm(w) < slack:
                return True
            if P.dim == 3:
                ok = (P._edge_support[e] @ w).min() >= -ON_SHEET_TOL * np.linalg.norm(w)
            else:
                ok = (w @ (-P.facet_normals[e])) >= -slack
            if ok:
                return True
    return False


# -- cell splitting ----------------------------------------------------------


def _plane_basis(normals):
    """Orthonormal rows spanning the plane orthogonal to each normal: shape (..., dim - 1, dim)."""
    n = normals / np.linalg.norm(normals, axis=-1, keepdims=True)
    if n.shape[-1] == 2:
        return np.stack([-n[..., 1], n[..., 0]], axis=-1)[..., None, :]
    t = np.where(np.abs(n[..., :1]) < 0.9, [1.0, 0.0, 0.0], [0.0, 1.0, 0.0])
    u = t - (t * n).sum(axis=-1, keepdims=True) * n
    u /= np.linalg.norm(u, axis=-1, keepdims=True)
    return np.stack([u, _cross(n, u)], axis=-2)


def _plane_groups(P):
    """Region rows and facet planes of P grouped into geometric planes: (rows, offsets, tol, bits, words).

    Each group of coincident planes (``_first_coincident``, signs made
    canonical) gets one bit, group g bit g % 64 of word g // 64; the unit
    rows are sorted by group, ``bits`` holds each row's bit and ``words``
    the first row of each word.  A point lies on a row within ``tol``,
    ON_SHEET_TOL times the body's scale: merged hull facets are planar only
    within MERGE_ANGLE, and a loose test only adds candidate pairs to a cut.
    """
    G, c = P._region_rows[:2]
    scale = max(1.0, P.diameter)
    normals, offsets = _canonical(np.vstack([G, P.facet_normals]),
                                  np.concatenate([c, P.facet_offsets]))
    first = _first_coincident(normals, offsets, scale)
    order = np.argsort(first, kind="stable")
    group = np.cumsum(np.diff(first[order], prepend=-1) != 0) - 1
    bits = np.uint64(1) << (group % 64).astype(np.uint64)
    words = np.searchsorted(group, np.arange(0, group[-1] + 1, 64))
    return normals[order], offsets[order], ON_SHEET_TOL * scale, bits, words


def _distances(X, G, c):
    """Signed distances ``X @ G.T - c``; the offsets are subtracted in place, which is several
    times faster than a second full-size temporary."""
    S = X @ G.T
    S -= c
    return S


def _incidence(points, planes):
    """Bitmask words of the plane groups (``_plane_groups``) each point lies on."""
    Q, q, tol, bits, words = planes
    on = np.where(np.abs(_distances(points, Q, q)) <= tol, bits, np.uint64(0))
    return np.bitwise_or.reduceat(on, words, axis=1)


def _pairs(plus, minus, cell):
    """Every (plus, minus) vertex pair of each cell, plus-major; ``cell`` is non-decreasing."""
    p, m = np.flatnonzero(plus), np.flatnonzero(minus)
    n_minus = np.bincount(cell[m], minlength=cell[-1] + 1)
    reps = n_minus[cell[p]]
    i = np.repeat(p, reps)
    skip = (np.cumsum(n_minus) - n_minus)[cell[p]] - (np.cumsum(reps) - reps)
    return i, m[np.repeat(skip, reps) + np.arange(len(i))]


def _cut_points(verts, s, cell, i, j, eps):
    """Candidate section points of cells cut by one plane, and their cell ids.

    ``s`` holds the vertices' signed plane distances and ``cell`` their cell
    ids; (i, j) are vertex pairs with s[i] > eps and s[j] < -eps.  The
    candidates are the pairs' crossing points, then the vertices within eps
    of the plane.
    """
    lam = s[i] / (s[i] - s[j])  # s[i] > eps > -eps > s[j]: no zero denominator
    on = np.flatnonzero(np.abs(s) <= eps)
    points = np.concatenate([verts[i] + lam[:, None] * (verts[j] - verts[i]), verts[on]])
    return points, np.concatenate([cell[i], cell[on]])


def _section(points, cell, basis, eps):
    """Indices of the section vertices among candidate points, grouped by ascending cell.

    In 2-D a cell keeps its two extreme points along the line.  In 3-D its
    points are sorted by angle around their mean in the plane coordinates
    ``points @ basis.T``; then, in rounds, every point that is reflex by more
    than eps is dropped, and so is a point on a ring neighbour's ray from the
    mean and nearer to it, and every point within eps of the chord between
    its ring neighbours, never two such neighbours in one round.  What is
    left is each cut polygon's vertex ring, counterclockwise, with interior
    and collinear points and rounding-noise twins gone.
    """
    if not len(points):
        return np.arange(0)
    Y = points @ basis.T
    if Y.shape[1] == 1:
        order = np.lexsort((Y[:, 0], cell))
        last = np.flatnonzero(np.diff(cell[order], append=-1))
        ends = np.column_stack([np.r_[0, last[:-1] + 1], last]).ravel()
        return order[ends[np.r_[True, np.diff(ends) != 0]]]
    n = np.maximum(np.bincount(cell), 1)  # a cell without points is never read
    x = Y[:, 0] - (np.bincount(cell, Y[:, 0]) / n)[cell]
    y = Y[:, 1] - (np.bincount(cell, Y[:, 1]) / n)[cell]
    order = np.lexsort((np.arctan2(y, x), cell))
    x, y, cell = x[order], y[order], cell[order]
    r = np.hypot(x, y)
    done = []
    while len(cell):
        pos = np.arange(len(cell))
        head = np.ones(len(cell), dtype=bool)
        np.not_equal(cell[1:], cell[:-1], out=head[1:])
        first = np.flatnonzero(head)
        last = np.append(first[1:], len(cell)) - 1
        prev, nxt = pos - 1, pos + 1
        prev[first], nxt[last] = last, first
        dx, dy, wx, wy = x[nxt] - x[prev], y[nxt] - y[prev], x - x[prev], y - y[prev]
        L2 = dx * dx + dy * dy
        reflex = dx * wy - dy * wx > eps * np.sqrt(L2)
        for k in (prev, nxt):  # on a neighbour's ray from the mean, nearer by more than eps
            reflex |= ((r + eps < r[k]) & (np.abs(x[k] * y - y[k] * x) <= eps * r[k])
                       & (x[k] * x + y[k] * y >= 0.0))
        t = np.clip(np.divide(wx * dx + wy * dy, L2, out=np.zeros(len(L2)), where=L2 > 0.0), 0.0, 1.0)
        near = ((wx - t * dx) ** 2 + (wy - t * dy) ** 2 < eps * eps) & ~reflex
        near[first[first == last]] = False  # a ring of one point keeps it
        # a reflex point lies inside the triangle of the mean and its neighbours
        # (or on its side through the mean), so it is no hull vertex and all go
        # at once; near points alternate along each run and across the ring's
        # seam, so of two twins one stays
        run = near & ~(near[prev] & ~head)
        near &= (pos - np.maximum.accumulate(np.where(run, pos, 0))) % 2 == 0
        near[last[near[first]]] = False
        drop = reflex | near
        final = ~np.logical_or.reduceat(drop, first)[np.cumsum(head) - 1]  # convex rings are done
        done.append((order[final], cell[final]))
        keep = ~final & ~drop
        order, x, y, r, cell = order[keep], x[keep], y[keep], r[keep], cell[keep]
    order, cell = (np.concatenate(a) for a in zip(*done))
    return order[np.argsort(cell, kind="stable")]


def _ranks(mask, group, n_groups):
    """Position of each masked item among the masked items of its group (groups ascending)."""
    count = np.bincount(group[mask], minlength=n_groups)
    return (np.cumsum(mask) - 1)[mask] - (np.cumsum(count) - count)[group[mask]], count


def _replace(a, cut, lo, hi):
    """``a`` with each entry ``cut[k]`` (ascending) replaced by the two entries lo[k], hi[k]."""
    a = a.copy()
    a[cut] = lo
    return np.insert(a, cut + 1, hi, axis=0)


class _Cells:
    """The cells of a split: stacked vertices, cell sizes, and each vertex's plane-group bitmask.

    ``on`` (``_incidence`` against ``planes``, ``_plane_groups``) is built
    at the first cut, from P's vertices, so a body that needs no cut builds
    no plane groups.
    """

    def __init__(self, P):
        self.P = P
        self.verts = P.vertices.copy()
        self.sizes = np.array([len(self.verts)])

    @cached_property
    def planes(self):
        return _plane_groups(self.P)

    @cached_property
    def on(self):
        return _incidence(self.verts, self.planes)


def _cut(cells, cut, r, face, basis, eps):
    """Cut cells ``cut`` (ascending) along row r of ``face = (G, c)``; returns the halves' sign rows.

    A cut polygon's candidates are the crossings of the (plus, minus) vertex
    pairs that share dim - 1 plane groups, which include every cell edge,
    and the on-plane vertices.  Each cut cell is replaced in place by its
    minus half, then its plus half: the strict side's vertices in order,
    then the section ring.  The rows of ``cells.verts`` and ``cells.on`` are
    gathered once from the old rows and the ring's; the face's rows are
    evaluated on the cut cells and rings only.  The sign rows (see
    ``_split_face``) come as two tables, the minus halves' and the plus
    halves'.
    """
    G, c = face
    verts, on, sizes = cells.verts, cells.on, cells.sizes
    starts = np.cumsum(sizes) - sizes
    n = sizes[cut]
    idx = np.repeat(starts[cut] - np.cumsum(n) + n, n) + np.arange(n.sum())  # cut cells' vertices
    local = np.repeat(np.arange(len(cut)), n)
    X, mask = np.take(verts, idx, axis=0), np.take(on, idx, axis=0)
    S = _distances(X, G, c)
    s = S[:, r]
    sides = (s < -eps, s > eps)
    i, j = _pairs(sides[1], sides[0], local)
    shared = sum(np.bitwise_count(mask[i, w] & mask[j, w]) for w in range(mask.shape[1]))
    edge = shared >= verts.shape[1] - 1
    points, point_cell = _cut_points(X, s, local, i[edge], j[edge], eps)
    ring = _section(points, point_cell, basis, eps)
    section, section_cell = np.take(points, ring, axis=0), point_cell[ring]
    section_rank, n_section = _ranks(np.ones(len(ring), dtype=bool), section_cell, len(cut))
    halves = [_ranks(side, local, len(cut)) for side in sides]
    n_lo, n_hi = (count + n_section for _, count in halves)
    # the halves of the cut cells, as rows of [X; section]
    n_new = n_lo + n_hi
    first = np.cumsum(n_new) - n_new  # each minus half; its plus half follows
    block = np.empty(n_new.sum(), dtype=int)
    for side, (rank, count), at in zip(sides, halves, (first, first + n_lo)):
        block[at[local[side]] + rank] = np.flatnonzero(side)
        block[(at + count)[section_cell] + section_rank] = len(X) + np.arange(len(ring))
    signs = np.take(np.concatenate([S, _distances(section, G, c)]) > eps, block, axis=0)
    # each output row comes from [old rows; ring rows]; other cells keep their
    # rows, shifted by what the cuts before them added
    grow = np.zeros(len(sizes), dtype=int)
    grow[cut] = n_new - n
    shift = np.cumsum(grow) - grow
    src = np.arange(len(verts) + grow.sum()) - np.repeat(shift, sizes + grow)
    rows = np.repeat(starts[cut] + shift[cut] - first, n_new) + np.arange(len(block))
    src[rows] = np.concatenate([idx, len(verts) + np.arange(len(ring))])[block]
    cells.verts = np.take(np.concatenate([verts, section]), src, axis=0)
    cells.on = np.take(np.concatenate([on, _incidence(section, cells.planes)]), src, axis=0)
    cells.sizes = _replace(sizes, cut, n_lo, n_hi)
    sign = np.logical_or.reduceat(signs, np.column_stack([first, first + n_lo]).ravel())
    return sign[0::2], sign[1::2]


def _split_face(cells, face, bases, eps, cap):
    """Cut the cells along the rows of one face (``_faces``), in order; returns the cells' sign rows.

    A cell's sign row says, for each of the face's 2k rows, whether it
    exceeds eps at some cell vertex: its first k entries mark the rows above
    eps somewhere, the last k the rows below -eps somewhere.  A cell is open
    (the face is not *out* on it) when its first k entries are all set, and
    it is cut along row r when it is open and entry k + r is set.  The table
    is taken once over all cells; a cut replaces only the cut cells' rows.
    """
    k = len(bases)
    sign = np.logical_or.reduceat(_distances(cells.verts, *face) > eps, np.cumsum(cells.sizes) - cells.sizes)
    for r in range(k):
        if r == 0 or len(cut):  # the table changed
            open_ = sign[:, :k].all(axis=1)
        cut = np.flatnonzero(open_ & sign[:, k + r])
        if len(cut):
            sign = _replace(sign, cut, *_cut(cells, cut, r, face, bases[r], eps))
        if len(cells.sizes) > cap:
            raise TooManyChambers(f"chamber split exceeded {cap} cells")
    return sign


def _faces(P):
    """Each face's rows as ``_split_face`` takes them: ((G, c), bases) per face, in order.

    G holds the face's k region rows, then the same rows negated, and c
    their offsets; ``bases`` are the k rows' plane bases.
    """
    G, c, rows = P._region_rows[:3]
    bases = _plane_basis(G)
    return [((np.concatenate([G[a:b], -G[a:b]]), np.concatenate([c[a:b], -c[a:b]])), bases[a:b])
            for a, b in zip(rows[:-1].tolist(), rows[1:].tolist())]


def split_by_planes(P, cap=10**6):
    """Vertex sets of cells inside P on which every active region is decided.

    Faces are taken in row-table order (``_split_face``); a cut replaces a
    cell by its minus half, then its plus half, and every other cell stays
    where it is.  Each cell vertex carries the bitmask of the plane groups
    (``_plane_groups``) it lies on, so that a cut crosses only vertex pairs
    that can span a cell edge.
    """
    eps = 1e-12 * max(1.0, P.diameter)
    cells = _Cells(P)
    for face, bases in _faces(P):
        _split_face(cells, face, bases, eps, cap)
    ends = np.cumsum(cells.sizes).tolist()
    return [cells.verts[a:b] for a, b in zip([0] + ends[:-1], ends)]


def plane_section(P, normal, offset):
    """Ordered polygon where a plane cuts through the polytope, or None.

    Its vertices are among the crossings of P's edges and the vertices on
    the plane.
    """
    eps = 1e-12 * max(1.0, P.diameter)
    V = P.vertices
    s = V @ normal - offset
    i, j = P.edges.T
    swap = s[i] < s[j]
    i, j = np.where(swap, j, i), np.where(swap, i, j)
    edge = (s[i] > eps) & (s[j] < -eps)
    points, cell = _cut_points(V, s, np.zeros(len(V), dtype=int), i[edge], j[edge], eps)
    pts = points[_section(points, cell, _plane_basis(normal), eps)]
    return pts if len(pts) >= P.dim else None


def _facets(S, st, sizes, dim, eps):
    """Facets of a block of cells: (cell, plane, on-vertices grouped by facet, their counts).

    ``S`` holds the signed distances of the block's vertices from every
    plane, ``st`` and ``sizes`` the cells' vertex starts and counts.  A plane
    holds a facet of a cell when at least dim cell vertices lie within eps
    of it and every vertex is on one side; of the planes with the same
    on-vertex set (compared as exact bitmasks of the cells' vertex
    positions, 62 to a word) the first gives the facet.
    """
    m = S.shape[1]
    cell = np.repeat(np.arange(len(st)), sizes)
    v, j = np.divmod(np.flatnonzero(np.abs(S) <= eps), m)
    pair = cell[v] * m + j
    sel = np.flatnonzero((np.bincount(pair, minlength=len(st) * m) >= dim)[pair])
    sel = sel[np.argsort(pair[sel], kind="stable")]
    v, pair = v[sel], pair[sel]
    head = np.flatnonzero(np.diff(pair, prepend=-1))
    n_on = np.diff(np.append(head, len(pair)))
    fc, fp = np.divmod(pair[head], m)
    n = sizes[fc]
    at = np.repeat(st[fc] - np.cumsum(n) + n, n) + np.arange(n.sum())
    Sv, seg = S[at, np.repeat(fp, n)], np.cumsum(n) - n
    side = np.flatnonzero((np.maximum.reduceat(Sv, seg) <= eps) | (np.minimum.reduceat(Sv, seg) >= -eps))
    loc = v - st[cell[v]]
    keys = [np.add.reduceat(np.where(loc // 62 == k, 1 << loc % 62, 0), head)[side]
            for k in range(sizes.max() // 62 + 1)]
    order = np.lexsort([fp[side]] + keys + [fc[side]])
    twin = np.all([key[order[1:]] == key[order[:-1]] for key in keys + [fc[side]]], axis=0)
    kept = np.zeros(len(head), dtype=bool)
    kept[side[order[np.append(True, ~twin)[:len(order)]]]] = True
    return fc[kept], fp[kept], v[np.repeat(kept, n_on)], n_on[kept]


def _polygon_areas(Y, sizes):
    """Area of each convex polygon (length of each segment in 1-D) from its vertex group in Y.

    The groups are consecutive, ``sizes`` long, their vertices in any
    order: each is sorted by angle around its mean, then measured by the
    shoelace formula; a segment's length is the spread of its coordinate.
    """
    first = np.cumsum(sizes) - sizes
    group = np.repeat(np.arange(len(sizes)), sizes)
    Y = Y - (np.add.reduceat(Y, first) / sizes[:, None])[group]
    if Y.shape[1] == 1:
        Y = Y[np.lexsort((Y[:, 0], group))]
        return Y[first + sizes - 1, 0] - Y[first, 0]
    Y = Y[np.lexsort((np.arctan2(Y[:, 1], Y[:, 0]), group))]
    nxt = np.arange(1, len(Y) + 1)
    nxt[first + sizes - 1] = first
    return 0.5 * np.add.reduceat(Y[:, 0] * Y[nxt, 1] - Y[nxt, 0] * Y[:, 1], first)


def _measure_cells(P, verts, sizes):
    """Volume, vertex mean and decided faces of each stacked cell, about BLOCK vertices at a time.

    Every facet of a cell lies on a region row or a facet plane of P
    (``_facets``).  It is measured in the coordinates other than its
    normal's largest one (``_polygon_areas``), and a cell's volume is the sum
    over its facets of area times the distance from the cell's vertex mean,
    over dim.  ``inside[i, F]`` says every row of face F exceeds eps at some
    vertex of cell i.
    """
    dim, eps = P.dim, 1e-12 * max(1.0, P.diameter)
    G, c, rows = P._region_rows[:3]
    Q, q = np.vstack([G, P.facet_normals]), np.concatenate([c, P.facet_offsets])
    cols = (np.abs(Q).argmax(axis=1)[:, None] + np.arange(1, dim)) % dim  # measuring coordinates
    stretch = 1.0 / np.abs(Q).max(axis=1)  # true over measured area, over |Q|
    starts = np.cumsum(sizes) - sizes
    volumes, means = np.empty(len(sizes)), np.empty((len(sizes), dim))
    inside = np.empty((len(sizes), len(rows) - 1), dtype=bool)
    blocks = np.append(np.searchsorted(starts, np.arange(0, len(verts), BLOCK)), len(sizes))
    blocks = blocks[np.diff(blocks, prepend=-1) != 0]  # np.unique would import numpy.ma
    bounds = np.append(starts, len(verts))[blocks]
    buffer = np.empty((np.diff(bounds).max(), len(Q)))  # reused: no fresh pages per block
    for c0, c1, v0, v1 in zip(blocks[:-1], blocks[1:], bounds[:-1], bounds[1:]):
        st = starts[c0:c1] - v0
        S = np.matmul(verts[v0:v1], Q.T, out=buffer[:v1 - v0])
        S -= q
        inside[c0:c1] = np.logical_and.reduceat(np.logical_or.reduceat(S[:, :len(G)] > eps, st),
                                                rows[:-1], axis=1)
        means[c0:c1] = np.add.reduceat(verts[v0:v1], st) / sizes[c0:c1, None]
        fc, fp, v, n_on = _facets(S, st, sizes[c0:c1], dim, eps)
        area = _polygon_areas(verts[v0 + v[:, None], np.repeat(cols[fp], n_on, axis=0)], n_on)
        h = np.abs(np.einsum("nd,nd->n", Q[fp], means[c0 + fc]) - q[fp])  # distance times |Q|
        volumes[c0:c1] = np.bincount(fc, h * area * stretch[fp], c1 - c0) / dim
    return volumes, means, inside


def _interior_rep(verts, rng):
    w = 1.0 + 0.25 * rng.random(len(verts))
    return (verts * w[:, None]).sum(axis=0) / w.sum()


def chamber_decomposition(P, cap=10**6):
    """Chambers of constant normal count, with volumes and Morse profiles.

    A face counts on a cell of ``split_by_planes`` when each of its region
    rows exceeds eps at some cell vertex.  Cells below MIN_REL_VOLUME of
    Vol P are discarded as degenerate; the representative is the vertex mean.
    Raises InvariantViolation when the cell volumes do not sum to Vol P within
    VOLUME_CHECK relative, as on bodies whose facets are only near-planar.
    """
    cells = split_by_planes(P, cap)
    volumes, means, inside = _measure_cells(P, np.concatenate(cells),
                                            np.array([len(verts) for verts in cells]))
    residual = volumes.sum() - P.volume
    if abs(residual) > VOLUME_CHECK * P.volume:
        raise InvariantViolation(f"chamber volumes miss Vol P by {residual / P.volume:.3g} of it")
    keep = np.flatnonzero(volumes > MIN_REL_VOLUME * P.volume)
    return [Chamber(cells[i], means[i], float(volumes[i]), p.total, p)
            for i, p in zip(keep.tolist(), _profiles(P, inside[keep]))]


def spot_check_chamber(P, chamber, rng=None, samples=5):
    """Whether extra interior samples of the cell reproduce its count."""
    rng = default_rng(0) if rng is None else rng
    for _ in range(samples):
        for _ in range(20):
            y = _interior_rep(chamber.vertices, rng)
            m, s, M, marg = count_normals_batch(P, y[None, :])
            if not marg[0]:
                break
        else:  # pragma: no cover
            return False
        if int(m[0] + s[0] + M[0]) != chamber.count:
            return False
    return True


def max_normals(P, chambers=None):
    """(N, witness chamber): the maximum normal count over all chambers."""
    if chambers is None:
        chambers = chamber_decomposition(P)
    best = max(chambers, key=lambda c: c.count)
    return best.count, best


def exact_average(P, chambers=None):
    """Volume-weighted average normal count over the chamber decomposition."""
    if chambers is None:
        chambers = chamber_decomposition(P)
    return float(sum(c.volume * c.count for c in chambers) / P.volume)


def chamber_report(P, chambers=None):
    """JSON-ready chamber summary: per-cell volume and count, EN and N."""
    if chambers is None:
        chambers = chamber_decomposition(P)
    return {
        "chambers": [{"volume": float(c.volume), "count": int(c.count)}
                     for c in chambers],
        "EN": exact_average(P, chambers=chambers),
        "N": max(c.count for c in chambers),
    }


def monte_carlo_average(P, n_samples, seed=0):
    """(estimate, standard error) of the average count by rejection sampling.

    The samples are the first ``n_samples`` interior points of the stream
    ``default_rng(seed).uniform`` on the bounding box, drawn in rows sized
    from the fill ratio Vol P / Vol(box) (at most DRAW facet-product entries
    and 2 n + 64 rows each; the stream is the same however it is cut).  They
    are counted in one ``count_normals_batch`` call, and the marginal ones are
    perturbed to generic points after all draws, with the same generator.
    The estimate is the mean count; it equals that of earlier releases,
    which perturbed between draws, unless a sample is marginal.
    """
    if n_samples < 10**3:
        raise ValueError("need at least 1000 samples")
    rng = default_rng(seed)
    lo, hi = P.bounding_box()
    fill = P.volume / float(np.prod(hi - lo))
    cap = min(2 * n_samples + 64, DRAW // P.n_facets)
    tol = P.tol * max(1.0, P.diameter)
    kept, got = [], 0
    while got < n_samples:
        need = n_samples - got
        batch = rng.uniform(lo, hi, size=(min(int(1.25 * need / fill) + 64, cap), P.dim))
        batch = batch[(batch @ P.facet_normals.T <= P.facet_offsets - tol).all(axis=1)][:need]
        kept.append(batch)
        got += len(batch)
    Y = np.concatenate(kept)
    m, s, M, marg = count_normals_batch(P, Y)
    counts = (m + s + M).astype(float)
    for i in np.flatnonzero(marg):
        mm, ss, MM, _ = count_normals_batch(P, perturb_to_generic(P, Y[i], rng)[None, :])
        counts[i] = float(mm[0] + ss[0] + MM[0])
    est = float(counts.mean())
    stderr = float(counts.std(ddof=1) / np.sqrt(n_samples))
    return est, stderr


@dataclass(frozen=True)
class CrossingEvent:
    """One transversal sheet crossing along an audit segment."""

    t: float
    point: np.ndarray
    colors: frozenset
    profile_before: MorseProfile
    profile_after: MorseProfile

    @property
    def count_before(self):
        return self.profile_before.total

    @property
    def count_after(self):
        return self.profile_after.total


def crossing_audit(P, start, end, rng=None):
    """Sheet crossings along an interior segment, with profiles on both sides.

    Endpoints are perturbed to generic positions first.  An event is a group
    of face-interval endpoints within tolerance of each other; its colors are
    those of the sheets its rows lie on (facet rims and edge support rows
    blue, edge slab and vertex rows red; every row blue in 2-D).  Raises
    NonTransversal when one group's rows lie on more than one plane.
    """
    rng = default_rng(0) if rng is None else rng
    a = perturb_to_generic(P, np.asarray(start, dtype=float), rng)
    b = perturb_to_generic(P, np.asarray(end, dtype=float), rng)
    seg, scale = b - a, max(1.0, P.diameter)
    tol_t = max(P.tol, 1e-12) * scale / max(np.linalg.norm(seg), 1e-300)
    lo, hi, ends = _line_intervals(P, a, seg)
    groups, inside = _pieces(lo, hi, ends, 1.0, tol_t)
    profiles = _profiles(P, inside)
    G, c, starts, dims = P._region_rows[:4]
    events = []
    for i, rows in enumerate(groups):
        t = float(ends[rows[0]])
        # unit normals oriented along the first row's
        flip = np.where(G[rows] @ G[rows[0]] < 0.0, -1.0, 1.0) / np.linalg.norm(G[rows], axis=1)
        if len(_merge(G[rows] * flip[:, None], c[rows] * flip, scale)) > 1:
            raise NonTransversal(f"crossings of two planes within tolerance at t={t:.6g}")
        face = np.searchsorted(starts, rows, side="right") - 1
        red = (P.dim == 3) & ((dims[face] == 0) | ((dims[face] == 1) & (rows - starts[face] < 2)))
        colors = frozenset(np.where(red, "red", "blue").tolist())
        events.append(CrossingEvent(t, a + t * seg, colors, profiles[i], profiles[i + 1]))
    return events


def check_crossing_rule(event, dim):
    """Birth-death bookkeeping at one crossing: count +-2 with the color rule.

    Blue crossings trade a minimum and a saddle, red ones a maximum and a
    saddle; zero-change crossings (over-refined walls) must leave the whole
    profile untouched.  In 2-D a crossing trades a minimum and a maximum.
    """
    dm = event.profile_after.minima - event.profile_before.minima
    ds = event.profile_after.saddles - event.profile_before.saddles
    dM = event.profile_after.maxima - event.profile_before.maxima
    change = dm + ds + dM
    if change == 0:
        return dm == ds == dM == 0
    if abs(change) != 2:
        return False
    if dim == 2:
        return ds == 0 and dm == dM and abs(dm) == 1
    patterns = set()
    if "blue" in event.colors:
        patterns.add((1, 1, 0))
        patterns.add((-1, -1, 0))
    if "red" in event.colors:
        patterns.add((0, 1, 1))
        patterns.add((0, -1, -1))
    return (dm, ds, dM) in patterns
