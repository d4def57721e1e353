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
All cells share one stacked vertex array: a row's signed distances are one
product, ``reduceat`` over the cell starts picks the straddled cells, and a
cut polygon is the Qhull hull of the crossing points and on-plane vertices,
with no point set rounded to a grid.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.random import default_rng
from scipy.spatial import ConvexHull, QhullError

from .errors import NonTransversal, TooManyChambers
from .geometry import unit
from .normals import MorseProfile, count_normals_batch, perturb_to_generic

PLANE_TOL = 1e-9        # coincidence of sheet planes: normal cosine and offset
ON_SHEET_TOL = 1e-7     # point_on_sheet slack, relative to the body's scale
MIN_REL_VOLUME = 1e-12  # cells below this fraction of Vol P are degenerate


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


def _merge(normals, offsets, scale):
    """Groups of coincident planes, as index arrays in order of first member.

    Planes i and j coincide when |<n_i, n_j> - 1| and |b_i - b_j| / scale are
    below PLANE_TOL.  Planes whose first coincident plane is the same form one
    group, and its first member represents it: for planes that coincide only
    up to rounding noise this is the first-match merge in input order.
    """
    first = ((np.abs(normals @ normals.T - 1.0) < PLANE_TOL)
             & (np.abs(offsets[:, None] - offsets[None, :]) < PLANE_TOL * scale)).argmax(axis=1)
    order = np.argsort(first, kind="stable")
    return np.split(order, np.flatnonzero(np.diff(first[order])) + 1)


def _sheets(P, normals, offsets, color, sources):
    """SheetPlanes of one color from stacked (normal, offset) rows and their sources."""
    # sign convention: the largest-magnitude normal component is positive
    pivot = normals[np.arange(len(normals)), np.abs(normals).argmax(axis=1)]
    sign = np.where(pivot < 0, -1.0, 1.0)
    normals, offsets = normals * sign[:, None], offsets * sign
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
    edge_id = {(a, b): e for e, (a, b) in enumerate(P.edges.tolist())}
    rim_edges = [(f, edge_id[min(a, b), max(a, b)])
                 for f, cycle in enumerate(P.facet_cycles)
                 for a, b in zip(cycle.tolist(), np.roll(cycle, -1).tolist())]
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


def _plane_basis(normal):
    n = unit(normal)
    if len(n) == 2:
        return np.array([[-n[1], n[0]]])
    t = np.array([1.0, 0.0, 0.0]) if abs(n[0]) < 0.9 else np.array([0.0, 1.0, 0.0])
    u = unit(t - (t @ n) * n)
    return np.array([u, np.cross(n, u)])


def _prune_section(points, basis, eps):
    """Extreme points of a coplanar point cloud (the cut polygon's vertices).

    ``basis`` holds orthonormal rows spanning the plane (``_plane_basis``).
    Qhull keeps two hull vertices that differ by rounding noise (an on-plane
    cell vertex and a crossing point that lands on it), so a polygon vertex
    within ``eps`` of the next one in hull order is dropped.
    """
    if len(points) <= 2:
        return points
    flat = (points - points[0]) @ basis.T
    if flat.shape[1] == 1:
        imin, imax = int(np.argmin(flat[:, 0])), int(np.argmax(flat[:, 0]))
        return points[[imin, imax]]
    try:
        ring = points[ConvexHull(flat).vertices]
        return ring[np.abs(ring - np.concatenate((ring[1:], ring[:1]))).max(axis=1) > eps]
    except QhullError:
        span = flat[:, 0] if np.ptp(flat[:, 0]) >= np.ptp(flat[:, 1]) else flat[:, 1]
        return points[[int(np.argmin(span)), int(np.argmax(span))]]


def _section(verts, s, basis, eps):
    """Vertices of the polygon a plane cuts from a convex cell.

    ``s`` holds the signed plane distances of ``verts``.  Crossing points of
    all straddling vertex pairs lie in the cut polygon, and its true vertices
    (cell-edge crossings and on-plane cell vertices) are among them;
    ``_prune_section`` keeps one copy of each.
    """
    plus = s > eps
    minus = s < -eps
    on = ~plus & ~minus
    vi, vj = verts[plus], verts[minus]
    si, sj = s[plus], s[minus]
    denom = si[:, None] - sj[None, :]
    lam = si[:, None] / denom
    cross = vi[:, None, :] + lam[..., None] * (vj[None, :, :] - vi[:, None, :])
    cross = cross.reshape(-1, verts.shape[1])
    section = np.vstack([cross, verts[on]]) if on.any() else cross
    return _prune_section(section, basis, eps)


def _split_cell(verts, s, basis, eps):
    """(minus, plus) halves of a cell straddling a plane; ``s`` as in ``_section``.

    The cut polygon holds the on-plane vertices, so each half is the strict
    side's vertices plus the cut polygon.
    """
    section = _section(verts, s, basis, eps)
    return (np.vstack([verts[s < -eps], section]),
            np.vstack([verts[s > eps], section]))


def _cell_volume(verts, dim):
    if len(verts) < dim + 1:
        return 0.0
    try:
        return float(ConvexHull(verts).volume)
    except QhullError:
        return 0.0


def split_by_planes(P, cap=10**6):
    """Vertex sets of cells inside P on which every active region is decided.

    A cell straddling row r of face F is cut along r only while F is not
    *out* on it (some row of F <= eps at every cell vertex); the minus half
    comes before the plus half, and every other cell stays where it is.
    """
    eps = 1e-12 * max(1.0, P.diameter)
    G, c, rows = P._region_rows[:3]
    verts = P.vertices.copy()
    sizes = np.array([len(verts)])
    for a, b in zip(rows[:-1], rows[1:]):
        S = verts @ G[a:b].T - c[a:b]
        for r in range(b - a):
            ends = np.cumsum(sizes)
            starts = ends - sizes
            s = S[:, r]
            cut = np.flatnonzero((np.maximum.reduceat(S, starts).min(axis=1) > eps)
                                 & (np.minimum.reduceat(s, starts) < -eps))
            if len(cut):
                basis = _plane_basis(G[a + r])
                blocks, block_sizes, pos, at = [], [], 0, 0
                for i in cut.tolist():
                    lo, hi = _split_cell(verts[starts[i]:ends[i]], s[starts[i]:ends[i]],
                                         basis, eps)
                    blocks += [verts[pos:starts[i]], lo, hi]
                    block_sizes += [sizes[at:i], [len(lo), len(hi)]]
                    pos, at = ends[i], i + 1
                blocks.append(verts[pos:])
                block_sizes.append(sizes[at:])
                verts, sizes = np.vstack(blocks), np.concatenate(block_sizes)
                S = verts @ G[a:b].T - c[a:b]
            if len(sizes) > cap:
                raise TooManyChambers(f"chamber split exceeded {cap} cells")
    return np.split(verts, np.cumsum(sizes)[:-1])


def plane_section(P, normal, offset):
    """Ordered polygon where a plane cuts through the polytope, or None."""
    eps = 1e-12 * max(1.0, P.diameter)
    pts = _section(P.vertices, P.vertices @ normal - offset, _plane_basis(normal), eps)
    return pts if len(pts) >= P.dim else None


def _interior_rep(verts, rng):
    w = 1.0 + 0.25 * rng.random(len(verts))
    return (verts * w[:, None]).sum(axis=0) / w.sum()


def chamber_decomposition(P, cap=10**6):
    """Chambers of constant normal count, with volumes and Morse profiles.

    A face counts on a cell of ``split_by_planes`` when each of its region
    rows exceeds eps at some cell vertex.  Cells below MIN_REL_VOLUME of
    Vol P are discarded as degenerate; the representative is the vertex mean.
    """
    cells = split_by_planes(P, cap)
    volumes = np.array([_cell_volume(verts, P.dim) for verts in cells])
    keep = np.flatnonzero(volumes > MIN_REL_VOLUME * P.volume)
    cells = [cells[i] for i in keep]
    verts = np.vstack(cells)
    starts = np.cumsum([0] + [len(v) for v in cells[:-1]])
    eps = 1e-12 * max(1.0, P.diameter)
    G, c, rows = P._region_rows[:3]
    inside = np.column_stack([
        (np.maximum.reduceat(verts @ G[a:b].T - c[a:b], starts) > eps).all(axis=1)
        for a, b in zip(rows[:-1], rows[1:])])
    return [Chamber(cell, cell.mean(axis=0), float(vol), p.total, p)
            for cell, vol, p in zip(cells, volumes[keep], _profiles(P, inside))]


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
    """(estimate, standard error) of the average count by rejection sampling."""
    if n_samples < 10**3:
        raise ValueError("need at least 1000 samples")
    rng = default_rng(seed)
    lo, hi = P.bounding_box()
    counts = np.empty(n_samples)
    got = 0
    tol = P.tol * max(1.0, P.diameter)
    while got < n_samples:
        batch = rng.uniform(lo, hi, size=(2 * (n_samples - got) + 64, P.dim))
        inside = (batch @ P.facet_normals.T <= P.facet_offsets - tol).all(axis=1)
        batch = batch[inside]
        if not len(batch):
            continue
        take = min(len(batch), n_samples - got)
        batch = batch[:take]
        m, s, M, marg = count_normals_batch(P, batch)
        tot = (m + s + M).astype(float)
        for i in np.nonzero(marg)[0]:
            y = perturb_to_generic(P, batch[i], rng)
            mm, ss, MM, _ = count_normals_batch(P, y[None, :])
            tot[i] = float(mm[0] + ss[0] + MM[0])
        counts[got:got + take] = tot
        got += take
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
