"""Bifurcation set, chamber decomposition, maximum and average normal counts.

The active-region boundaries lie in finitely many planes: one per
(facet, boundary edge) incidence, orthogonal to the facet through the edge
("blue", minimum/saddle events), and one per (edge, endpoint) incidence,
orthogonal to the edge through the endpoint ("red", maximum/saddle events).
Splitting the body by the full affine hull of every sheet over-refines the
true chamber complex but never crosses a sheet, so the count is constant on
every cell.  In 2-D both sheet families coincide: the lines through each
vertex orthogonal to its incident edges bound edge strips and vertex cones
alike, and crossings trade a minimum and a maximum instead of touching
saddles.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.random import default_rng
from scipy.spatial import ConvexHull, QhullError

from .errors import NonTransversal, OnBifurcationSet, TooManyChambers
from .geometry import unit
from .normals import MorseProfile, count_normals_batch, perturb_to_generic

PLANE_TOL = 1e-9


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

    def side(self, points):
        return np.atleast_2d(points) @ self.normal - self.offset


@dataclass
class Chamber:
    """A convex cell of the sheet arrangement with its constant normal count."""

    vertices: np.ndarray
    rep_point: np.ndarray
    volume: float
    count: int
    profile: MorseProfile


def _canonical(normal, offset):
    n = unit(normal)
    if n[int(np.argmax(np.abs(n)))] < 0:
        n, offset = -n, -offset
    return n, float(offset)


def _dedup(raw, scale):
    """Merge coincident (normal, offset, source) triples into SheetPlanes."""
    out = []
    for n, b, color, src in raw:
        for n0, b0, c0, srcs in out:
            if c0 == color and abs(n @ n0 - 1.0) < PLANE_TOL and abs(b - b0) < PLANE_TOL * scale:
                srcs.append(src)
                break
        else:
            out.append((n, b, color, [src]))
    return [SheetPlane(n, b, c, tuple(srcs)) for n, b, c, srcs in out]


def sheet_planes(P):
    """All sheet planes of the bifurcation set, deduplicated per color.

    Raw incidence counts (sum of len(sources) per color) are 2E for blue and
    2E for red in 3-D.
    """
    scale = max(1.0, P.diameter)
    raw = []
    if P.dim == 3:
        for f, cycle in enumerate(P.facet_cycles):
            nf = P.facet_normals[f]
            k = len(cycle)
            for i in range(k):
                a, b = int(cycle[i]), int(cycle[(i + 1) % k])
                e = P.edge_index(a, b)
                d = unit(P.vertices[b] - P.vertices[a])
                n = unit(np.cross(d, nf))
                n, off = _canonical(n, float(n @ P.vertices[a]))
                raw.append((n, off, "blue", (f, e)))
        for e, (a, b) in enumerate(P.edges):
            d = unit(P.vertices[b] - P.vertices[a])
            for v in (int(a), int(b)):
                n, off = _canonical(d, float(d @ P.vertices[v]))
                raw.append((n, off, "red", (e, v)))
    else:
        # one family: per (edge, endpoint), the line through the endpoint
        # orthogonal to the edge
        for e, (a, b) in enumerate(P.edges):
            d = unit(P.vertices[b] - P.vertices[a])
            for v in (int(a), int(b)):
                n, off = _canonical(d, float(d @ P.vertices[v]))
                raw.append((n, off, "blue", (e, v)))
    return _dedup(raw, scale)


def arrangement_planes(P, planes=None):
    """Distinct cutting planes across colors, with the colors each carries."""
    if planes is None:
        planes = sheet_planes(P)
    scale = max(1.0, P.diameter)
    merged = []
    for sp in planes:
        for rec in merged:
            if (abs(sp.normal @ rec["normal"] - 1.0) < PLANE_TOL
                    and abs(sp.offset - rec["offset"]) < PLANE_TOL * scale):
                rec["colors"].add(sp.color)
                break
        else:
            merged.append({"normal": sp.normal, "offset": sp.offset,
                           "colors": {sp.color}})
    return merged


def point_on_sheet(P, sheet, q, tol=1e-7):
    """Whether q lies on an actual sheet region carried by ``sheet``.

    The plane extends beyond the true sheet; this checks q against each
    generating incidence (swept edge for blue, endpoint cap inside the edge
    cone for red).
    """
    q = np.asarray(q, dtype=float)
    scale = max(1.0, P.diameter)
    if abs(float(sheet.normal @ q - sheet.offset)) > tol * scale:
        return False
    for src in sheet.sources:
        if sheet.color == "blue" and P.dim == 3:
            f, e = src
            a, b = P.edges[e]
            d = unit(P.vertices[b] - P.vertices[a])
            t = (q - P.vertices[a]) @ d
            L = np.linalg.norm(P.vertices[b] - P.vertices[a])
            if -tol * scale <= t <= L + tol * scale:
                foot = P.vertices[a] + t * d
                depth = (q - foot) @ (-P.facet_normals[f])
                if depth >= -tol * scale:
                    return True
        else:
            e, v = src
            a, b = P.edges[e]
            d = unit(P.vertices[b] - P.vertices[a])
            w = q - P.vertices[v]
            if np.linalg.norm(w) < tol * scale:
                return True
            support = P.faces[1][e].cone_support if P.dim == 3 else None
            if support is None:
                nf = P.facet_normals[e]
                ok = (w @ (-nf)) >= -tol * scale
            else:
                ok = (support @ w).min() >= -tol * np.linalg.norm(w)
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


def _prune_section(points, normal):
    """Extreme points of a coplanar point cloud (the cut polygon's vertices)."""
    if len(points) <= 2:
        return points
    basis = _plane_basis(normal)
    flat = (points - points[0]) @ basis.T
    if flat.shape[1] == 1:
        imin, imax = int(np.argmin(flat[:, 0])), int(np.argmax(flat[:, 0]))
        return points[[imin, imax]]
    try:
        hull = ConvexHull(flat)
        return points[hull.vertices]
    except QhullError:
        span = flat[:, 0] if np.ptp(flat[:, 0]) >= np.ptp(flat[:, 1]) else flat[:, 1]
        return points[[int(np.argmin(span)), int(np.argmax(span))]]


def _dedup_points(points, eps):
    grid = np.round(points / eps)
    _, idx = np.unique(grid, axis=0, return_index=True)
    return points[np.sort(idx)]


def _section(verts, s, normal, eps):
    """Vertices of the polygon a plane cuts from a convex cell.

    ``s`` holds the signed plane distances of ``verts``.  Crossing points of
    all straddling vertex pairs lie in the cut polygon, and its true vertices
    (cell-edge crossings and on-plane cell vertices) are among them.
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
    return _prune_section(_dedup_points(section, max(eps, 1e-13)), normal)


def _split_cell(verts, normal, offset, eps):
    """Split a convex cell (vertex array) by a plane; returns (minus, plus)."""
    s = verts @ normal - offset
    if s.max() <= eps:
        return verts, None
    if s.min() >= -eps:
        return None, verts
    section = _section(verts, s, normal, eps)
    lo = _dedup_points(np.vstack([verts[s <= eps], section]), max(eps, 1e-13))
    hi = _dedup_points(np.vstack([verts[s >= -eps], section]), max(eps, 1e-13))
    return lo, hi


def _cell_volume(verts, dim):
    if len(verts) < dim + 1:
        return 0.0
    try:
        return float(ConvexHull(verts).volume)
    except QhullError:
        return 0.0


def split_by_planes(P, planes=None, cap=10**6):
    """Vertex sets of the arrangement cells inside P (over-refined chambers)."""
    if planes is None:
        planes = arrangement_planes(P)
    eps = 1e-12 * max(1.0, P.diameter)
    cells = [P.vertices.copy()]
    for rec in planes:
        n, b = rec["normal"], rec["offset"]
        nxt = []
        for verts in cells:
            lo, hi = _split_cell(verts, n, b, eps)
            if lo is not None:
                nxt.append(lo)
            if hi is not None:
                nxt.append(hi)
        cells = nxt
        if len(cells) > cap:
            raise TooManyChambers(f"arrangement exceeded {cap} cells")
    return cells


def plane_section(P, normal, offset):
    """Ordered polygon where a plane cuts through the polytope, or None."""
    eps = 1e-12 * max(1.0, P.diameter)
    pts = _section(P.vertices, P.vertices @ normal - offset, normal, eps)
    return pts if len(pts) >= P.dim else None


def _interior_rep(verts, rng):
    w = 1.0 + 0.25 * rng.random(len(verts))
    return (verts * w[:, None]).sum(axis=0) / w.sum()


def chamber_decomposition(P, planes=None, cap=10**6, rng=None,
                          min_rel_volume=1e-12):
    """Chambers of constant normal count, with volumes and Morse profiles.

    Cells thinner than ``min_rel_volume`` (relative to Vol P) are discarded as
    degenerate.  Representative points are interior vertex-weight jitters so
    they stay inside their own cell even when it is tiny.
    """
    rng = default_rng(0) if rng is None else rng
    cells = split_by_planes(P, planes, cap)
    kept, volumes = [], []
    floor = min_rel_volume * P.volume
    for verts in cells:
        vol = _cell_volume(verts, P.dim)
        if vol > floor:
            kept.append(verts)
            volumes.append(vol)
    reps = np.array([_interior_rep(v, rng) for v in kept])
    m, s, M, marginal = count_normals_batch(P, reps)
    drop = []
    for i in np.nonzero(marginal)[0]:
        for _ in range(50):
            cand = _interior_rep(kept[i], rng)
            cm, cs, cM, cmarg = count_normals_batch(P, cand[None, :])
            if not cmarg[0]:
                reps[i], m[i], s[i], M[i] = cand, cm[0], cs[0], cM[0]
                break
        else:
            # the whole cell sits inside a margin band of some face test: a
            # sub-tolerance sliver of the over-refinement, dropped like a
            # zero-volume cell (conservation is guarded by the test suite)
            drop.append(i)
    chambers = []
    for i, verts in enumerate(kept):
        if i in drop:
            continue
        profile = MorseProfile(int(m[i]), int(s[i]), int(M[i]))
        chambers.append(Chamber(verts, reps[i], volumes[i],
                                profile.total, profile))
    return chambers


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


def max_normals(P, chambers=None, cap=10**6, rng=None):
    """(N, witness chamber): the maximum normal count over all chambers."""
    if chambers is None:
        chambers = chamber_decomposition(P, cap=cap, rng=rng)
    best = max(chambers, key=lambda c: c.count)
    return best.count, best


def exact_average(P, chambers=None, cap=10**6, rng=None):
    """Volume-weighted average normal count over the chamber decomposition."""
    if chambers is None:
        chambers = chamber_decomposition(P, cap=cap, rng=rng)
    return float(sum(c.volume * c.count for c in chambers) / P.volume)


def chamber_report(P, chambers=None, cap=10**6, rng=None):
    """JSON-ready chamber summary: per-cell volume and count, EN and N."""
    if chambers is None:
        chambers = chamber_decomposition(P, cap=cap, rng=rng)
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


def crossing_audit(P, start, end, rng=None, planes=None):
    """Crossing events along an interior segment, with counts on both sides.

    Endpoints are perturbed to generic positions first.  Raises NonTransversal
    when two crossings coincide along the segment within tolerance.
    """
    rng = default_rng(0) if rng is None else rng
    a = perturb_to_generic(P, np.asarray(start, dtype=float), rng)
    b = perturb_to_generic(P, np.asarray(end, dtype=float), rng)
    if planes is None:
        planes = arrangement_planes(P)
    seg = b - a
    seg_len = np.linalg.norm(seg)
    tol_t = max(P.tol, 1e-12) * max(1.0, P.diameter) / max(seg_len, 1e-300)
    hits = []
    for rec in planes:
        denom = float(rec["normal"] @ seg)
        if abs(denom) < 1e-14 * max(1.0, P.diameter):
            continue
        t = (rec["offset"] - float(rec["normal"] @ a)) / denom
        if tol_t < t < 1.0 - tol_t:
            hits.append((t, rec))
    hits.sort(key=lambda h: h[0])
    for (t1, _), (t2, _) in zip(hits, hits[1:]):
        if t2 - t1 < tol_t:
            raise NonTransversal(f"two crossings within tolerance at t={t1:.6g}")
    cuts = [0.0] + [t for t, _ in hits] + [1.0]
    mids = np.array([a + 0.5 * (cuts[i] + cuts[i + 1]) * seg for i in range(len(cuts) - 1)])
    m, s, M, marg = count_normals_batch(P, mids)
    for i in np.nonzero(marg)[0]:
        lo_t, hi_t = cuts[i], cuts[i + 1]
        for frac in (0.3, 0.7, 0.45, 0.55, 0.62):
            y = a + (lo_t + frac * (hi_t - lo_t)) * seg
            cm, cs, cM, cmarg = count_normals_batch(P, y[None, :])
            if not cmarg[0]:
                m[i], s[i], M[i] = cm[0], cs[0], cM[0]
                break
        else:
            raise OnBifurcationSet(f"no generic probe inside interval {i}")
    profiles = [MorseProfile(int(m[i]), int(s[i]), int(M[i])) for i in range(len(mids))]
    events = []
    for i, (t, rec) in enumerate(hits):
        events.append(CrossingEvent(t, a + t * seg, frozenset(rec["colors"]),
                                    profiles[i], profiles[i + 1]))
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
