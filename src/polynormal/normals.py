"""Normals to the boundary from interior points.

Every face is tested independently: the query point must project into the
face's relative interior and the offset vector must lie in the face's inner
normal cone.  Minima live on facets, saddles on edges, maxima on vertices
(in 2-D: minima on edges, maxima on vertices).  Points within tolerance of
an active-region boundary raise OnBifurcationSet instead of returning an
unstable count.

One row table drives counting and chambers alike: ``Polytope._region_rows``
(facet rims; edge slab ``+-d`` and support rows; vertex edge directions),
built once per body.  ``_blocks`` takes one product of each block of points
with these rows and a min over each face's rows.  The signs of the minima
decide ``active``: each family's normalisation (the facet diameter; the edge
length, or the distance |w| to the edge line; |y - v|) is positive.
``near`` (within the fixed margins REL_MARGIN and CONE_MARGIN of the test's
boundary) is computed in full, but only on the minima that pass a necessary
bound, so it is exact; |w| and |y - v| are taken from coordinates there only.
``count_normals_batch`` multiplies only the facet and vertex rows, the
leading runs of the table, and in 3-D derives the saddles from the Morse
identity minima - saddles + maxima = 2 (at interior points); it reduces each
block to its counts and flags, so memory is held per block.  Single-face
records, full record lists and ``perturb_to_generic`` read the whole mask
table of ``_face_tests``, every family tested.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.random import default_rng

from .errors import FailedPerturbation, InvariantViolation, OnBifurcationSet
from .geometry import contains_interior

REL_MARGIN = 1e-8   # relative-interior margin, barycentric units
CONE_MARGIN = 1e-9  # cone membership margin, sine units
BLOCK = 512         # points per row product; masks are held one block at a time


@dataclass(frozen=True)
class NormalRecord:
    """One normal from y: its base face, base point, squared length and index."""

    face_key: tuple
    base_point: np.ndarray
    sq_dist: float
    morse_index: int


@dataclass(frozen=True)
class MorseProfile:
    """Counts of minima, saddles and maxima of the squared-distance function."""

    minima: int
    saddles: int
    maxima: int

    @property
    def total(self):
        return self.minima + self.saddles + self.maxima

    def as_tuple(self):
        return (self.minima, self.saddles, self.maxima)


def _face_keys(P):
    """Face dimension of each family in ``_face_tests``: facets, edges (3-D), vertices."""
    return tuple(range(P.dim - 1, -1, -1))


def _face_tests(P, Y):
    """The face-test table: one (active, near) (npts, faces) mask pair per ``_face_keys`` family.

    ``active`` says the face's test holds (foot inside the face, offset inside
    its normal cone); ``near`` says the test lands within tolerance of its
    boundary, where the count is unreliable.  Both come from ``_block_masks``:
    the signs of each face's row minima decide ``active``, and the normalised
    margin is taken only where it can fall in the near band, so both are
    exact.  This table holds the masks of every face and point, edges
    included, for the callers that test one point; ``count_normals_batch``
    holds one block's facet and vertex masks at a time.
    """
    T = P._region_rows
    F, V = P.n_facets, P.n_vertices
    active, near = np.empty((2, len(T.dims), len(Y)), dtype=bool)  # as _block_masks lays them out
    for lo, act, nr in _blocks(P, Y, T.K, _block_masks, len(T.dims)):
        active[:, lo:lo + act.shape[1]], near[:, lo:lo + act.shape[1]] = act, nr
    families = [slice(0, F), slice(F + V, None)][:P.dim - 1] + [slice(F, F + V)]  # _face_keys order
    return [(active[f].T, near[f].T) for f in families]


def _blocks(P, Y, K, fill, faces):
    """Yield (lo, active, near) for each BLOCK of points Y[lo:lo + BLOCK]: the face-major
    masks, ``faces`` rows high, that ``fill`` reads off the block's product with the rows K.

    K is ``RegionRows.K`` for every face (``_block_masks``) or its leading
    runs for the facets and vertices only (``_extreme_masks``).  The BLAS
    product rounds differently for blocks of different widths, so the near
    points of each block are tested again from a product summed in a fixed
    order, which gives them the same masks in any batch.  The masks are
    reused from block to block; read them before the next one.
    """
    S = np.empty(len(K) * min(len(Y), BLOCK))  # reused: no fresh pages per block
    masks = np.empty((2, faces, min(len(Y), BLOCK)), dtype=bool)
    for lo in range(0, len(Y), BLOCK):
        Yb = Y[lo:lo + BLOCK].T
        n = Yb.shape[1]
        S1 = np.matmul(K, np.vstack([Yb, np.ones(n)]), out=S[:len(K) * n].reshape(-1, n))
        act, nr = masks[:, :, :n]
        fill(P, S1, Yb, act, nr)
        flagged = np.flatnonzero(nr.any(axis=0))
        if len(flagged):
            Yf = Yb[:, flagged]
            Sf = sum(K[:, j, None] * Yf[j] for j in range(P.dim)) + K[:, -1:]
            fixed = np.empty((2, faces, len(flagged)), dtype=bool)
            fill(P, Sf, Yf, *fixed)
            act[:, flagged], nr[:, flagged] = fixed
        yield lo, act, nr


def _extreme_masks(P, S1, Yb, act, nr):
    """Fill the (active, near) masks of the facets, then the vertices, for the points Yb
    (columns) from S1, whose leading rows are the product of ``RegionRows.K``'s facet
    and vertex runs with [Yb, 1]; return the reach it used.

    A face is active when the minimum over its rows is positive, and a
    positive divisor keeps that sign, so ``active`` reads the raw minima.
    ``near`` is the normalised band: facet margins over the facet diameter
    within REL_MARGIN of 0, vertex margins over |y - v| within CONE_MARGIN.
    Only entries that pass a necessary bound on the raw minimum are divided,
    and only there is |y - v| taken from coordinates: 2 REL_MARGIN scale for
    facet rows, CONE_MARGIN reach for vertex rows.  reach is twice the extent
    of the block and the vertices, and at least 2: it bounds |y - v| (and
    |w|, the distance to an edge line) with room for its rounding, and the
    divisor 1 taken at a zero norm.  On those entries the formula is the full
    one, so both masks are exact, for points outside P too.
    """
    T = P._region_rows
    F, n = P.n_facets, Yb.shape[1]
    m, col = np.empty(act.shape), 0  # raw minima: a run of equal row counts at a time
    for k, faces in T.runs:
        m[faces] = S1[col:col + k * len(faces)].reshape(k, -1, n).min(axis=0)
        col += k * len(faces)
    np.greater(m, 0.0, out=act)
    X = np.concatenate([P.vertices, Yb.T])
    extent = X.max(axis=0) - X.min(axis=0)
    reach = 2.0 * max(1.0, math.sqrt(extent @ extent))
    bound = np.concatenate([2.0 * REL_MARGIN * T.scale[:F],
                            np.full(len(m) - F, CONE_MARGIN * reach)])
    i, p = np.divmod(np.flatnonzero(np.abs(m) < bound[:, None]), n)
    nr[:] = False
    if not len(i):
        return reach
    a = np.searchsorted(i, F)
    f, v, fp, vp = i[:a], i[a:], p[:a], p[a:]
    nr[f, fp] = np.abs(m[f, fp] / T.scale[f]) < REL_MARGIN
    vn = np.sqrt(sum((P.vertices[v - F, j] - Yb[j, vp]) ** 2 for j in range(P.dim)))
    nr[v, vp] = np.abs(m[v, vp] / np.where(vn == 0.0, 1.0, vn)) < CONE_MARGIN
    return reach


def _block_masks(P, S1, Yb, act, nr):
    """Fill the face-major (active, near) masks of every face, facets, vertices, then
    edges (3-D), for the points Yb (columns) from their product S1 = K @ [Yb, 1] with
    all the region rows.

    The facets and vertices are ``_extreme_masks``'s, in place.  An edge is
    active when its slab minimum (over the rows +-d) and its support minimum
    are both positive.  Its near band is the slab margin over the edge length
    and the support margin over |w|, the distance to the edge line, each
    within REL_MARGIN or CONE_MARGIN of 0; as for the other faces, it is taken
    in full only where one raw minimum lies within its bound (2 REL_MARGIN
    length, CONE_MARGIN reach), and only there is |w| taken from coordinates.
    """
    T = P._region_rows
    F, V = P.n_facets, P.n_vertices
    E, n = len(T.dims) - F - V, Yb.shape[1]
    reach = _extreme_masks(P, S1, Yb, act[:F + V], nr[:F + V])
    if not E:  # a polygon has no edge family
        return
    d, nd, h0, h1 = S1[len(S1) - 4 * E:].reshape(4, E, n)
    rel, cone = np.minimum(d, nd), np.minimum(h0, h1)
    np.logical_and(rel > 0.0, cone > 0.0, out=act[F + V:])
    e, ep = np.divmod(np.flatnonzero((np.abs(rel) < 2.0 * REL_MARGIN * T.scale[F:F + E, None])
                                     | (np.abs(cone) < CONE_MARGIN * reach)), n)
    nr[F + V:] = False
    if not len(e):
        return
    r = rel[e, ep] / T.scale[F + e]
    z, u = Yb[:, ep] - P._edge_origin[e].T, P._edge_dir[e].T
    wn = np.linalg.norm(z - (z * u).sum(axis=0) * u, axis=0)  # |w|, the distance to the edge line
    c = cone[e, ep] / np.where(wn == 0.0, 1.0, wn)
    nr[F + V + e, ep] = (((np.abs(r) < REL_MARGIN) & (c > -CONE_MARGIN))
                         | ((np.abs(c) < CONE_MARGIN) & (r > -REL_MARGIN)))


def _records(P, dim, faces, y):
    """The normals from y based on ``faces`` of one dimension, whose tests are known to hold."""
    if dim == P.dim - 1:
        n = P.facet_normals[faces]
        z = y - ((n * y).sum(axis=1) - P.facet_offsets[faces])[:, None] * n
    elif dim == 1:
        a, d = P._edge_origin[faces], P._edge_dir[faces]
        z = a + ((y - a) * d).sum(axis=1)[:, None] * d
    else:
        z = P.vertices[faces]
    sq = ((z - y) ** 2).sum(axis=1)
    return [NormalRecord((dim, f), p, s, (P.dim - 1) - dim)
            for f, p, s in zip(faces.tolist(), z, sq.tolist())]


def count_normals_batch(P, Y):
    """Vectorized normal counting for many interior points at once.

    Returns (minima, saddles, maxima, marginal): integer arrays of per-point
    counts plus a boolean mask of points sitting within tolerance of some
    active-region boundary (their counts are unreliable; perturb and retry).
    Only the facet and vertex rows are multiplied: in 3-D the saddles follow
    from the Morse identity m - s + M = 2, which holds at interior points
    only, so the counts of points outside P are not normal counts.  Every
    sheet bounds a facet or a vertex region (an edge's support rows are its
    facets' rims, its slab rows its vertices' rows), so the facet and vertex
    near bands flag every point whose derived count could be wrong.  Each
    block of points is reduced to its counts and flags as it is tested, so
    memory is held per block, not per (face, point) pair.
    """
    Y = np.atleast_2d(np.asarray(Y, dtype=float))
    T = P._region_rows
    F, V = P.n_facets, P.n_vertices
    E = len(T.dims) - F - V
    counts = np.zeros((2, len(Y)), dtype=np.int32)  # summed narrow, returned as int
    marginal = np.empty(len(Y), dtype=bool)
    for lo, act, nr in _blocks(P, Y, T.K[:len(T.K) - 4 * E], _extreme_masks, F + V):
        hi = lo + act.shape[1]
        act[:F].sum(axis=0, dtype=np.int32, out=counts[0, lo:hi])
        act[F:].sum(axis=0, dtype=np.int32, out=counts[1, lo:hi])
        nr.any(axis=0, out=marginal[lo:hi])
    minima, maxima = counts.astype(int)
    saddles = minima + maxima - 2 if P.dim == 3 else np.zeros_like(minima)
    return minima, saddles, maxima, marginal


def face_normal_from(P, face, y):
    """The normal from y based on the given face, or None.

    Raises OnBifurcationSet when a margin test lands within tolerance of its
    boundary, i.e. the base point sits on the face's rim or the offset vector
    grazes the cone.
    """
    if not isinstance(face, tuple):
        face = face.key
    dim, idx = face
    if dim not in _face_keys(P):
        raise ValueError(f"no face dimension {dim} in a {P.dim}-polytope")
    y = np.asarray(y, dtype=float)
    active, near = _face_tests(P, y[None, :])[_face_keys(P).index(dim)]
    if near[0, idx]:
        raise OnBifurcationSet(f"face {(dim, idx)} test within tolerance of its boundary")
    if not active[0, idx]:
        return None
    return _records(P, dim, np.array([idx]), y)[0]


def normals_from_point(P, y):
    """All normals from an interior point, sorted by squared length.

    Raises OnBifurcationSet for non-generic points and ValueError for points
    that are not strictly interior.
    """
    y = np.asarray(y, dtype=float)
    if not contains_interior(P, y, tol=P.tol * max(1.0, P.diameter)):
        raise ValueError("query point is not strictly interior")
    tests = _face_tests(P, y[None, :])
    records = []
    for dim, (active, near) in zip(_face_keys(P), tests):
        if near.any():
            face = (dim, int(near[0].argmax()))
            raise OnBifurcationSet(f"face {face} test within tolerance of its boundary")
        records += _records(P, dim, np.flatnonzero(active[0]), y)
    records.sort(key=lambda r: r.sq_dist)
    return records


def profile_of(records):
    """Morse profile of a record list (saddles exist only in 3-D)."""
    minima = sum(1 for r in records if r.morse_index == 0)
    maxima = sum(1 for r in records if r.face_key[0] == 0)
    return MorseProfile(minima, len(records) - minima - maxima, maxima)


def check_profile(profile, dim):
    """Assert the Morse count identities; raises InvariantViolation."""
    m, s, M = profile.as_tuple()
    if dim == 3:
        if m - s + M != 2:
            raise InvariantViolation(f"m - s + M == 2 failed: ({m}, {s}, {M})")
        if profile.total != 2 + 2 * s:
            raise InvariantViolation(f"total == 2 + 2*saddles failed: ({m}, {s}, {M})")
    else:
        if s != 0 or m != M:
            raise InvariantViolation(f"2-D profile must satisfy s == 0, m == M: ({m}, {s}, {M})")
    if profile.total % 2 != 0:
        raise InvariantViolation(f"normal count must be even: ({m}, {s}, {M})")


def morse_profile(P, y):
    """Morse profile at a generic interior point, with invariants asserted."""
    records = normals_from_point(P, y)
    profile = profile_of(records)
    check_profile(profile, P.dim)
    return profile


def perturb_to_generic(P, y, rng=None, max_tries=100):
    """Nudge y off the bifurcation set without losing stable normals.

    Returns y itself when it is already generic.  Otherwise samples nearby
    interior points, keeps the generic ones, and returns the one with the
    largest count (crossing a sheet never loses the normals whose tests hold
    with full margin, and picking the max honors the side where the marginal
    pair survives).
    """
    y = np.asarray(y, dtype=float)
    rng = default_rng(0) if rng is None else rng
    interior_tol = P.tol * max(1.0, P.diameter)
    if not contains_interior(P, y, tol=interior_tol):
        raise ValueError("query point is not strictly interior")
    tests = _face_tests(P, y[None, :])
    if not any(near.any() for _, near in tests):
        return y
    # stable lower bound: faces active with a full margin survive any nearby move
    stable = sum(int((active & ~near).sum()) for active, near in tests)
    best, best_count = None, -1
    step = max(P.diameter * 1e-7, 10.0 * interior_tol)
    found = 0
    for attempt in range(max_tries):
        cand = y + step * _random_unit(rng, P.dim)
        if not contains_interior(P, cand, tol=interior_tol):
            continue
        cm, cs, cM, cmarg = count_normals_batch(P, cand[None, :])
        if cmarg[0]:
            if attempt % 8 == 7:
                step *= 2.0
            continue
        total = int(cm[0] + cs[0] + cM[0])
        found += 1
        if total > best_count:
            best, best_count = cand, total
        if found >= 8:
            break
    if best is None or best_count < stable:
        raise FailedPerturbation(f"no generic point found within {max_tries} tries")
    return best


def _random_unit(rng, dim):
    v = rng.standard_normal(dim)
    n = np.linalg.norm(v)
    while n < 1e-12:  # pragma: no cover
        v = rng.standard_normal(dim)
        n = np.linalg.norm(v)
    return v / n

