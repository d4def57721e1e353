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
with exactly these rows and a min over each face's rows.  The signs of the
minima decide ``active``: each family's normalisation (the facet diameter;
the edge length, or the distance |w| to the edge line; |y - v|) is positive.
``near`` (within the fixed margins REL_MARGIN and CONE_MARGIN of the test's
boundary) is computed in full, but only on the minima that pass a necessary
bound, so it is exact; |w| and |y - v| are taken from coordinates there only.
``count_normals_batch`` reduces each block to its counts and flags, so memory
is held per block; single-face records, full record lists and
``perturb_to_generic`` read the whole mask table of ``_face_tests``.
"""

from __future__ import annotations

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
    boundary, where the count is unreliable.  Both come from ``_blocks``: the
    signs of each face's row minima decide ``active``, and the normalised
    margin is taken only where it can fall in the near band, so both are
    exact.  This table holds the masks of every point, for the callers that
    test one point; ``count_normals_batch`` holds one block's at a time.
    """
    T = P._region_rows
    F, V = P.n_facets, P.n_vertices
    active, near = np.empty((2, len(T.dims), len(Y)), dtype=bool)  # face-major, returned transposed
    for lo, act, nr in _blocks(P, Y):
        active[:, lo:lo + act.shape[1]], near[:, lo:lo + act.shape[1]] = act, nr
    families = [F, len(T.dims) - V][:P.dim - 1]
    return list(zip(np.split(active.T, families, axis=1), np.split(near.T, families, axis=1)))


def _blocks(P, Y):
    """Yield (lo, active, near) for each BLOCK of points Y[lo:lo + BLOCK]: its face-major masks.

    Each block takes one product with the region rows.  The BLAS product
    rounds differently for blocks of different widths, so the near points of
    each block are tested again from a product summed in a fixed order, which
    gives them the same masks in any batch.  The masks are reused from block
    to block; read them before the next one.
    """
    T = P._region_rows
    S = np.empty(len(T.K) * min(len(Y), BLOCK))  # reused: no fresh pages per block
    masks = np.empty((2, len(T.dims), min(len(Y), BLOCK)), dtype=bool)
    for lo in range(0, len(Y), BLOCK):
        Yb = Y[lo:lo + BLOCK].T
        n = Yb.shape[1]
        S1 = np.matmul(T.K, np.vstack([Yb, np.ones(n)]), out=S[:len(T.K) * n].reshape(-1, n))
        act, nr = masks[:, :, :n]
        _block_masks(P, S1, Yb, act, nr)
        flagged = np.flatnonzero(nr.any(axis=0))
        if len(flagged):
            Yf = Yb[:, flagged]
            Sf = sum(T.K[:, j, None] * Yf[j] for j in range(P.dim)) + T.K[:, -1:]
            fixed = np.empty((2, len(T.dims), len(flagged)), dtype=bool)
            _block_masks(P, Sf, Yf, *fixed)
            act[:, flagged], nr[:, flagged] = fixed
        yield lo, act, nr


def _block_masks(P, S1, Yb, act, nr):
    """Fill the face-major (active, near) masks of the points Yb (columns) from their
    product S1 = K @ [Yb, 1] with the region rows.

    A face is active when the minimum over its rows is positive, and a
    positive divisor keeps that sign, so ``active`` reads the raw minima.
    ``near`` is the normalised band: facet margins over the facet diameter,
    edge slab margins over the edge length and support margins over |w|,
    vertex margins over |y - v|, each within REL_MARGIN or CONE_MARGIN of 0.
    Only entries that pass a necessary bound on the raw minimum are divided,
    and only there are |w| (the distance to the edge line) and |y - v| taken
    from coordinates: 2 REL_MARGIN scale for facet and slab rows, CONE_MARGIN
    reach for cone rows.  reach is twice the extent of the block and the
    vertices, and at least 2: it bounds |y - v| and |w| with room for their
    rounding, and the divisor 1 taken at a zero norm.  On those entries the
    formula is the full one, so both masks are exact, for points outside P too.
    """
    T = P._region_rows
    F, V = P.n_facets, P.n_vertices
    E, n = len(T.dims) - F - V, Yb.shape[1]
    # raw minima, one row per test: each facet's and vertex's (a run of equal
    # row counts at a time), then each edge's slab and support minima
    m, col = np.empty((F + V + 2 * E, n)), 0
    for k, faces in T.runs:
        m[faces] = S1[col:col + k * len(faces)].reshape(k, -1, n).min(axis=0)
        col += k * len(faces)
    d, nd, h0, h1 = S1[col:].reshape(4, E, n)
    rel, cone = m[F + V:].reshape(2, E, n)
    np.minimum(d, nd, out=rel)
    np.minimum(h0, h1, out=cone)
    pos = m > 0.0
    act[:F], act[F + E:] = pos[:F], pos[F:F + V]
    np.logical_and(pos[F + V:F + V + E], pos[F + V + E:], out=act[F:F + E])
    # the near band, only on the minima within the bound of its test
    X = np.concatenate([P.vertices, Yb.T])
    reach = 2.0 * max(1.0, float(np.linalg.norm(X.max(axis=0) - X.min(axis=0))))
    bound = np.concatenate([2.0 * REL_MARGIN * T.scale[:F], np.full(V, CONE_MARGIN * reach),
                            2.0 * REL_MARGIN * T.scale[F:F + E], np.full(E, CONE_MARGIN * reach)])
    i, p = np.divmod(np.flatnonzero(np.abs(m) < bound[:, None]), n)
    nr[:] = False
    if not len(i):
        return
    a, b = np.searchsorted(i, [F, F + V])
    f, v, fp, vp = i[:a], i[a:b] - F, p[:a], p[a:b]
    nr[f, fp] = np.abs(m[f, fp] / T.scale[f]) < REL_MARGIN
    vn = np.sqrt(sum((P.vertices[v, j] - Yb[j, vp]) ** 2 for j in range(P.dim)))
    nr[F + E + v, vp] = np.abs(m[F + v, vp] / np.where(vn == 0.0, 1.0, vn)) < CONE_MARGIN
    if b == len(i):  # no edge entry is a candidate, as in 2-D
        return
    e, ep = (i[b:] - F - V) % E, p[b:]  # slab and support rows to edges
    r = rel[e, ep] / T.scale[F + e]
    z, u = Yb[:, ep] - P._edge_origin[e].T, P._edge_dir[e].T
    wn = np.linalg.norm(z - (z * u).sum(axis=0) * u, axis=0)  # |w|, the distance to the edge line
    c = cone[e, ep] / np.where(wn == 0.0, 1.0, wn)
    nr[F + e, ep] = (((np.abs(r) < REL_MARGIN) & (c > -CONE_MARGIN))
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
    Each block of points is reduced to its counts and flags as it is tested,
    so memory is held per block, not per (face, point) pair.
    """
    Y = np.atleast_2d(np.asarray(Y, dtype=float))
    F, V = P.n_facets, P.n_vertices
    counts = np.zeros((3, len(Y)), dtype=np.int32)  # summed narrow, returned as int
    marginal = np.empty(len(Y), dtype=bool)
    families = [(0, 0, F), (1, F, -V), (2, -V, None)] if P.dim == 3 else [(0, 0, F), (2, F, None)]
    for lo, act, nr in _blocks(P, Y):
        hi = lo + act.shape[1]
        for i, a, b in families:
            act[a:b].sum(axis=0, dtype=np.int32, out=counts[i, lo:hi])
        nr.any(axis=0, out=marginal[lo:hi])
    minima, saddles, maxima = counts.astype(int)
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

