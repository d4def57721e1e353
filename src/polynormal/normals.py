"""Normals to the boundary from interior points.

Every face is tested independently: the query point must project into the
face's relative interior and the offset vector must lie in the face's inner
normal cone.  Minima live on facets, saddles on edges, maxima on vertices
(in 2-D: minima on edges, maxima on vertices).  Points within tolerance of
an active-region boundary raise OnBifurcationSet instead of returning an
unstable count.

One row table drives counting and chambers alike: ``Polytope._region_rows``
(facet rims; edge slab ``+-d`` and support rows; vertex edge directions),
built once per body.  ``_face_tests`` takes one product of each block of
points with it and a min over each face's rows, then normalises per family:
facet margins by the facet diameter, edge slab margins by the edge length
and support margins by the distance |w| to the edge line, vertex margins by
|y - v|.  Batch counts, single-face records, full record lists and
``perturb_to_generic`` all read its ``active`` and ``near`` (within tolerance
of the test's boundary) masks, with the fixed margins REL_MARGIN and
CONE_MARGIN.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.random import default_rng

from .errors import FailedPerturbation, InvariantViolation, OnBifurcationSet
from .geometry import contains_interior

REL_MARGIN = 1e-8   # relative-interior margin, barycentric units
CONE_MARGIN = 1e-9  # cone membership margin, sine units
BLOCK = 512         # points per row product in ``_face_tests``


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
    boundary, where the count is unreliable.  Points go through in blocks of
    BLOCK, one product with the region rows each, so memory stays bounded.
    The BLAS product rounds differently for blocks of different widths, so
    the near points of each block are tested again from a product summed in
    a fixed order, which gives them the same masks in any batch.
    """
    T = P._region_rows
    F, V = P.n_facets, P.n_vertices
    E = len(T.dims) - F - V
    active, near = np.empty((2, len(T.dims), len(Y)), dtype=bool)  # face-major, returned transposed
    S = np.empty(len(T.K) * min(len(Y), BLOCK))  # reused: no fresh pages per block
    for lo in range(0, len(Y), BLOCK):
        Yb = Y[lo:lo + BLOCK].T
        n = Yb.shape[1]
        S1 = np.matmul(T.K, np.vstack([Yb, np.ones(n)]), out=S[:len(T.K) * n].reshape(-1, n))
        act, nr = active[:, lo:lo + n], near[:, lo:lo + n]
        _block_masks(P, S1, Yb, act, nr)
        flagged = np.flatnonzero(nr.any(axis=0))
        if len(flagged):
            Yf = Yb[:, flagged]
            Sf = sum(T.K[:, j, None] * Yf[j] for j in range(P.dim)) + T.K[:, -1:]
            masks = np.empty((2, len(T.dims), len(flagged)), dtype=bool)
            _block_masks(P, Sf, Yf, *masks)
            act[:, flagged], nr[:, flagged] = masks
    families = [F, F + E][:P.dim - 1]
    return list(zip(np.split(active.T, families, axis=1), np.split(near.T, families, axis=1)))


def _block_masks(P, S1, Yb, act, nr):
    """Fill the face-major (active, near) masks of the points Yb (columns) from their
    product S1 = K @ [Yb, 1] with the region rows."""
    T = P._region_rows
    F, V = P.n_facets, P.n_vertices
    E, n = len(T.dims) - F - V, Yb.shape[1]
    # min over each facet's and vertex's rows, a run of equal row counts at a
    # time, then each family's positive normalisation
    m, col = np.empty((F + V, n)), 0
    for k, faces in T.runs:
        m[faces] = S1[col:col + k * len(faces)].reshape(k, -1, n).min(axis=0)
        col += k * len(faces)
    fm = m[:F] / T.scale[:F, None]
    vn = np.sqrt(sum((P.vertices[:, j, None] - Yb[j]) ** 2 for j in range(P.dim)))
    vm = m[F:] / np.where(vn == 0.0, 1.0, vn)
    d, nd, h0, h1, u0, u1 = S1[col:].reshape(6, E, n)
    rel = np.minimum(d, nd) / T.scale[F:F + E, None]
    wn = np.sqrt(u0 * u0 + u1 * u1)  # |w|, the offset from the edge line
    cone = np.minimum(h0, h1) / np.where(wn == 0.0, 1.0, wn)
    act[:F], nr[:F] = fm > 0.0, np.abs(fm) < REL_MARGIN
    act[F:F + E] = (rel > 0.0) & (cone > 0.0)
    nr[F:F + E] = (((np.abs(rel) < REL_MARGIN) & (cone > -CONE_MARGIN))
                   | ((np.abs(cone) < CONE_MARGIN) & (rel > -REL_MARGIN)))
    act[F + E:], nr[F + E:] = vm > 0.0, np.abs(vm) < CONE_MARGIN


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
    """
    Y = np.atleast_2d(np.asarray(Y, dtype=float))
    tests = _face_tests(P, Y)
    counts = [active.sum(axis=1) for active, _ in tests]
    if P.dim == 2:
        counts.insert(1, np.zeros(len(Y), dtype=int))
    marginal = np.any([near.any(axis=1) for _, near in tests], axis=0)
    minima, saddles, maxima = counts
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

