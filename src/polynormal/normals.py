"""Normals to the boundary from interior points.

Every face is tested independently: the query point must project into the
face's relative interior and the offset vector must lie in the face's inner
normal cone.  Minima live on facets, saddles on edges, maxima on vertices
(in 2-D: minima on edges, maxima on vertices).  Points within tolerance of
an active-region boundary raise OnBifurcationSet instead of returning an
unstable count.

One table drives all counting: ``_face_tests`` evaluates every face's test
once per point, as an ``active`` mask and a ``near`` (within tolerance of the
test's boundary) mask per face family.  Batch counts, single-face records,
full record lists and the stable count of ``perturb_to_generic`` all read it,
with the fixed margins REL_MARGIN and CONE_MARGIN.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.random import default_rng

from .errors import FailedPerturbation, InvariantViolation, OnBifurcationSet
from .geometry import contains_interior

REL_MARGIN = 1e-8   # relative-interior margin, barycentric units
CONE_MARGIN = 1e-9  # cone membership margin, sine units


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


def _facet_margins(P, Y):
    """(npts, F) scaled margins of the projected feet inside their facets."""
    npts = Y.shape[0]
    out = np.empty((npts, P.n_facets))
    for f in range(P.n_facets):
        n = P.facet_normals[f]
        d = Y @ n - P.facet_offsets[f]
        Z = Y - d[:, None] * n
        W, c, scale = P._facet_rims[f]
        out[:, f] = (Z @ W.T - c).min(axis=1) / scale
    return out


def _edge_margins(P, Y):
    """(npts, E) relative-interior and cone margins for every edge (3-D)."""
    a = P._edge_origin
    d = P._edge_dir
    L = P._edge_len
    diff = Y[:, None, :] - a[None, :, :]
    t = np.einsum("ped,ed->pe", diff, d)
    rel = np.minimum(t, L[None, :] - t) / L[None, :]
    w = diff - t[..., None] * d[None, :, :]
    wn = np.linalg.norm(w, axis=2)
    wn = np.where(wn == 0.0, 1.0, wn)
    h = P._edge_support  # (E, 2, 3)
    cone = np.minimum(np.einsum("ped,ed->pe", w, h[:, 0]),
                      np.einsum("ped,ed->pe", w, h[:, 1])) / wn
    return rel, cone


def _vertex_margins(P, Y):
    """(npts, V) cone margins: worst inner product with the incident edge directions."""
    npts = Y.shape[0]
    out = np.empty((npts, P.n_vertices))
    for v in range(P.n_vertices):
        w = Y - P.vertices[v]
        wn = np.linalg.norm(w, axis=1)
        wn = np.where(wn == 0.0, 1.0, wn)
        out[:, v] = (w @ P._vertex_dirs[v].T).min(axis=1) / wn
    return out


def _face_keys(P):
    """Face dimension of each family in ``_face_tests``: facets, edges (3-D), vertices."""
    return tuple(range(P.dim - 1, -1, -1))


def _face_tests(P, Y):
    """The face-test table: one (active, near) pair of (npts, faces) masks per family.

    ``active`` says the face's test holds (foot inside the face, offset inside
    its normal cone); ``near`` says the test lands within tolerance of its
    boundary, where the count is unreliable.
    """
    fm = _facet_margins(P, Y)
    tests = [(fm > 0.0, np.abs(fm) < REL_MARGIN)]
    if P.dim == 3:
        rel, cone = _edge_margins(P, Y)
        near = (((np.abs(rel) < REL_MARGIN) & (cone > -CONE_MARGIN))
                | ((np.abs(cone) < CONE_MARGIN) & (rel > -REL_MARGIN)))
        tests.append(((rel > 0.0) & (cone > 0.0), near))
    vm = _vertex_margins(P, Y)
    tests.append((vm > 0.0, np.abs(vm) < CONE_MARGIN))
    return tests


def _record(P, key, y):
    """The normal from y based on face ``key``, whose test is known to hold."""
    dim, idx = key
    if dim == P.dim - 1:
        n = P.facet_normals[idx]
        z = y - (y @ n - P.facet_offsets[idx]) * n
    elif dim == 1:
        a = P._edge_origin[idx]
        t = (y - a) @ P._edge_dir[idx]
        z = a + t * P._edge_dir[idx]
    else:
        z = P.vertices[idx].copy()
    return NormalRecord(key, z, float(np.sum((z - y) ** 2)), (P.dim - 1) - dim)


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
    y = np.asarray(y, dtype=float)
    active, near = _face_tests(P, y[None, :])[_face_keys(P).index(dim)]
    if near[0, idx]:
        raise OnBifurcationSet(f"face {(dim, idx)} test within tolerance of its boundary")
    if not active[0, idx]:
        return None
    return _record(P, (dim, idx), y)


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
        records.extend(_record(P, (dim, int(i)), y) for i in np.nonzero(active[0])[0])
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

