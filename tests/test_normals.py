import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.random import default_rng

from conftest import ANGLES, SHIFTS, rotation, sample_interior
from polynormal import fixtures
from polynormal.bifurcation import crossing_audit, split_by_planes
from polynormal.errors import FailedPerturbation, InvariantViolation, OnBifurcationSet
from polynormal.explorer import random_polytope
from polynormal.geometry import contains_interior, dihedral_angle, hull_from_points, unit
from polynormal.normals import (
    BLOCK,
    CONE_MARGIN,
    REL_MARGIN,
    MorseProfile,
    _block_masks,
    _blocks,
    _extreme_masks,
    _face_keys,
    _face_tests,
    _screen,
    check_profile,
    count_normals_batch,
    face_normal_from,
    morse_profile,
    normals_from_point,
    perturb_to_generic,
    profile_of,
)


def test_cube_center_facet_and_vertex_records(cube):
    f = next(i for i in range(6) if np.allclose(cube.facet_normals[i], [1, 0, 0]))
    rec = face_normal_from(cube, (2, f), [0, 0, 0])
    assert np.allclose(rec.base_point, [1, 0, 0]) and rec.morse_index == 0
    assert abs(rec.sq_dist - 1.0) < 1e-12
    v = next(i for i in range(8) if np.allclose(cube.vertices[i], [1, 1, 1]))
    rec = face_normal_from(cube, (0, v), [0, 0, 0])
    assert abs(rec.sq_dist - 3.0) < 1e-12 and rec.morse_index == 2
    # a facet the origin's foot misses: none is only possible in 2-D here,
    # so check an edge whose strip the point leaves instead
    rec = face_normal_from(cube, (2, f), [0.0, 0.2, -0.1])
    assert rec is not None


def test_regular_tetra_centroid_counts(regular_tetra):
    records = normals_from_point(regular_tetra, [0, 0, 0])
    assert len(records) == 14
    assert profile_of(records).as_tuple() == (4, 6, 4)
    sq = [r.sq_dist for r in records]
    assert sq == sorted(sq)


def test_cube_center_counts(cube):
    y = perturb_to_generic(cube, np.zeros(3))
    prof = morse_profile(cube, y)
    assert prof.as_tuple() == (6, 12, 8)


def test_obtuse_triangle_four_normals(obtuse_triangle):
    # a point outside the all-strips region: only 2 minima and 2 maxima
    prof = morse_profile(obtuse_triangle, [-0.6, 0.05])
    assert prof.as_tuple() == (2, 0, 2)
    records = normals_from_point(obtuse_triangle, [-0.6, 0.05])
    assert len(records) == 4


def test_four_normal_tetra_point(four_normal_tetra):
    P = four_normal_tetra
    rng = default_rng(7)
    target = np.array([-1.54, -2.02, 0.0])
    found = None
    for radius in (0.3, 0.5, 0.8):
        pts = target + rng.uniform(-radius, radius, (6000, 3))
        ok = (pts @ P.facet_normals.T <= P.facet_offsets - 1e-9).all(axis=1)
        pts = pts[ok]
        if not len(pts):
            continue
        m, s, M, marg = count_normals_batch(P, pts)
        hits = np.nonzero((m + s + M == 4) & ~marg)[0]
        if len(hits):
            found = pts[hits[0]]
            break
    assert found is not None, "no 4-normal point near the flat vertex"
    records = normals_from_point(P, found)
    assert profile_of(records).as_tuple() == (1, 1, 2)
    # the maxima sit at the two ends of the long bottom edge
    max_ids = {r.face_key[1] for r in records if r.face_key[0] == 0}
    a = next(i for i in range(4) if np.allclose(P.vertices[i], [-5, 0, 0]))
    b = next(i for i in range(4) if np.allclose(P.vertices[i], [2, 0, 0]))
    assert max_ids == {a, b}
    saddle = next(r for r in records if r.face_key[0] == 1)
    assert set(P.edges[saddle.face_key[1]]) == {a, b}


def test_normals_raise_outside_and_on_bifurcation(obtuse_triangle):
    with pytest.raises(ValueError):
        normals_from_point(obtuse_triangle, [10.0, 10.0])
    # a point exactly on a strip-boundary line through the apex
    ev = crossing_audit(obtuse_triangle, [0.0, 0.12], [-0.7, 0.03])
    assert ev, "expected a sheet crossing on the obtuse triangle"
    y_on = ev[0].point
    with pytest.raises(OnBifurcationSet):
        normals_from_point(obtuse_triangle, y_on)


def test_perturb_identity_when_generic(cube):
    y = np.array([0.11, 0.05, 0.02])
    assert np.allclose(perturb_to_generic(cube, y), y)


def test_perturb_cube_center(cube):
    y = perturb_to_generic(cube, np.zeros(3))
    assert np.linalg.norm(y) <= 1e-6
    assert morse_profile(cube, y).total == 26


def test_perturb_takes_richer_side(obtuse_triangle):
    # exactly on a sheet between the 6- and 4-normal chambers, the perturbed
    # point must land on the side that keeps the marginal pair
    ev = crossing_audit(obtuse_triangle, [0.0, 0.12], [-0.7, 0.03])
    y_on = ev[0].point
    rng = default_rng(3)
    for _ in range(5):
        y = perturb_to_generic(obtuse_triangle, y_on, rng)
        assert morse_profile(obtuse_triangle, y).total == 6


def test_perturb_failure_budget(obtuse_triangle):
    ev = crossing_audit(obtuse_triangle, [0.0, 0.12], [-0.7, 0.03])
    with pytest.raises(FailedPerturbation):
        perturb_to_generic(obtuse_triangle, ev[0].point, max_tries=0)


def test_profile_invariants_random_bodies():
    # the batch counter derives its saddles from m - s + M = 2, so the identity
    # is checked on the face tests, which test every family, edges included
    rng = default_rng(21)
    bodies = [fixtures.regular_tetrahedron(), fixtures.cube(),
              fixtures.flat_tetrahedron_10(),
              hull_from_points(rng.standard_normal((12, 3)))]
    for P in bodies:
        pts = sample_interior(P, 300, rng)
        tests = _face_tests(P, pts)
        generic = ~np.any([near.any(axis=1) for _, near in tests], axis=0)
        m, s, M = (active[generic].sum(axis=1) for active, _ in tests)
        assert generic.sum() > 250
        assert ((m - s + M) == 2).all()
        assert ((m + s + M) == 2 + 2 * s).all()
        assert ((m + s + M) % 2 == 0).all()
        assert ((m + s + M) <= P.n_faces).all()


def test_tetra_minimum_four(four_normal_tetra):
    rng = default_rng(4)
    pts = sample_interior(four_normal_tetra, 1500, rng)
    m, s, M, marg = count_normals_batch(four_normal_tetra, pts)
    assert ((m + s + M)[~marg] >= 4).all()


def test_check_profile_raises():
    with pytest.raises(InvariantViolation):
        check_profile(MorseProfile(3, 1, 2), 3)
    with pytest.raises(InvariantViolation):
        check_profile(MorseProfile(2, 1, 1), 2)
    check_profile(MorseProfile(4, 6, 4), 3)
    check_profile(MorseProfile(2, 0, 2), 2)


def test_2d_counts_match_boundary_scan(obtuse_triangle):
    rng = default_rng(17)
    P = obtuse_triangle
    order = _boundary_order(P)
    loop = P.vertices[order]
    checked = 0
    pts = sample_interior(P, 100, rng)
    for y in pts:
        try:
            prof = morse_profile(P, y)
        except OnBifurcationSet:
            continue
        bm, bM = _scan_extrema(loop, y, 10_000)
        assert (prof.minima, prof.maxima) == (bm, bM)
        checked += 1
    assert checked >= 90


def _boundary_order(P):
    succ = {}
    for a, b in P.edges:
        succ.setdefault(int(a), []).append(int(b))
        succ.setdefault(int(b), []).append(int(a))
    order, prev = [0], None
    while len(order) < P.n_vertices:
        nxt = [w for w in succ[order[-1]] if w != prev]
        prev = order[-1]
        order.append(nxt[0])
    return order


def _scan_extrema(loop, y, npts):
    segs = [(loop[i], loop[(i + 1) % len(loop)]) for i in range(len(loop))]
    per = sum(np.linalg.norm(b - a) for a, b in segs)
    samples = []
    for a, b in segs:
        k = max(2, int(round(npts * np.linalg.norm(b - a) / per)))
        t = np.arange(k) / k
        samples.append(a[None, :] + t[:, None] * (b - a)[None, :])
    X = np.vstack(samples)
    d = ((X - y) ** 2).sum(axis=1)
    up = d > np.roll(d, 1)
    dn = d > np.roll(d, -1)
    return int((~up & ~dn).sum()), int((up & dn).sum())


def test_saddle_iff_projection_on_acute_edges():
    # acute dihedral edge carries a saddle exactly when the point projects
    # into the edge segment
    rng = default_rng(8)
    bodies = [fixtures.regular_tetrahedron(), fixtures.flat_tetrahedron_10(),
              fixtures.generic_prism(seed=2)]
    for P in bodies:
        acute = [e for e in range(P.n_edges) if dihedral_angle(P, e) < np.pi / 2 - 1e-9]
        pts = sample_interior(P, 150, rng)
        m, s, M, marg = count_normals_batch(P, pts)
        for y in pts[~marg][:60]:
            records = normals_from_point(P, y)
            saddles = {r.face_key[1] for r in records if r.face_key[0] == 1}
            for e in acute:
                a, b = P.edges[e]
                d = P.vertices[b] - P.vertices[a]
                t = float((y - P.vertices[a]) @ d / (d @ d))
                assert (e in saddles) == (0.0 < t < 1.0)


def test_nonsimple_vertex_counts():
    # octahedron vertices have four incident edges; counting must still work
    O = hull_from_points([(1, 0, 0), (-1, 0, 0), (0, 1, 0),
                          (0, -1, 0), (0, 0, 1), (0, 0, -1)])
    y = perturb_to_generic(O, np.zeros(3))
    prof = morse_profile(O, y)
    assert prof.total == O.n_faces == 26
    assert prof.as_tuple() == (8, 12, 6)


def _every_face(P):
    return [(d, i) for d in range(P.dim) for i in range(len(P.faces[d]))]


def test_face_normal_from_agrees_with_normals_from_point(obtuse_triangle, regular_tetra):
    # each face asked on its own must reproduce the full record list: same
    # keys, base points and squared lengths (the edge branch included)
    octahedron = hull_from_points([(1, 0, 0), (-1, 0, 0), (0, 1, 0),
                                   (0, -1, 0), (0, 0, 1), (0, 0, -1)])
    rng = default_rng(12)
    for P in (obtuse_triangle, regular_tetra, fixtures.generic_prism(seed=2), octahedron):
        pts = sample_interior(P, 80, rng)
        m, s, M, marg = count_normals_batch(P, pts)
        edge_records = 0
        for y in pts[~marg][:20]:
            expected = {r.face_key: r for r in normals_from_point(P, y)}
            got = {}
            for face in _every_face(P):
                rec = face_normal_from(P, face, y)
                if rec is not None:
                    got[rec.face_key] = rec
            assert got.keys() == expected.keys()
            for key, rec in got.items():
                assert np.array_equal(rec.base_point, expected[key].base_point)
                assert rec.sq_dist == expected[key].sq_dist
                assert rec.morse_index == expected[key].morse_index
            edge_records += sum(1 for k in got if k[0] == 1 and P.dim == 3)
        assert edge_records > 0 or P.dim == 2


def test_face_normal_from_raises_on_sheet(obtuse_triangle):
    ev = crossing_audit(obtuse_triangle, [0.0, 0.12], [-0.7, 0.03])
    y_on = ev[0].point
    raised = 0
    for face in _every_face(obtuse_triangle):
        try:
            face_normal_from(obtuse_triangle, face, y_on)
        except OnBifurcationSet:
            raised += 1
    assert raised >= 1


def test_region_rows_agree_with_face_tests(obtuse_triangle):
    # the region rows are the face tests without their positive
    # normalisations: off the margin bands both give the same active faces
    octahedron = hull_from_points([(1, 0, 0), (-1, 0, 0), (0, 1, 0),
                                   (0, -1, 0), (0, 0, 1), (0, 0, -1)])
    bodies = [fixtures.cube(), octahedron, fixtures.generic_prism(seed=2), obtuse_triangle,
              fixtures.triangle_from_angles(1.2, 1.0),
              random_polytope("tangent_planes", {"k": 12}, default_rng(5))]
    rng = default_rng(21)
    for P in bodies:
        G, c, starts, dims = P._region_rows[:4]
        assert P._region_rows is P._region_rows  # built once
        assert len(starts) == len(dims) + 1 and starts[-1] == len(G) == len(c)
        assert list(dims) == [d for d in _face_keys(P) for _ in P.faces[d]]
        Y = sample_interior(P, 400, rng)
        tests = _face_tests(P, Y)
        active = np.hstack([a for a, _ in tests])
        generic = ~np.hstack([near for _, near in tests]).any(axis=1)
        inside = np.minimum.reduceat(Y @ G.T - c, starts[:-1], axis=1) > 0.0
        assert generic.sum() > 300
        assert np.array_equal(inside[generic], active[generic])


def _ngon_body(n, apex=None):
    """A prism over a regular n-gon, or the pyramid over it with the given apex."""
    t = np.linspace(0.0, 2.0 * np.pi, n, endpoint=False)
    ring = np.column_stack([np.cos(t), np.sin(t), np.zeros(n)])
    return hull_from_points(np.vstack([ring, ring + [0.0, 0.0, 1.0]] if apex is None
                                      else [ring, [apex]]))


def _loop_facet_rims(P):
    """Each facet's rim rows, offsets and diameter, built edge by edge from its vertex cycle."""
    V, rims = P.vertices, []
    for f, cycle in enumerate(P.facet_cycles):
        k = len(cycle)
        if P.dim == 3:
            w = np.array([unit(np.cross(P.facet_normals[f], V[cycle[(i + 1) % k]] - V[cycle[i]]))
                          for i in range(k)])
            c = np.array([w[i] @ V[cycle[i]] for i in range(k)])
            scale = max(np.linalg.norm(V[i] - V[j]) for i in cycle for j in cycle)
        else:
            a, b = V[cycle[0]], V[cycle[1]]
            d = unit(b - a)
            w, c, scale = np.array([d, -d]), np.array([d @ a, -d @ b]), np.linalg.norm(b - a)
        rims.append((w, c, scale))
    return rims


def test_region_rows_facet_rims_match_loop_build(obtuse_triangle):
    # the array-built facet rows, offsets and diameters equal the edge-by-edge
    # build, also with one large facet among small ones, and the counting
    # layout holds every row once and nothing else: no padding or frame rows
    bodies = [fixtures.cube(), fixtures.generic_prism(seed=2), obtuse_triangle,
              fixtures.triangle_from_angles(1.2, 1.0), _ngon_body(200), _ngon_body(60, [0.2, 0.1, 1.5]),
              random_polytope("tangent_planes", {"k": 48}, default_rng(5))]
    for P in bodies:
        T = P._region_rows
        for f, (w, c, scale) in enumerate(_loop_facet_rims(P)):
            rows = slice(T.starts[f], T.starts[f + 1])
            np.testing.assert_allclose(T.G[rows], w, rtol=0.0, atol=1e-14)
            np.testing.assert_allclose(T.c[rows], c, rtol=1e-14, atol=1e-14)
            np.testing.assert_allclose(T.scale[f], scale, rtol=1e-14)
        assert T.K.shape == (len(T.G), P.dim + 1)
        runs = np.concatenate([faces for _, faces in T.runs])
        assert np.array_equal(np.sort(runs), np.arange(P.n_facets + P.n_vertices))


def _loop_face_tests(P, Y):
    """Face-by-face oracle of ``_face_tests``: one loop per facet and vertex."""
    npts = len(Y)
    fm = np.empty((npts, P.n_facets))
    for f, (w, c, scale) in enumerate(_loop_facet_rims(P)):
        n = P.facet_normals[f]
        Z = Y - (Y @ n - P.facet_offsets[f])[:, None] * n
        fm[:, f] = (Z @ w.T - c).min(axis=1) / scale
    active, near = [fm > 0.0], [np.abs(fm) < REL_MARGIN]
    if P.dim == 3:
        a, d, L = P._edge_origin, P._edge_dir, P._edge_len
        diff = Y[:, None, :] - a[None, :, :]
        t = np.einsum("ped,ed->pe", diff, d)
        rel = np.minimum(t, L - t) / L
        w = diff - t[..., None] * d[None, :, :]
        wn = np.linalg.norm(w, axis=2)
        wn = np.where(wn == 0.0, 1.0, wn)
        h = P._edge_support
        cone = np.minimum(np.einsum("ped,ed->pe", w, h[:, 0]),
                          np.einsum("ped,ed->pe", w, h[:, 1])) / wn
        active.append((rel > 0.0) & (cone > 0.0))
        near.append(((np.abs(rel) < REL_MARGIN) & (cone > -CONE_MARGIN))
                    | ((np.abs(cone) < CONE_MARGIN) & (rel > -REL_MARGIN)))
    vm = np.empty((npts, P.n_vertices))
    for v, face in enumerate(P.faces[0]):
        w = Y - P.vertices[v]
        wn = np.linalg.norm(w, axis=1)
        vm[:, v] = (w @ face.cone_support.T).min(axis=1) / np.where(wn == 0.0, 1.0, wn)
    active.append(vm > 0.0)
    near.append(np.abs(vm) < CONE_MARGIN)
    return np.hstack(active), np.hstack(near)


def _on_region_rows(P, Y, rng, offset=0.0):
    """Interior points of Y moved onto (or ``offset`` off) randomly chosen region-row planes."""
    G, c, starts = P._region_rows[:3]
    rows = rng.integers(0, starts[-1], len(Y))
    norm = np.linalg.norm(G[rows], axis=1)
    g, b = G[rows] / norm[:, None], c[rows] / norm
    side = offset * rng.choice([-1.0, 1.0], len(Y))
    Z = Y + (side + b - np.einsum("pd,pd->p", Y, g))[:, None] * g
    margin = 1e-7 * max(1.0, P.diameter)
    return Z[(Z @ P.facet_normals.T <= P.facet_offsets - margin).all(axis=1)]


def test_face_tests_match_loop_oracle(obtuse_triangle):
    # the row-table kernel reproduces the face-by-face margins: the near band
    # bit for bit, and the active faces off it
    bodies = [fixtures.cube(), fixtures.regular_tetrahedron(), fixtures.generic_prism(seed=2),
              fixtures.perturbed_cube(), obtuse_triangle, fixtures.triangle_from_angles(1.2, 1.0),
              random_polytope("tangent_planes", {"k": 12}, default_rng(5)),
              random_polytope("tangent_planes", {"k": 48}, default_rng(5)),
              _ngon_body(40), _ngon_body(30, [0.2, 0.1, 1.5])]
    rng = default_rng(33)
    banded = 0
    for P in bodies:
        Y = sample_interior(P, 1500, rng)
        Z = _on_region_rows(P, Y, rng)
        for X in (Y, Z):
            active, near = map(np.hstack, zip(*_face_tests(P, X)))
            loop_active, loop_near = _loop_face_tests(P, X)
            assert np.array_equal(near, loop_near)
            assert np.array_equal(active[~near], loop_active[~loop_near])
        banded += int(near.any(axis=1).sum())
        assert len(Z) == 0 or near.any()
    assert banded > 1000


def _normalised_block_masks(P, S1, Yb, act, nr):
    """``_block_masks`` as earlier releases ran it: every margin normalised, then compared;
    the masks laid out facets, vertices, edges."""
    T = P._region_rows
    F, V = P.n_facets, P.n_vertices
    E, n = len(T.dims) - F - V, Yb.shape[1]
    m, col = np.empty((F + V, n)), 0
    for k, faces in T.runs:
        m[faces] = S1[col:col + k * len(faces)].reshape(k, -1, n).min(axis=0)
        col += k * len(faces)
    fm = m[:F] / T.scale[:F, None]
    vn = np.sqrt(sum((P.vertices[:, j, None] - Yb[j]) ** 2 for j in range(P.dim)))
    vm = m[F:] / np.where(vn == 0.0, 1.0, vn)
    d, nd, h0, h1 = S1[col:].reshape(4, E, n)
    rel = np.minimum(d, nd) / T.scale[F:F + E, None]
    if E:  # |w|, the distance to the edge line, from coordinates
        z, u = Yb[:, None, :] - P._edge_origin.T[:, :, None], P._edge_dir.T[:, :, None]
        wn = np.linalg.norm(z - (z * u).sum(axis=0) * u, axis=0)
    else:
        wn = np.ones((0, n))
    cone = np.minimum(h0, h1) / np.where(wn == 0.0, 1.0, wn)
    act[:F], nr[:F] = fm > 0.0, np.abs(fm) < REL_MARGIN
    act[F:F + V], nr[F:F + V] = vm > 0.0, np.abs(vm) < CONE_MARGIN
    act[F + V:] = (rel > 0.0) & (cone > 0.0)
    nr[F + V:] = (((np.abs(rel) < REL_MARGIN) & (cone > -CONE_MARGIN))
                  | ((np.abs(cone) < CONE_MARGIN) & (rel > -REL_MARGIN)))


def _cone_boundary_points(P, rng, reach):
    """Points ``reach`` away on the boundary of each vertex's region (3-D: and each edge's),
    moved half a CONE_MARGIN across it: far outside P, inside the cone's near band."""
    T = P._region_rows
    F, V = P.n_facets, P.n_vertices
    out = []
    for v in range(V):
        U = T.G[T.starts[len(T.dims) - V + v]:T.starts[len(T.dims) - V + v + 1]]
        z = rng.standard_normal((200, P.dim))
        w = z - (z @ U[0])[:, None] * U[0]
        w = w[(w @ U[1:].T > 0.0).all(axis=1)]
        if len(w):
            side = 0.5 * CONE_MARGIN * rng.choice([-1.0, 1.0])
            out.append(P.vertices[v] + reach * (unit(w[0]) + side * U[0]))
    for e in range(P.n_edges * (P.dim == 3)):
        d, _, h0, h1 = T.G[T.starts[F + e]:T.starts[F + e + 1]]
        w = unit(np.cross(d, h0))
        w = w if w @ h1 > 0.0 else -w
        side = 0.5 * CONE_MARGIN * rng.choice([-1.0, 1.0])
        mid = P._edge_origin[e] + 0.5 * P._edge_len[e] * d
        out.append(mid + reach * (w + side * h0))
    return np.array(out)


def _probe_points(P, rng):
    """Points where the face tests are hardest: interior, on region-row planes and 1e-10
    off them, within 1e-7 of vertices and of edge lines, and far outside P."""
    Y = sample_interior(P, 400, rng)
    a, b = P.vertices[P.edges[:, 0]], P.vertices[P.edges[:, 1]]
    e, t = rng.integers(0, len(a), 150), rng.uniform(-0.2, 1.2, (150, 1))
    jitter = rng.standard_normal((300, P.dim))
    jitter *= 1e-7 / np.linalg.norm(jitter, axis=1)[:, None]
    return np.vstack([Y[:150], _on_region_rows(P, Y[150:250], rng),
                      _on_region_rows(P, Y[250:], rng, offset=1e-10),
                      P.vertices[rng.integers(0, P.n_vertices, 150)] + jitter[:150],
                      a[e] + t * (b[e] - a[e]) + jitter[150:],
                      _cone_boundary_points(P, rng, 100.0 * P.diameter)])


def _band_edge(P, S1, rng):
    """Set one facet minimum (3-D: and one edge slab minimum) of every third column of S1
    within three units in the last place of +-REL_MARGIN times its scale, where rounding
    of the division decides the near band."""
    T = P._region_rows
    F, V = P.n_facets, P.n_vertices
    rows, col = {}, 0
    for k, faces in T.runs:
        for i, face in enumerate(faces):
            rows[face] = col + i + len(faces) * np.arange(k)
        col += k * len(faces)
    E = len(T.dims) - F - V
    for p in range(0, S1.shape[1], 3):
        f, e = rng.integers(0, F), rng.integers(0, max(E, 1))
        ulps, side = rng.integers(-3, 4, 2), rng.choice([-1.0, 1.0], 2)
        x = REL_MARGIN * T.scale[[f, F + e]]
        x = side * (x + ulps * np.spacing(x))
        S1[rows[f], p] = x[0]
        if E:
            S1[[col + e, col + E + e], p] = x[1]


def test_block_masks_match_normalised_margins(obtuse_triangle):
    # signs first, then the near band only where its bound lets it hold: both
    # masks are bit for bit those of the normalised margins, across block
    # widths, on the near band's edges, and far outside P where |y - v| and
    # |w| exceed the diameter a hundred times
    polygon = hull_from_points(default_rng(3).standard_normal((9, 2)))
    bodies = [obtuse_triangle, fixtures.triangle_from_angles(1.2, 1.0), polygon, fixtures.cube(),
              fixtures.regular_tetrahedron(), fixtures.generic_prism(seed=2), _ngon_body(30, [0.2, 0.1, 1.5]),
              random_polytope("tangent_planes", {"k": 12}, default_rng(5)),
              random_polytope("perturbed_tetra", {}, default_rng(6))]
    rng = default_rng(44)
    far_near = band_near = 0
    for P in bodies:
        T = P._region_rows
        pool = _probe_points(P, rng)
        X = pool[rng.permutation(np.resize(np.arange(len(pool)), 2 * BLOCK + 3))]
        for n in (BLOCK - 1, BLOCK + 1, 2 * BLOCK + 3):
            Yb = X[:n].T
            S1 = T.K @ np.vstack([Yb, np.ones(n)])
            _band_edge(P, S1, rng)
            got, want = np.empty((2, 2, len(T.dims), n), dtype=bool)
            _block_masks(P, S1, Yb, *got)
            _normalised_block_masks(P, S1, Yb, *want)
            assert np.array_equal(got, want)
            far = np.linalg.norm(Yb.T - P.centroid, axis=1) > 10.0 * P.diameter
            far_near += int(want[1][:, far].sum())
            band_near += int(want[1][:P.n_facets, ::3].sum())
    assert far_near > 100 and band_near > 100, (far_near, band_near)


def test_count_batch_blocks_match_single_points():
    # batches cut into BLOCK-point products give the per-point answers; every
    # seventh point sits 1e-10 off a region-row plane, inside the near band
    # but far above rounding, so the marginal flags are exercised too
    P = random_polytope("tangent_planes", {"k": 12}, default_rng(9))
    rng = default_rng(10)
    Y = sample_interior(P, 2 * BLOCK + 3, rng)
    Y[::7] = _on_region_rows(P, Y, rng, offset=1e-10)[:len(Y[::7])]
    for n in (BLOCK + 1, 2 * BLOCK + 3):
        batch = count_normals_batch(P, Y[:n])
        alone = [count_normals_batch(P, y[None, :]) for y in Y[:n]]
        for got, one in zip(batch, zip(*alone)):
            assert np.array_equal(got, np.concatenate(one))
    assert batch[3].any() and not batch[3].all()


def test_marginal_counts_do_not_depend_on_the_batch(obtuse_triangle):
    # points on region-row planes, counted in one batch and one at a time: a
    # BLAS product rounds the two differently, so without the fixed-order
    # recount of the flagged points some of them get other counts
    bodies = [random_polytope("tangent_planes", {"k": 12}, default_rng(5)),
              random_polytope("tangent_planes", {"k": 24}, default_rng(5)),
              fixtures.generic_prism(seed=3), obtuse_triangle]
    rng = default_rng(1)
    flagged = 0
    for P in bodies:
        Z = _on_region_rows(P, sample_interior(P, 300, rng), rng)
        batch = count_normals_batch(P, Z)
        alone = zip(*(count_normals_batch(P, z[None, :]) for z in Z))
        for got, one in zip(batch, alone):
            assert np.array_equal(got, np.concatenate(one))
        flagged += int(batch[3].sum())
    assert flagged > 300


def test_derived_saddles_match_face_tests_at_hard_points():
    # the batch counter multiplies only the facet and vertex rows and takes
    # s = m + M - 2: at the interior hard points of _probe_points, its flags
    # are among the face tests' (which add the edge bands), and wherever
    # neither route flags, its counts are the face tests' mask sums
    octahedron = hull_from_points([(1, 0, 0), (-1, 0, 0), (0, 1, 0),
                                   (0, -1, 0), (0, 0, 1), (0, 0, -1)])
    bodies = [fixtures.regular_tetrahedron(), fixtures.flat_tetrahedron_10(),
              fixtures.flat_tetrahedron_12(), fixtures.four_normal_tetrahedron(), fixtures.cube(),
              fixtures.perturbed_cube(), fixtures.generic_prism(seed=2), fixtures.right_prism(), octahedron]
    rng = default_rng(46)
    bodies += [random_polytope("tangent_planes", {"k": k}, rng) for k in (12, 12, 48, 48)]
    bodies += [random_polytope(family, {}, rng)
               for family in ["perturbed_tetra"] * 5 + ["perturbed_prism"] * 3]
    points = flagged = 0
    for P in bodies:
        Y = np.vstack([_probe_points(P, rng), _probe_points(P, rng)])
        Y = Y[(Y @ P.facet_normals.T <= P.facet_offsets - 1e-7 * max(1.0, P.diameter)).all(axis=1)]
        m, s, M, marginal = count_normals_batch(P, Y)
        tests = _face_tests(P, Y)
        near = np.any([nr.any(axis=1) for _, nr in tests], axis=0)
        assert not (marginal & ~near).any()
        for got, (active, _) in zip((m, s, M), tests):
            assert np.array_equal(got[~near], active[~near].sum(axis=1))
        points += len(Y)
        flagged += int(near.sum())
    assert len(bodies) >= 20 and points > 8000 and flagged > 2000, (points, flagged)


@settings(max_examples=12, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), family=st.sampled_from(["tangent_planes", "perturbed_tetra"]),
       k=st.integers(5, 12), data=st.data(), angles=ANGLES, t=SHIFTS, scale=st.floats(0.2, 5.0))
def test_counts_invariant_under_similarity_and_permutation(seed, family, k, data, angles, t, scale):
    # counts at points off the near band in both frames survive rigid motion,
    # uniform scaling and a relabelling of the vertices
    rng = default_rng(seed)
    P = random_polytope(family, {"k": k}, rng)
    perm = data.draw(st.permutations(range(P.n_vertices)))
    R, t = rotation(*angles), np.array(t)
    Q = hull_from_points(scale * P.vertices[perm] @ R.T + t)
    Y = sample_interior(P, 300, rng)
    here = count_normals_batch(P, Y)
    there = count_normals_batch(Q, scale * Y @ R.T + t)
    generic = ~here[3] & ~there[3]
    assert generic.sum() > 250
    for a, b in zip(here[:3], there[:3]):
        assert np.array_equal(a[generic], b[generic])


def _double_path(P, Y):
    """``count_normals_batch`` without its single-precision screen: every point through the
    double product of ``_blocks`` and ``_extreme_masks``."""
    T = P._region_rows
    F, V = P.n_facets, P.n_vertices
    K = T.K[:len(T.K) - 4 * (len(T.dims) - F - V)]
    counts, marginal = np.zeros((2, len(Y)), dtype=int), np.zeros(len(Y), dtype=bool)
    for lo, act, nr in _blocks(P, Y, K, _extreme_masks, F + V):
        hi = lo + act.shape[1]
        counts[:, lo:hi] = act[:F].sum(axis=0), act[F:].sum(axis=0)
        marginal[lo:hi] = nr.any(axis=0)
    saddles = counts.sum(axis=0) - 2 if P.dim == 3 else np.zeros(len(Y), dtype=int)
    return counts[0], saddles, counts[1], marginal


def _screened(P, Y):
    """The single-precision screen on its own: the minima and maxima it counts, and the
    indices of Y that it leaves to the double path."""
    T = P._region_rows
    K = T.K[:len(T.K) - 4 * (len(T.dims) - P.n_facets - P.n_vertices)]
    counts = np.zeros((2, len(Y)), dtype=np.int32)
    return counts, _screen(P, Y, K, counts)


def _far(P, distance):
    """P's vertex cloud moved ``distance`` from where it lies, rebuilt."""
    d = np.array([1.0, -2.0, 0.3][:P.dim])
    return hull_from_points(P.vertices + distance * d / np.linalg.norm(d))


def test_screened_counts_match_double_path(obtuse_triangle):
    # the single-precision screen changes no count and no flag: at the hard
    # points of _probe_points, on region-row planes and 1e-10 off them, at
    # chamber-cell vertices and 1e-9 off them, and in a box around P, the
    # counter equals the double path, and every point the screen keeps is
    # counted as there and unflagged; polygons and a body 1e6 away too
    polygon = hull_from_points(default_rng(3).standard_normal((9, 2)))
    tangent = random_polytope("tangent_planes", {"k": 12}, default_rng(5))
    bodies = [obtuse_triangle, fixtures.triangle_from_angles(1.2, 1.0), polygon, fixtures.cube(),
              fixtures.regular_tetrahedron(), fixtures.flat_tetrahedron_10(), fixtures.generic_prism(seed=2),
              random_polytope("perturbed_tetra", {}, default_rng(6)), tangent,
              random_polytope("tangent_planes", {"k": 48}, default_rng(5)), _far(tangent, 1e6)]
    rng = default_rng(47)
    points = settled = marginal = 0
    for P in bodies:
        Y = sample_interior(P, 600, rng)
        lo, hi = P.bounding_box()
        sets = [_probe_points(P, rng), _on_region_rows(P, Y[:300], rng),
                _on_region_rows(P, Y[300:], rng, offset=1e-10),
                rng.uniform(lo - 0.5 * (hi - lo), hi + 0.5 * (hi - lo), (1000, P.dim)), Y[:0], Y[:1]]
        if P.n_facets <= 8:
            cells = np.concatenate(split_by_planes(P))[:3000]
            sets += [cells, cells + 1e-9 * rng.standard_normal(cells.shape)]
        for X in sets:
            want = _double_path(P, X)
            for got, ref in zip(count_normals_batch(P, X), want):
                assert got.dtype == ref.dtype and np.array_equal(got, ref)
            counts, settle = _screened(P, X)  # also below the batch size that screens
            sure = np.setdiff1d(np.arange(len(X)), settle)
            assert np.array_equal(counts[0, sure], want[0][sure])
            assert np.array_equal(counts[1, sure], want[2][sure]) and not want[3][sure].any()
            points += len(X)
            settled += len(settle)
            marginal += int(want[3].sum())
    assert points > 18000 and marginal > 3000 and settled > marginal, (points, marginal, settled)


def test_screened_counts_do_not_depend_on_the_cut():
    # the screen's error bound and reach are taken per block, so which points
    # are settled in double depends on the cut; the counts and flags do not
    rng = default_rng(48)
    tangent = random_polytope("tangent_planes", {"k": 12}, default_rng(9))
    for P in (tangent, _far(tangent, 1e6), fixtures.generic_prism(seed=3)):
        Y = np.vstack([_probe_points(P, rng), _probe_points(P, rng)])
        Y = Y[rng.permutation(len(Y))][:2 * BLOCK + 5]
        assert len(Y) == 2 * BLOCK + 5
        whole = count_normals_batch(P, Y)
        assert whole[3].any() and not whole[3].all()
        for size in (1, BLOCK - 1, BLOCK + 1):
            pieces = [count_normals_batch(P, Y[i:i + size]) for i in range(0, len(Y), size)]
            for got, one in zip(whole, zip(*pieces)):
                assert np.array_equal(got, np.concatenate(one))


def test_screen_settles_few_interior_points():
    # the point of the screen: at most 1 % of uniform interior samples need
    # the double product, near the origin and 1e6 away from it
    P = random_polytope("tangent_planes", {"k": 48}, default_rng(5))
    for Q in (P, _far(P, 1e6)):
        Y = sample_interior(Q, 10000, default_rng(49))
        assert len(_screened(Q, Y)[1]) <= 100
