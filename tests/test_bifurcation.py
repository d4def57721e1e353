import inspect
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.random import default_rng
from scipy.optimize import linear_sum_assignment
from scipy.spatial import ConvexHull, QhullError

from conftest import ANGLES, SHIFTS, rotation, sample_interior
from polynormal import bifurcation, fixtures
from polynormal.bifurcation import (
    _line_intervals,
    _pieces,
    _plane_basis,
    _profiles,
    arrangement_planes,
    chamber_decomposition,
    check_crossing_rule,
    crossing_audit,
    exact_average,
    max_normals,
    monte_carlo_average,
    plane_section,
    point_on_sheet,
    sheet_planes,
    split_by_planes,
    spot_check_chamber,
)
from polynormal.errors import InvariantViolation, NonTransversal, TooManyChambers
from polynormal.explorer import random_polytope
from polynormal.geometry import chebyshev_center, hull_from_points, unit
from polynormal.normals import count_normals_batch, perturb_to_generic
from polynormal.spherical import ray_scan_counts


def test_sheet_counts_regular_tetra(regular_tetra):
    planes = sheet_planes(regular_tetra)
    blue = [p for p in planes if p.color == "blue"]
    red = [p for p in planes if p.color == "red"]
    assert sum(len(p.sources) for p in blue) == 2 * regular_tetra.n_edges == 12
    assert sum(len(p.sources) for p in red) == 12
    assert len(blue) == 12 and len(red) == 12


def test_sheet_counts_prism():
    P = fixtures.right_prism()
    planes = sheet_planes(P)
    for color in ("blue", "red"):
        raw = sum(len(p.sources) for p in planes if p.color == color)
        assert raw == 2 * P.n_edges == 18


def test_cube_sheets_lie_on_facet_planes(cube):
    # every cube sheet plane coincides with a facet plane, so the interior
    # arrangement is empty; verified against the per-incidence construction
    planes = sheet_planes(cube)
    assert sum(len(p.sources) for p in planes if p.color == "blue") == 24
    for p in planes:
        hits = [f for f in range(6)
                if abs(abs(p.normal @ cube.facet_normals[f]) - 1) < 1e-9
                and abs(abs(p.offset) - 1) < 1e-9]
        assert hits, f"sheet plane {p} is not a facet plane"
    assert len([p for p in planes if p.color == "blue"]) == 6
    assert len([p for p in planes if p.color == "red"]) == 6


def _per_incidence_planes(P):
    """Reference construction: one plane per incidence, built from the raw
    geometry and merged greedily into the first coincident plane of its color;
    returns (sheet planes, arrangement planes) as plain tuples."""
    def canonical(n, offset):
        n = unit(n)
        if n[int(np.argmax(np.abs(n)))] < 0:
            n, offset = -n, -offset
        return n, float(offset)

    def coincide(n, b, n0, b0):
        return abs(n @ n0 - 1.0) < 1e-9 and abs(b - b0) < 1e-9 * max(1.0, P.diameter)

    raw = []
    if P.dim == 3:
        for f, cycle in enumerate(P.facet_cycles):
            k = len(cycle)
            for i in range(k):
                a, b = int(cycle[i]), int(cycle[(i + 1) % k])
                n = unit(np.cross(unit(P.vertices[b] - P.vertices[a]), P.facet_normals[f]))
                raw.append((*canonical(n, n @ P.vertices[a]), "blue", (f, P.edge_index(a, b))))
    color = "red" if P.dim == 3 else "blue"
    for e, (a, b) in enumerate(P.edges):
        d = unit(P.vertices[b] - P.vertices[a])
        for v in (int(a), int(b)):
            raw.append((*canonical(d, d @ P.vertices[v]), color, (e, v)))
    sheets = []
    for n, b, c, src in raw:
        for n0, b0, c0, srcs in sheets:
            if c0 == c and coincide(n, b, n0, b0):
                srcs.append(src)
                break
        else:
            sheets.append((n, b, c, [src]))
    cutting = []
    for n, b, c, _ in sheets:
        for n0, b0, colors in cutting:
            if coincide(n, b, n0, b0):
                colors.add(c)
                break
        else:
            cutting.append((n, b, {c}))
    return sheets, cutting


def _oracle_bodies():
    bodies = [fixtures.regular_tetrahedron(), fixtures.cube(), fixtures.box(1.0, 2.0, 3.0),
              fixtures.perturbed_cube(), fixtures.four_normal_tetrahedron(),
              fixtures.flat_tetrahedron_10(), fixtures.flat_tetrahedron_12(),
              fixtures.right_prism(), fixtures.generic_prism(seed=2),
              fixtures.equilateral_triangle(), fixtures.isoceles_triangle(2.4),
              fixtures.triangle_from_angles(1.2, 1.0)]
    bodies += [random_polytope("tangent_planes", {"k": 5 + i % 8}, default_rng([31, i]))
               for i in range(20)]
    return bodies


def test_sheet_planes_match_per_incidence_oracle():
    for P in _oracle_bodies():
        want_sheets, want_cutting = _per_incidence_planes(P)
        got = sheet_planes(P)
        assert len(got) == len(want_sheets)
        for sp, (n, b, color, sources) in zip(got, want_sheets):
            assert sp.color == color and sp.sources == tuple(sources)
            assert np.abs(sp.normal - n).max() < 1e-12 and abs(sp.offset - b) < 1e-12
        got = arrangement_planes(P)
        assert len(got) == len(want_cutting)
        for rec, (n, b, colors) in zip(got, want_cutting):
            assert rec["colors"] == colors
            assert np.abs(rec["normal"] - n).max() < 1e-12 and abs(rec["offset"] - b) < 1e-12


def _sheet_rows(P):
    return [(sp.normal, sp.offset, sp.color) for sp in sheet_planes(P)]


def _canonical_rows(rows):
    """Per color, the [normal, offset] rows with the largest normal component positive."""
    out = {}
    for n, b, color in rows:
        sign = -1.0 if n[np.argmax(np.abs(n))] < 0 else 1.0
        out.setdefault(color, []).append(sign * np.append(n, b))
    return {c: np.array(r) for c, r in out.items()}


def _same_rows(want, got):
    """The two row multisets agree within 1e-9 under some one-to-one matching."""
    want, got = _canonical_rows(want), _canonical_rows(got)
    assert want.keys() == got.keys()
    for c in want:
        assert want[c].shape == got[c].shape
        cost = np.abs(want[c][:, None, :] - got[c][None, :, :]).max(axis=2)
        i, j = linear_sum_assignment(cost)
        assert cost[i, j].max() < 1e-9


@settings(max_examples=12, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), k=st.integers(5, 10), data=st.data(),
       angles=ANGLES, t=SHIFTS)
def test_sheet_rows_invariant_under_permutation_and_rigid_motion(seed, k, data, angles, t):
    pts = default_rng(seed).standard_normal((k, 3))
    rows = _sheet_rows(hull_from_points(pts))
    perm = data.draw(st.permutations(range(k)))
    _same_rows(rows, _sheet_rows(hull_from_points(pts[perm])))
    R, t = rotation(*angles), np.array(t)
    moved = [(R @ n, b + (R @ n) @ t, c) for n, b, c in rows]
    _same_rows(moved, _sheet_rows(hull_from_points(pts @ R.T + t)))


def test_blue_red_plane_geometry(flat_tetra_10):
    P = flat_tetra_10
    for p in sheet_planes(P):
        if p.color == "blue":
            f, e = p.sources[0]
            a, b = P.edges[e]
            # contains the edge, orthogonal to the facet
            assert abs(p.normal @ P.vertices[a] - p.offset) < 1e-9
            assert abs(p.normal @ P.vertices[b] - p.offset) < 1e-9
            assert abs(p.normal @ P.facet_normals[f]) < 1e-9
        else:
            e, v = p.sources[0]
            a, b = P.edges[e]
            d = unit(P.vertices[b] - P.vertices[a])
            assert abs(p.normal @ P.vertices[v] - p.offset) < 1e-9
            assert abs(abs(p.normal @ d) - 1.0) < 1e-9


def test_equilateral_triangle_single_chamber_count():
    P = fixtures.equilateral_triangle()
    chambers = chamber_decomposition(P)
    assert {c.count for c in chambers} == {6}
    assert abs(exact_average(P, chambers=chambers) - 6.0) < 1e-9


def test_obtuse_triangle_chambers(obtuse_triangle):
    chambers = chamber_decomposition(obtuse_triangle)
    assert {c.count for c in chambers} == {4, 6}
    # the 6-normal region touches the incenter
    inc = chebyshev_center(obtuse_triangle).center
    from polynormal.normals import morse_profile, perturb_to_generic
    y = perturb_to_generic(obtuse_triangle, inc)
    assert morse_profile(obtuse_triangle, y).total == 6


def test_regular_tetra_single_count(regular_tetra):
    chambers = chamber_decomposition(regular_tetra)
    assert {c.count for c in chambers} == {14}


def test_volume_conservation_and_spot_checks(cube, regular_tetra, obtuse_triangle,
                                             flat_tetra_10, flat_tetra_12,
                                             four_normal_tetra):
    rng = default_rng(0)
    for P in (cube, regular_tetra, obtuse_triangle, flat_tetra_10,
              flat_tetra_12, four_normal_tetra):
        chambers = chamber_decomposition(P)
        total = sum(c.volume for c in chambers)
        assert abs(total - P.volume) < 1e-6 * P.volume
        assert all(c.volume > 0 for c in chambers)
        assert all(spot_check_chamber(P, c, rng) for c in chambers)


def test_max_normals_fixtures(regular_tetra, cube, flat_tetra_10, flat_tetra_12):
    assert max_normals(regular_tetra)[0] == 14
    assert max_normals(cube)[0] == 26
    assert max_normals(flat_tetra_10)[0] == 10
    assert max_normals(flat_tetra_12)[0] == 12
    N, witness = max_normals(flat_tetra_10)
    assert witness.count == N and witness.profile.total == N


def test_exact_average_values(regular_tetra):
    assert abs(exact_average(regular_tetra) - 14.0) < 1e-9
    acute = fixtures.triangle_from_angles(1.2, 1.0)
    assert abs(exact_average(acute) - 6.0) < 1e-9
    obtuse = fixtures.isoceles_triangle(2.8)
    en = exact_average(obtuse)
    assert 4.0 < en < 6.0


def test_exact_average_monotone_in_obtuseness():
    values = [exact_average(fixtures.isoceles_triangle(a)) for a in (2.0, 2.6, 3.0)]
    assert values[0] > values[1] > values[2]


def test_monte_carlo_average(regular_tetra, cube, obtuse_triangle):
    est, err = monte_carlo_average(regular_tetra, 2000, seed=5)
    assert est == 14.0 and err == 0.0
    est, err = monte_carlo_average(cube, 2000, seed=5)
    assert est == 26.0 and err == 0.0
    en = exact_average(obtuse_triangle)
    est, err = monte_carlo_average(obtuse_triangle, 4000, seed=9)
    assert abs(est - en) <= 3 * err
    # reproducible
    again = monte_carlo_average(obtuse_triangle, 4000, seed=9)
    assert again == (est, err)
    with pytest.raises(ValueError):
        monte_carlo_average(cube, 500)


def _round_loop_average(P, n_samples, seed=0):
    """The estimator as earlier releases ran it: draw 2 (n - got) + 64 box points a round,
    count the interior ones round by round and perturb each round's marginal samples
    before the next draw."""
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
    return float(counts.mean()), float(counts.std(ddof=1) / np.sqrt(n_samples))


def _needle():
    """A thin tetrahedron along the diagonal of its bounding box, 4.5% of the box."""
    return hull_from_points(np.array([[0.0, 0.0, 0.0], [1.0, 1.0, 1.0],
                                      [0.8, 0.2, 0.5], [0.2, 0.5, 0.8]]))


def test_monte_carlo_average_matches_round_loop(regular_tetra, cube, flat_tetra_10, flat_tetra_12,
                                                obtuse_triangle):
    # the fill-sized draws keep the round loop's samples, the first n interior
    # points of the seeded stream, and count them in one call: estimate and
    # stderr are bitwise equal.  They may differ only when a sample is
    # marginal, since its perturbation now draws after all samples, not
    # between rounds; none of these bodies and seeds has one that matters
    bodies = [regular_tetra, cube, flat_tetra_10, flat_tetra_12, obtuse_triangle, _needle()]
    bodies += [random_polytope("tangent_planes", {"k": k}, default_rng(k)) for k in (4, 8, 12, 24, 48)]
    bodies += [random_polytope(family, {}, default_rng(s))
               for family in ("perturbed_tetra", "perturbed_prism") for s in (1, 2)]
    lo, hi = bodies[5].bounding_box()
    assert bodies[5].volume / np.prod(hi - lo) < 0.1  # the first three draws are 2 n + 64 rows
    for P in bodies:
        for n, seeds in ((1000, (0, 1, 2)), (2000, (3, 4)), (10_000, (5,))):
            for seed in seeds:
                assert monte_carlo_average(P, n, seed) == _round_loop_average(P, n, seed)


def test_monte_carlo_memory_is_bounded():
    # 50 000 samples on a k = 48 tangent body: the round loop held a
    # (2 n + 64) x facets product, 38 MB, and peaked at 46 MB under
    # tracemalloc; draws of at most DRAW product entries and per-block counts
    # peak at 14 MB.  The bound is 10 MB over the latter, 22 MB under the former
    P = random_polytope("tangent_planes", {"k": 48}, default_rng(5))
    P._region_rows
    tracemalloc.start()
    try:
        monte_carlo_average(P, 50_000, seed=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 24e6, peak


def test_crossing_audit_cube_no_events(cube):
    ev = crossing_audit(cube, [0, 0, 0.01], [0.02, 0.01, 0.9])
    assert ev == []


def test_crossing_audit_obtuse_triangle(obtuse_triangle):
    ev = crossing_audit(obtuse_triangle, [0.0, 0.12], [-0.7, 0.03])
    assert any(abs(e.count_after - e.count_before) == 2 for e in ev)
    assert all(check_crossing_rule(e, 2) for e in ev)
    counts = {e.count_before for e in ev} | {e.count_after for e in ev}
    assert counts <= {4, 6}


def test_crossing_audit_rule_3d(flat_tetra_10, flat_tetra_12):
    rng = default_rng(12)
    for P in (flat_tetra_10, flat_tetra_12):
        pts = sample_interior(P, 40, rng)
        for i in range(0, 38, 2):
            events = crossing_audit(P, pts[i], pts[i + 1], rng)
            for e in events:
                assert check_crossing_rule(e, 3), (e.profile_before, e.profile_after, e.colors)


def test_crossing_audit_nontransversal(flat_tetra_10):
    P = flat_tetra_10
    planes = arrangement_planes(P)
    # aim the segment through a point shared by two cutting planes
    hit = None
    for i in range(len(planes)):
        for j in range(i + 1, len(planes)):
            n1, b1 = planes[i]["normal"], planes[i]["offset"]
            n2, b2 = planes[j]["normal"], planes[j]["offset"]
            d = np.cross(n1, n2)
            if np.linalg.norm(d) < 1e-9:
                continue
            A = np.vstack([n1, n2, d])
            q = np.linalg.solve(A, [b1, b2, float(d @ P.centroid)])
            if (P.facet_normals @ q <= P.facet_offsets - 1e-6 * P.diameter).all():
                hit = (q, d)
                break
        if hit:
            break
    assert hit is not None
    q, d = hit
    from polynormal.geometry import contains_interior
    w = unit(np.cross(d, [0.3, 0.7, 0.64]))
    step = 0.05 * P.diameter
    while step > 1e-9 and not (contains_interior(P, q - step * w, 1e-7)
                               and contains_interior(P, q + step * w, 1e-7)):
        step /= 2.0
    with pytest.raises(NonTransversal):
        crossing_audit(P, q - step * w, q + step * w)


def _audit_bodies():
    """The bodies of acceptance criterion 7; the triangle is the ``obtuse_triangle`` fixture."""
    rng = default_rng(77)
    return [fixtures.flat_tetrahedron_10(), fixtures.flat_tetrahedron_12(),
            fixtures.four_normal_tetrahedron(), fixtures.isoceles_triangle(2.4),
            fixtures.regular_tetrahedron(), fixtures.cube(),
            random_polytope("perturbed_tetra", {"sigma": 0.35}, rng),
            random_polytope("perturbed_prism", {"sigma": 0.12}, rng)]


def test_line_intervals_match_counting_kernel():
    # second route: the interval profile between any two consecutive face
    # endpoints equals the kernel's count wherever the kernel is not marginal
    rng = default_rng(31)
    checked = 0
    for P in _audit_bodies():
        pts = sample_interior(P, 120, rng)
        for a, b in zip(pts[::2], pts[1::2]):
            lo, hi, ends = _line_intervals(P, a, b - a)
            t = np.unique(ends[(ends > 0.0) & (ends < 1.0)])
            mids = 0.5 * (np.r_[0.0, t] + np.r_[t, 1.0])
            want = _profiles(P, (lo < mids[:, None]) & (mids[:, None] < hi))
            m, s, M, marg = count_normals_batch(P, a + mids[:, None] * (b - a))
            for i in np.flatnonzero(~marg):
                assert want[i].as_tuple() == (m[i], s[i], M[i])
                checked += 1
    assert checked > 1000


def test_ray_scan_counts_are_exact():
    rng = default_rng(32)
    rays = checked = 0
    for P in _audit_bodies():
        tol = max(P.tol, 1e-12) * max(1.0, P.diameter)
        pts = sample_interior(P, 3 * P.n_vertices, rng)
        for v, y in zip(np.repeat(np.arange(P.n_vertices), 3), pts):
            d = unit(y - P.vertices[v])
            counts = ray_scan_counts(P, v, d)
            assert len(counts) and (counts % 2 == 0).all() and (counts <= P.n_faces).all()
            t_exit = min((P.facet_offsets[f] - P.facet_normals[f] @ P.vertices[v])
                         / (P.facet_normals[f] @ d)
                         for f in range(P.n_facets) if P.facet_normals[f] @ d > 1e-14)
            lo, hi, ends = _line_intervals(P, P.vertices[v], d)
            groups, _ = _pieces(lo, hi, ends, t_exit, tol)
            cuts = [0.0] + [t for g in groups for t in (ends[g].min(), ends[g].max())] + [t_exit]
            mids = 0.5 * (np.array(cuts[::2]) + np.array(cuts[1::2]))
            m, s, M, marg = count_normals_batch(P, P.vertices[v] + mids[:, None] * d)
            assert len(counts) == len(mids)
            assert ((m + s + M) == counts)[~marg].all()
            rays += 1
            checked += int((~marg).sum())
    assert rays == 111 and checked > 300


def test_crossing_colors_are_the_crossed_sheets():
    # second route for colours: the sheets built incidence by incidence that
    # hold each event's point
    rng = default_rng(34)
    events = 0
    for P in _audit_bodies():
        sheets = sheet_planes(P)
        pts = sample_interior(P, 60, rng)
        for a, b in zip(pts[::2], pts[1::2]):
            for e in crossing_audit(P, a, b, rng):
                assert abs(e.count_after - e.count_before) == 2
                assert e.colors == {sp.color for sp in sheets if point_on_sheet(P, sp, e.point)}
                events += 1
    assert events > 300


def test_crossing_audit_zero_length_segment(obtuse_triangle, flat_tetra_10, cube):
    # beta = 0 on every row: no events, and no division warnings
    rng = default_rng(33)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for P in (obtuse_triangle, flat_tetra_10, cube):
            for y in sample_interior(P, 5, rng):
                assert crossing_audit(P, y, y) == []
                lo, hi, ends = _line_intervals(P, y, np.zeros(P.dim))
                m, s, M, _ = count_normals_batch(P, y[None, :])
                assert ((lo < 0.0) & (0.0 < hi)).sum() == m[0] + s[0] + M[0]
                assert np.isnan(ends).all()


def test_adjacent_chambers_differ_by_two_or_zero(obtuse_triangle, flat_tetra_10):
    for P in (obtuse_triangle, flat_tetra_10):
        chambers = chamber_decomposition(P)
        sheets = sheet_planes(P)
        eps = 1e-7 * P.diameter
        maps = []
        for c in chambers:
            maps.append({tuple(np.round(v / eps).astype(np.int64)): v
                         for v in c.vertices})
        walls = 0
        for i in range(len(chambers)):
            for j in range(i + 1, len(chambers)):
                shared = maps[i].keys() & maps[j].keys()
                if len(shared) < P.dim:
                    continue
                walls += 1
                diff = abs(chambers[i].count - chambers[j].count)
                assert diff in (0, 2)
                wall_mid = np.mean([maps[i][k] for k in shared], axis=0)
                on_sheet = any(point_on_sheet(P, sp, wall_mid) for sp in sheets)
                if on_sheet:
                    assert diff == 2, (chambers[i].count, chambers[j].count, wall_mid)
                else:
                    assert diff == 0, (chambers[i].count, chambers[j].count, wall_mid)
        assert walls > 0


def test_chamber_cap(flat_tetra_10):
    with pytest.raises(TooManyChambers):
        chamber_decomposition(flat_tetra_10, cap=2)


def _grid_split_by_planes(P, cap=10**6):
    """Reference split: one cell at a time, each cut polygon and each half
    deduplicated on a rounding grid of the cut tolerance, then pruned by Qhull."""
    eps = 1e-12 * max(1.0, P.diameter)

    def dedup(points):
        _, idx = np.unique(np.round(points / eps), axis=0, return_index=True)
        return points[np.sort(idx)]

    def prune(points, normal):
        if len(points) <= 2:
            return points
        flat = (points - points[0]) @ _plane_basis(normal).T
        if flat.shape[1] == 1:
            return points[[int(np.argmin(flat[:, 0])), int(np.argmax(flat[:, 0]))]]
        try:
            return points[ConvexHull(flat).vertices]
        except QhullError:
            span = flat[:, 0] if np.ptp(flat[:, 0]) >= np.ptp(flat[:, 1]) else flat[:, 1]
            return points[[int(np.argmin(span)), int(np.argmax(span))]]

    def split(verts, normal, offset):
        s = verts @ normal - offset
        if s.max() <= eps:
            return verts, None
        if s.min() >= -eps:
            return None, verts
        plus, minus = s > eps, s < -eps
        vi, vj, si, sj = verts[plus], verts[minus], s[plus], s[minus]
        lam = si[:, None] / (si[:, None] - sj[None, :])
        cross = (vi[:, None, :] + lam[..., None] * (vj[None, :, :] - vi[:, None, :]))
        section = np.vstack([cross.reshape(-1, P.dim), verts[~plus & ~minus]])
        section = prune(dedup(section), normal)
        return (dedup(np.vstack([verts[s <= eps], section])),
                dedup(np.vstack([verts[s >= -eps], section])))

    cells = [P.vertices.copy()]
    for rec in arrangement_planes(P):
        cells = [half for verts in cells
                 for half in split(verts, rec["normal"], rec["offset"]) if half is not None]
        if len(cells) > cap:
            raise TooManyChambers(f"arrangement exceeded {cap} cells")
    return cells


def _closest_pair(cells):
    """Smallest distance between two vertices of one cell, over all cells."""
    def gap(verts):
        d = np.linalg.norm(verts[:, None] - verts[None], axis=2)
        return d[np.triu_indices(len(verts), 1)].min()
    return min(gap(v) for v in cells)


def _hull_volume(verts):
    """Qhull volume of a cell, 0 for a flat one."""
    try:
        return float(ConvexHull(verts).volume)
    except QhullError:
        return 0.0


def _sampled_counts(P, cells, rng):
    """Reference counting: (count, volume) per cell above the volume floor,
    the count read at a jittered interior point that is retried while
    marginal; a cell marginal on every try is dropped."""
    out = []
    for verts in cells:
        vol = _hull_volume(verts)
        if vol <= bifurcation.MIN_REL_VOLUME * P.volume:
            continue
        for _ in range(50):
            w = 1.0 + 0.25 * rng.random(len(verts))
            m, s, M, marg = count_normals_batch(P, (verts * w[:, None]).sum(axis=0) / w.sum())
            if not marg[0]:
                out.append((int(m[0] + s[0] + M[0]), vol))
                break
    return out


def _chamber_fixtures():
    return [fixtures.cube(), fixtures.regular_tetrahedron(), fixtures.flat_tetrahedron_10(),
            fixtures.flat_tetrahedron_12(), fixtures.four_normal_tetrahedron(),
            fixtures.generic_prism(seed=2), fixtures.perturbed_cube(),
            fixtures.equilateral_triangle(), fixtures.isoceles_triangle(2.4),
            fixtures.triangle_from_angles(1.2, 1.0)]


def test_split_matches_grid_dedup_oracle():
    # the decided-region cells are coarser than the full arrangement by
    # design; their counts, read from the region rows, must give the same N
    # and the same volume at every count as sampling the arrangement cells
    bodies = _chamber_fixtures() + [
        random_polytope("tangent_planes", {"k": k}, default_rng([43, k])) for k in (5, 6, 7, 8)]
    for P in bodies:
        cells = split_by_planes(P)
        ref = _grid_split_by_planes(P)
        got = chamber_decomposition(P)
        want = _sampled_counts(P, ref, default_rng(0))
        assert max(c.count for c in got) == max(n for n, _ in want)
        for n in {c.count for c in got} | {n for n, _ in want}:
            vol_got = sum(c.volume for c in got if c.count == n)
            vol_want = sum(v for k, v in want if k == n)
            assert abs(vol_got - vol_want) <= 1e-9 * P.volume, (n, vol_got, vol_want)
        # no rounding-noise twins: vertex pairs closer than 1e-9 * diameter
        # occur only where the grid route has them too (real thin cells)
        assert _closest_pair(cells) > min(1e-9 * P.diameter, 0.5 * _closest_pair(ref))


def test_chambers_are_deterministic_and_read_counts_from_rows():
    assert "rng" not in inspect.signature(chamber_decomposition).parameters
    for P in _chamber_fixtures():
        first, again = chamber_decomposition(P), chamber_decomposition(P)
        assert len(first) == len(again)
        for a, b in zip(first, again):
            assert np.array_equal(a.vertices, b.vertices)
            assert np.array_equal(a.rep_point, b.rep_point)
            assert (a.volume, a.count, a.profile) == (b.volume, b.count, b.profile)
        m, s, M, _ = count_normals_batch(P, np.array([c.rep_point for c in first]))
        assert list(m + s + M) == [c.count for c in first]
        assert [c.profile.as_tuple() for c in first] == list(zip(m, s, M))


def test_plane_section(cube):
    sec = plane_section(cube, np.array([0.0, 0.0, 1.0]), 0.0)
    assert sec is not None and len(sec) == 4
    assert np.allclose(sec[:, 2], 0.0, atol=1e-12)
    assert plane_section(cube, np.array([0.0, 0.0, 1.0]), 5.0) is None
    # the diagonal plane x = y passes through 4 vertices and crosses 2 edges
    # at their midpoints, which lie on the section's sides
    sec = plane_section(cube, unit(np.array([1.0, -1.0, 0.0])), 0.0)
    assert sec is not None and len(sec) == 4
    assert {tuple(p) for p in np.round(sec, 9)} == {
        (x, x, z) for x in (-1.0, 1.0) for z in (-1.0, 1.0)}
    # a facet's own plane returns that facet's vertices
    f = int(np.argmax(cube.facet_normals[:, 2]))
    sec = plane_section(cube, cube.facet_normals[f], cube.facet_offsets[f])
    assert sec is not None and len(sec) == 4
    assert ({tuple(p) for p in np.round(sec, 9)}
            == {tuple(p) for p in np.round(cube.vertices[cube.facet_cycles[f]], 9)})
    # a plane that touches only an edge cuts no polygon
    assert plane_section(cube, unit(np.array([1.0, 1.0, 0.0])), np.sqrt(2.0)) is None


def _cuboctahedron():
    # its symmetric arrangement leaves region rows through three or more
    # vertices of a cell that they cut through, so that cell facets need the
    # one-side test
    return hull_from_points(np.array([p for a in (-1.0, 1.0) for b in (-1.0, 1.0)
                                      for p in ((a, b, 0.0), (a, 0.0, b), (0.0, a, b))]))


def _symmetric_bodies():
    # arrangements with many rows through one point and cut planes through
    # cell vertices: the degenerate cases of the candidate filter
    phi = (1.0 + 5.0 ** 0.5) / 2.0
    ico = [p for a in (-1.0, 1.0) for b in (-1.0, 1.0)
           for p in ((0.0, a, b * phi), (a, b * phi, 0.0), (b * phi, 0.0, a))]
    pentagon = [(np.cos(t), np.sin(t), 0.0) for t in 2.0 * np.pi * np.arange(5) / 5]
    square = [(np.cos(t), np.sin(t)) for t in np.pi / 2.0 * np.arange(4)]
    antiprism = ([(x, y, 1.0) for x, y in square]
                 + [(np.cos(t), np.sin(t), -1.0) for t in np.pi / 4.0 + np.pi / 2.0 * np.arange(4)])
    shapes = [ico, [tuple(s * e) for s in (-1.0, 1.0) for e in np.eye(3)],
              pentagon + [(0.0, 0.0, 1.0), (0.0, 0.0, -1.0)],
              [(x, y, z) for x, y, _ in pentagon for z in (-0.7, 0.7)], antiprism,
              [(x, y, z) for x in (0.0, 2.0) for y, z in ((0.0, 0.0), (1.0, 0.0), (0.0, 1.0))],
              [(np.cos(t), np.sin(t)) for t in np.pi / 3.0 * np.arange(6)], square]
    return [_cuboctahedron()] + [hull_from_points(np.array(x)) for x in shapes]


def _all_pair_split(P):
    """Reference split: the row-major split in which every (plus, minus) vertex
    pair of a cut cell gives a section candidate, and the face's distances are
    recomputed over every cell after each cut."""
    eps = 1e-12 * max(1.0, P.diameter)
    G, c, rows = P._region_rows[:3]
    cells = [P.vertices.copy()]
    for a, b in zip(rows[:-1], rows[1:]):
        for r in range(a, b):
            sizes = np.array([len(v) for v in cells])
            starts = np.cumsum(sizes) - sizes
            S = np.concatenate(cells) @ G[a:b].T - c[a:b]
            open_ = np.maximum.reduceat(S, starts).min(axis=1) > eps
            cut = np.flatnonzero(open_ & (np.minimum.reduceat(S, starts)[:, r - a] < -eps))
            if not len(cut):
                continue
            s = [S[starts[k]:starts[k] + sizes[k], r - a] for k in cut]
            local = np.repeat(np.arange(len(cut)), sizes[cut])
            i, j = bifurcation._pairs(np.concatenate(s) > eps, np.concatenate(s) < -eps, local)
            points, cell = bifurcation._cut_points(np.concatenate([cells[k] for k in cut]),
                                                   np.concatenate(s), local, i, j, eps)
            ring = bifurcation._section(points, cell, _plane_basis(G[r]), eps)
            for t, k in reversed(list(enumerate(cut))):
                section = points[ring[cell[ring] == t]]
                cells[k:k + 1] = [np.vstack([cells[k][s[t] < -eps], section]),
                                  np.vstack([cells[k][s[t] > eps], section])]
    return cells


def _sorted_rows(verts):
    return verts[np.lexsort(verts.T[::-1])]


def test_split_matches_all_pair_oracle():
    # crossing only the vertex pairs that share dim - 1 plane groups finds
    # every section vertex: the cells are the all-pair route's, bit for bit
    families = (("perturbed_tetra", {"sigma": 0.35}), ("perturbed_prism", {"sigma": 0.12}))
    bodies = (_chamber_fixtures() + _symmetric_bodies()
              + [random_polytope("tangent_planes", {"k": k}, default_rng([43, k])) for k in (5, 6, 7, 8)]
              + [random_polytope(family, params, default_rng([47, i]))
                 for family, params in families for i in range(10)])
    for P in bodies:
        got, want = split_by_planes(P), _all_pair_split(P)
        assert len(got) == len(want)
        for a, b in zip(got, want):
            assert np.array_equal(_sorted_rows(a), _sorted_rows(b))


def test_split_carries_fresh_incidence_and_signs(cube, obtuse_triangle):
    # after every face the carried plane-group bitmask of each vertex, and
    # each cell's rows above eps and below -eps somewhere, equal a fresh test
    # a pyramid over a 9-gon: its apex has 9 rows
    pyramid = hull_from_points(np.array([(np.cos(t), np.sin(t), 0.0) for t in 2.0 * np.pi * np.arange(9) / 9]
                                        + [(0.1, 0.05, 1.3)]) + default_rng(3).normal(0.0, 1e-3, (10, 3)))
    bodies = [cube, fixtures.flat_tetrahedron_10(), obtuse_triangle, pyramid,
              random_polytope("tangent_planes", {"k": 6}, default_rng([43, 6]))]
    for P in bodies:
        eps = 1e-12 * max(1.0, P.diameter)
        cells = bifurcation._Cells(P)
        Q, q, tol, bits, words = cells.planes
        word = np.searchsorted(words, np.arange(len(Q)), side="right") - 1
        G, c, rows = P._region_rows[:3]
        for (face, bases), a, b in zip(bifurcation._faces(P), rows[:-1], rows[1:]):
            sign = bifurcation._split_face(cells, face, bases, eps, 10**6)
            fresh = np.zeros_like(cells.on)
            for p in range(len(Q)):
                fresh[np.abs(cells.verts @ Q[p] - q[p]) <= tol, word[p]] |= bits[p]
            assert np.array_equal(cells.on, fresh)
            S, starts = cells.verts @ G[a:b].T - c[a:b], np.cumsum(cells.sizes) - cells.sizes
            assert sign.shape == (len(cells.sizes), 2 * (b - a))
            assert np.array_equal(sign[:, :b - a], np.maximum.reduceat(S, starts) > eps)
            assert np.array_equal(sign[:, b - a:], np.minimum.reduceat(S, starts) < -eps)
        cells_out = split_by_planes(P)
        assert [len(v) for v in cells_out] == cells.sizes.tolist()
        assert np.array_equal(np.concatenate(cells_out), cells.verts)
    # every region row of the cube lies on one of its 6 facet planes
    assert len(np.unique(bifurcation._plane_groups(cube)[3])) == 6


def _jittered_ring():
    # a near-degenerate hull: a 10-gon and its shifted copy, xy-jittered by 1e-3
    ring = np.array([(np.cos(t), np.sin(t), 0.0) for t in 2.0 * np.pi * np.arange(10) / 10])
    pts = np.vstack([ring, ring + (0.2, 0.1, 1.0)])
    pts[:, :2] += 1e-3 * default_rng(9).standard_normal((20, 2))
    return hull_from_points(pts)


def test_chamber_volumes_match_qhull():
    families = (("perturbed_tetra", {"sigma": 0.35}), ("perturbed_prism", {"sigma": 0.12}))
    bodies = (_chamber_fixtures() + [_cuboctahedron(), _jittered_ring()]
              + [random_polytope("tangent_planes", {"k": k}, default_rng([43, k])) for k in (5, 6, 7, 8)]
              + [random_polytope(family, params, default_rng([47, i]))
                 for family, params in families for i in range(10)])
    for P in bodies:
        for chamber in chamber_decomposition(P):
            hull = ConvexHull(chamber.vertices)
            assert abs(chamber.volume - hull.volume) <= 1e-12 * P.volume
            # every cell vertex is a hull vertex: no collinear points, no twins
            assert len(hull.vertices) == len(chamber.vertices)


def _qhull_section(P, normal, offset):
    """Reference section: the Qhull ring of the edge crossings and on-plane
    vertices in 3-D, their two extremes along the line in 2-D."""
    eps = 1e-12 * max(1.0, P.diameter)
    s = P.vertices @ normal - offset
    a, b = P.edges.T
    a, b = a[s[a] * s[b] < 0.0], b[s[a] * s[b] < 0.0]
    a, b = a[np.minimum(abs(s[a]), abs(s[b])) > eps], b[np.minimum(abs(s[a]), abs(s[b])) > eps]
    lam = s[a] / (s[a] - s[b])
    pts = np.vstack([P.vertices[a] + lam[:, None] * (P.vertices[b] - P.vertices[a]),
                     P.vertices[np.abs(s) <= eps]])
    flat = pts @ _plane_basis(normal).T
    if P.dim == 2:
        return pts[[flat[:, 0].argmin(), flat[:, 0].argmax()]]
    return pts[ConvexHull(flat).vertices]


def test_plane_section_matches_qhull_ring(cube):
    rng = default_rng(5)
    f = int(np.argmax(cube.facet_normals[:, 2]))
    cases = [(cube, unit(np.array([1.0, -1.0, 0.0])), 0.0),
             (cube, cube.facet_normals[f], cube.facet_offsets[f])]
    for P in _chamber_fixtures():
        for _ in range(20):
            normal = unit(rng.standard_normal(P.dim))
            cases.append((P, normal, float(normal @ sample_interior(P, 1, rng)[0])))
    for P, normal, offset in cases:
        got, want = plane_section(P, normal, offset), _qhull_section(P, normal, offset)
        assert got is not None and len(got) == len(want)
        d = np.linalg.norm(got[:, None] - want[None], axis=2)
        eps = 1e-12 * max(1.0, P.diameter)
        assert (d.min(axis=1) <= eps).all() and (d.min(axis=0) <= eps).all()
        if P.dim == 3:
            # fileio writes the ring as a polygon: consecutive turns share a sign
            ring = got @ _plane_basis(normal).T
            e = np.roll(ring, -1, axis=0) - ring
            turns = e[:, 0] * np.roll(e[:, 1], -1) - e[:, 1] * np.roll(e[:, 0], -1)
            assert (turns > 0.0).all() or (turns < 0.0).all()


def test_chambers_and_sections_emit_no_warnings(noisy_cube):
    # the fixtures include both flat tetrahedra; some of the noisy cube's cut
    # cells get no section points, and its cells miss Vol P, which raises
    # instead of giving N or EN
    bodies = _chamber_fixtures() + [random_polytope("tangent_planes", {"k": 8}, default_rng([43, 8]))]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for P in bodies:
            chamber_decomposition(P)
            for sp in sheet_planes(P):
                plane_section(P, sp.normal, sp.offset)
        for route in (chamber_decomposition, max_normals, exact_average):
            with pytest.raises(InvariantViolation, match="miss Vol P"):
                route(noisy_cube)
