import inspect
from itertools import combinations

import numpy as np
import pytest
from numpy.random import default_rng

from polynormal import fixtures
from polynormal.errors import (
    Borderline,
    NonSimpleVertex,
    NotGeneric,
    NotSimple,
    OnBifurcationSet,
)
from polynormal.geometry import chebyshev_center, dihedral_angle, hull_from_points
from polynormal.normals import normals_from_point, perturb_to_generic, profile_of
from polynormal.geometry import unit
from polynormal.spherical import (
    BORDERLINE_BAND,
    WITNESS_MARGIN,
    SphericalTriangle,
    _best_witness_enumeration,
    acute_census,
    classify,
    classify_by_definition,
    classify_by_lemma,
    local_critical_test,
    normal_fan_tiling,
    polar_dual_triangle,
    random_hemispheric_triangle,
    ray_scan_counts,
    shell_ratio_check,
    spherical_distance,
    spherical_project,
    ten_normals_certificate,
    vertex_figure,
    witness_constraints,
)


def test_vertex_figure_cube(cube):
    fig = vertex_figure(cube, 0)
    assert np.allclose(fig.sides, np.pi / 2, atol=1e-12)
    assert np.allclose(fig.angles, np.pi / 2, atol=1e-12)


def test_vertex_figure_regular_tetra(regular_tetra):
    fig = vertex_figure(regular_tetra, 0)
    assert np.allclose(fig.sides, np.pi / 3, atol=1e-12)
    assert np.allclose(fig.angles, np.arccos(1 / 3), atol=1e-12)


def test_vertex_figure_prism():
    fig = vertex_figure(fixtures.right_prism(), 0)
    assert sorted(np.round(fig.sides, 9)) == pytest.approx(
        sorted([np.pi / 3, np.pi / 2, np.pi / 2]), abs=1e-9)
    assert sorted(np.round(fig.angles, 9)) == pytest.approx(
        sorted([np.pi / 3, np.pi / 2, np.pi / 2]), abs=1e-9)


def test_vertex_figure_matches_polytope_angles(flat_tetra_10):
    P = flat_tetra_10
    from polynormal.geometry import planar_angle
    for v in range(P.n_vertices):
        fig = vertex_figure(P, v)
        for k in range(3):
            assert abs(fig.angles[k] - dihedral_angle(P, fig.edge_ids[k])) < 1e-9
            assert abs(fig.sides[k] - planar_angle(P, fig.facet_ids[k], v)) < 1e-9


def test_vertex_figure_rejects_nonsimple():
    octa = hull_from_points([(1, 0, 0), (-1, 0, 0), (0, 1, 0),
                             (0, -1, 0), (0, 0, 1), (0, 0, -1)])
    with pytest.raises(NonSimpleVertex):
        vertex_figure(octa, 0)


def test_spherical_projection_basics():
    y = np.array([np.cos(-0.17), np.sin(-0.17), 0.0])
    z = np.array([np.cos(0.17), np.sin(0.17), 0.0])
    assert np.allclose(spherical_project(y, y, z), y, atol=1e-12)
    x = np.array([0.05, 0.005, 1.0]) / np.linalg.norm([0.05, 0.005, 1.0])
    foot = spherical_project(x, y, z)
    assert abs(np.arctan2(foot[1], foot[0]) - np.arctan2(x[1], x[0])) < 1e-9
    pole = np.array([0.0, 0.0, 1.0])
    foot = spherical_project(pole, y, z)
    assert abs(spherical_distance(pole, foot) - np.pi / 2) < 1e-12
    # a point past the perpendicular at z does not project
    far = np.array([np.cos(0.9), np.sin(0.9), 0.4])
    assert spherical_project(far / np.linalg.norm(far), y, z) is None


def test_spherical_projection_discretization_oracle():
    rng = default_rng(0)
    n = 4001
    for _ in range(120):
        tri = random_hemispheric_triangle(rng)
        a, b = tri.verts[0], tri.verts[1]
        x = tri.verts.mean(axis=0)
        x /= np.linalg.norm(x)
        foot = spherical_project(x, a, b)
        ts = np.linspace(0, 1, n)
        arc = (1 - ts)[:, None] * a + ts[:, None] * b
        arc /= np.linalg.norm(arc, axis=1)[:, None]
        d = np.arccos(np.clip(arc @ x, -1, 1))
        step = spherical_distance(a, b) / (n - 1)
        if foot is None:
            assert d.argmin() in (0, n - 1)
        else:
            assert abs(d.min() - spherical_distance(x, foot)) < step + 1e-9


def test_law_of_cosines_consistency():
    rng = default_rng(2)
    for _ in range(200):
        tri = random_hemispheric_triangle(rng)
        a, b, c = tri.sides
        A = tri.angles[0]
        lhs = np.cos(a)
        rhs = np.cos(b) * np.cos(c) + np.sin(b) * np.sin(c) * np.cos(A)
        assert abs(lhs - rhs) < 1e-9


def test_all_short_sides_is_nice():
    # every side below pi/2 leaves the first skew condition unsatisfiable
    tri = SphericalTriangle([1, 0.02, 0.03], [0.8, 0.6, 0.1], [0.78, 0.08, 0.62])
    assert (tri.sides < np.pi / 2).all()
    assert classify_by_lemma(tri).verdict == "nice"
    assert classify_by_definition(tri).verdict == "nice"


def test_exact_cube_figure_is_borderline(cube):
    fig = vertex_figure(cube, 0)
    with pytest.raises(Borderline):
        classify_by_lemma(fig)
    # the one classification route falls back to the definition
    verdict = classify(fig)
    by_def = classify_by_definition(fig)
    assert verdict.score is not None and verdict.conditions is None
    assert (verdict.verdict, verdict.score) == (by_def.verdict, by_def.score)
    # shrunk well below right angles, the verdict is strictly nice
    shrink = SphericalTriangle(*_triangle_with_sides(np.pi / 2 - 0.01))
    assert classify_by_lemma(shrink).verdict == "nice"


def _triangle_with_sides(side):
    # equilateral triangle with given side, centered at the north pole
    colat = np.arcsin(np.sin(side / 2) / np.sin(np.pi / 3))
    out = []
    for k in range(3):
        ph = 2 * np.pi * k / 3
        out.append([np.sin(colat) * np.cos(ph), np.sin(colat) * np.sin(ph), np.cos(colat)])
    return np.array(out)


def test_constructed_skew_triangle_passes_all_conditions():
    rng = default_rng(14)
    tri = None
    while tri is None:
        cand = random_hemispheric_triangle(rng)
        try:
            verdict = classify_by_lemma(cand)
        except Borderline:
            continue
        if verdict.verdict == "skew":
            tri = cand
            table = verdict.conditions
    full_pass = [perm for perm, conds in table if all(conds)]
    assert full_pass, "skew verdict must exhibit a fully satisfied labeling"
    assert classify_by_definition(tri).verdict == "skew"


def test_classification_cross_oracle():
    rng = default_rng(101)
    agree = skew = 0
    while agree < 1000:
        tri = random_hemispheric_triangle(rng)
        try:
            by_lemma = classify_by_lemma(tri)
        except Borderline:
            continue
        by_def = classify_by_definition(tri)
        if by_def.borderline:
            continue
        assert by_lemma.verdict == by_def.verdict
        agree += 1
        skew += by_lemma.verdict == "skew"
    assert skew > 10


def _best_witness_grid(tri, H, grid_res):
    """Barycentric grid search with two tenfold refinement rounds."""
    v = tri.verts

    def evaluate(weights):
        pts = weights @ v
        pts /= np.linalg.norm(pts, axis=1)[:, None]
        scores = (pts @ H.T).min(axis=1)
        b = int(np.argmax(scores))
        return float(scores[b]), weights[b]

    ii, jj = np.meshgrid(np.arange(grid_res), np.arange(grid_res))
    ii, jj = ii.ravel(), jj.ravel()
    keep = ii + jj < grid_res
    w = np.column_stack([(ii[keep] + 0.5), (jj[keep] + 0.5),
                         grid_res - (ii[keep] + 0.5) - (jj[keep] + 0.5)]) / grid_res
    score, wbest = evaluate(w)
    span = 1.0 / grid_res
    for _ in range(2):
        lo = np.maximum(wbest - span, 1e-9)
        steps = np.linspace(0.0, 2 * span, 11)
        du, dv = np.meshgrid(steps, steps)
        wa = lo[0] + du.ravel()
        wb = lo[1] + dv.ravel()
        wc = 1.0 - wa - wb
        ok = wc > 1e-9
        s2, w2 = evaluate(np.column_stack([wa[ok], wb[ok], wc[ok]]))
        if s2 > score:
            score, wbest = s2, w2
        span /= 10.0
    return score


def test_enumeration_dominates_grid_search():
    # the closed-form enumeration is the global optimum of the witness
    # margin, so no interior grid point may score higher
    from polynormal.explorer import random_polytope
    rng = default_rng(21)
    tris = [random_hemispheric_triangle(rng) for _ in range(700)]
    for family, n_bodies in (("perturbed_tetra", 40), ("perturbed_prism", 25)):
        for _ in range(n_bodies):
            P = random_polytope(family, None, rng)
            tris.extend(vertex_figure(P, v) for v in range(P.n_vertices))
    assert len(tris) >= 1000
    for tri in tris:
        H = witness_constraints(tri)
        assert _best_witness_enumeration(H)[0] >= _best_witness_grid(tri, H, 64) - 1e-12


def _witness_constraints_loop(tri):
    """Witness rows built one side at a time (reference for the stacked build)."""
    v = tri.verts
    rows = []
    for k in range(3):
        g = unit(np.cross(v[(k + 1) % 3], v[(k + 2) % 3]))
        rows.append(g if float(g @ v[k]) > 0 else -g)
    for k in range(3):
        y, z = v[(k + 1) % 3], v[(k + 2) % 3]
        g = unit(np.cross(y, z))
        rows.append(np.cross(g, y))
        rows.append(np.cross(z, g))
    rows.extend(v)
    return np.array(rows)


def _best_witness_loop(H):
    """Candidate enumeration one pair and one triple at a time."""
    cands = [H]
    for i, j in combinations(range(len(H)), 2):
        s = H[i] + H[j]
        n = np.linalg.norm(s)
        if n > 1e-9:
            cands.append((s / n)[None, :])
    for i, j, k in combinations(range(len(H)), 3):
        c = np.cross(H[i] - H[j], H[j] - H[k])
        n = np.linalg.norm(c)
        if n > 1e-9:
            cands.append((c / n)[None, :])
            cands.append((-c / n)[None, :])
    X = np.vstack(cands)
    scores = (X @ H.T).min(axis=1)
    best = int(np.argmax(scores))
    return float(scores[best]), X[best]


def test_batched_enumeration_matches_loop_oracle():
    # 2 000 random triangles plus the vertex figures of 100 tetrahedra and
    # 100 prisms: the array enumeration reproduces the loop enumeration's
    # rows, score, verdict, borderline flag and witness
    from polynormal.explorer import random_polytope
    rng = default_rng(88)
    tris = [random_hemispheric_triangle(rng) for _ in range(2000)]
    for family in ("perturbed_tetra", "perturbed_prism"):
        for _ in range(100):
            P = random_polytope(family, None, rng)
            tris.extend(vertex_figure(P, v) for v in range(P.n_vertices))
    assert len(tris) == 3000
    nice = 0
    for tri in tris:
        H = witness_constraints(tri)
        H_ref = _witness_constraints_loop(tri)
        assert np.abs(H - H_ref).max() <= 1e-15
        score_ref, x_ref = _best_witness_loop(H_ref)
        score, x = _best_witness_enumeration(H)
        assert abs(score - score_ref) <= 1e-15
        assert np.abs(x - x_ref).max() <= 1e-12
        got = classify_by_definition(tri)
        assert got.score == score
        assert got.verdict == ("nice" if score_ref >= WITNESS_MARGIN else "skew")
        assert got.borderline == (abs(score_ref) < BORDERLINE_BAND)
        nice += got.is_nice
    assert 0 < nice < len(tris)


def test_spherical_tolerances_are_constants():
    for fn, arg in ((classify_by_definition, "tri"), (classify_by_lemma, "tri"),
                    (ten_normals_certificate, "P"), (acute_census, "P")):
        assert list(inspect.signature(fn).parameters) == [arg]


def test_polar_dual_swap_and_involution(regular_tetra, cube):
    fig = vertex_figure(cube, 0)
    dual = polar_dual_triangle(fig)
    assert np.allclose(sorted(dual.sides), sorted(fig.sides), atol=1e-9)
    figT = vertex_figure(regular_tetra, 0)
    dualT = polar_dual_triangle(figT)
    assert np.allclose(dualT.angles, np.pi - np.pi / 3, atol=1e-9)
    assert np.allclose(dualT.sides, np.pi - np.arccos(1 / 3), atol=1e-9)
    rng = default_rng(3)
    for _ in range(300):
        tri = random_hemispheric_triangle(rng)
        dd = polar_dual_triangle(polar_dual_triangle(tri))
        match = np.abs(dd.verts @ tri.verts.T).max(axis=1)
        assert np.allclose(match, 1.0, atol=1e-9)


def test_skew_invariant_under_duality():
    rng = default_rng(4)
    done = 0
    while done < 400:
        tri = random_hemispheric_triangle(rng)
        try:
            v1 = classify_by_lemma(tri)
            v2 = classify_by_lemma(polar_dual_triangle(tri))
        except Borderline:
            continue
        assert v1.verdict == v2.verdict
        done += 1


def test_local_critical_cube_diagonal(cube):
    rep = local_critical_test(cube, 0, -cube.vertices[0])
    assert rep.is_max
    assert len(rep.saddle_edges) == 3 and len(rep.min_facets) == 3


def test_local_critical_near_facet_direction(cube):
    # direction hugging one facet: that facet reports a minimum
    v = next(i for i in range(8) if np.allclose(cube.vertices[i], [1, 1, 1]))
    d = np.array([-1.0, -1.0, -0.02])
    d /= np.linalg.norm(d)
    rep = local_critical_test(cube, v, d)
    f_bottom = next(i for i in range(6) if np.allclose(cube.facet_normals[i], [0, 0, 1]))
    assert f_bottom in rep.min_facets


def test_local_critical_matches_counts():
    rng = default_rng(5)
    checked = 0
    for seed in range(24):
        P = fixtures.generic_prism(seed=seed) if seed % 2 else fixtures.perturbed_cube(seed=seed)
        for v in range(P.n_vertices):
            dirs = P.faces[0][v].cone_support
            w = rng.random(len(dirs)) + 0.2
            d = w @ dirs
            d /= np.linalg.norm(d)
            rep = local_critical_test(P, v, d)
            y = P.vertices[v] + 1e-3 * P.diameter * d
            try:
                records = normals_from_point(P, y)
            except OnBifurcationSet:
                continue
            inc_e = set(int(e) for e in P.vertex_edges[v])
            inc_f = set(int(f) for f in P.vertex_facets[v])
            saddles = {r.face_key[1] for r in records
                       if r.face_key[0] == 1 and r.face_key[1] in inc_e}
            minima = {r.face_key[1] for r in records
                      if r.face_key[0] == 2 and r.face_key[1] in inc_f}
            assert any(r.face_key == (0, v) for r in records) == rep.is_max
            assert saddles == set(rep.saddle_edges)
            assert minima == set(rep.min_facets)
            checked += 1
    assert checked >= 100


def test_certificate_on_fixtures(flat_tetra_10):
    assert ten_normals_certificate(fixtures.perturbed_cube()) is not None
    assert ten_normals_certificate(fixtures.generic_prism(seed=1)) is not None
    assert ten_normals_certificate(flat_tetra_10) is not None


def test_certificate_gates(cube):
    octa = hull_from_points([(1, 0, 0), (-1, 0, 0), (0, 1, 0),
                             (0, -1, 0), (0, 0, 1), (0, 0, -1)])
    with pytest.raises(NotSimple):
        ten_normals_certificate(octa)
    with pytest.raises(NotGeneric):
        ten_normals_certificate(cube)


def test_certificate_soundness_against_chambers():
    from polynormal.bifurcation import max_normals
    rng = default_rng(6)
    base = np.array([(1, 1, 1), (1, -1, -1), (-1, 1, -1), (-1, -1, 1)], float)
    for _ in range(15):
        P = hull_from_points(base + 0.4 * rng.standard_normal((4, 3)))
        try:
            cert = ten_normals_certificate(P)
        except NotGeneric:
            continue
        if cert is not None:
            assert max_normals(P)[0] >= 10


def test_acute_census_regular_tetra(regular_tetra):
    for rec in acute_census(regular_tetra):
        assert len(rec.acute_dihedral_edges) == 3
        assert len(rec.acute_planar_facets) == 3
        assert not rec.compatible_with_low_max()


def test_acute_census_prisms_violate_low_max_pattern():
    # a prism cannot have every vertex in the (2 acute dihedral, 1 acute
    # planar, not-between) pattern: its facets carry at least 7 acute corners
    for seed in range(8):
        P = fixtures.generic_prism(seed=seed)
        census = acute_census(P)
        assert any(not rec.compatible_with_low_max() for rec in census)


def test_acute_census_reports_near_cube():
    census = acute_census(fixtures.perturbed_cube())
    assert len(census) == 8


def test_normal_fan_tiling(regular_tetra):
    tiles, all_skew = normal_fan_tiling(regular_tetra)
    assert len(tiles) == 4
    assert abs(sum(t.solid_angle() for t in tiles) - 4 * np.pi) < 1e-6
    assert not all_skew
    tiles, _ = normal_fan_tiling(fixtures.perturbed_cube())
    assert len(tiles) == 8
    assert abs(sum(t.solid_angle() for t in tiles) - 4 * np.pi) < 1e-6


def test_tetrahedra_never_tile_all_skew():
    rng = default_rng(7)
    base = np.array([(1, 1, 1), (1, -1, -1), (-1, 1, -1), (-1, -1, 1)], float)
    for _ in range(50):
        P = hull_from_points(base + 0.45 * rng.standard_normal((4, 3)))
        tiles, all_skew = normal_fan_tiling(P)
        assert len(tiles) == 4
        assert not all_skew


def test_shell_ratio(cube):
    assert abs(shell_ratio_check(cube, [0, 0, 0]) - np.sqrt(3)) < 1e-12


def test_shell_ratio_certificate_many_facets():
    # a 100-facet tangent-plane body hugs its insphere: ratio below sqrt(2),
    # hence no acute dihedral angle and at least 10 normals from the center
    from polynormal.explorer import random_polytope
    rng = default_rng(8)
    P = random_polytope("tangent_planes", {"k": 100}, rng)
    center = chebyshev_center(P).center
    ratio = shell_ratio_check(P, center)
    assert ratio < np.sqrt(2)
    assert all(dihedral_angle(P, e) > np.pi / 2 for e in range(P.n_edges))
    y = perturb_to_generic(P, center)
    assert profile_of(normals_from_point(P, y)).total >= 10


def test_ray_scan_reaches_ten_on_flat_tetra(flat_tetra_10):
    P = flat_tetra_10
    best = 0
    for v in range(P.n_vertices):
        tri = vertex_figure(P, v)
        verdict = classify_by_definition(tri)
        if verdict.is_nice and verdict.witness is not None:
            counts = ray_scan_counts(P, v, verdict.witness)
            if len(counts):
                best = max(best, int(counts.max()))
    assert best == 10
