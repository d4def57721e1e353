"""Acceptance criteria, one test per criterion, at the stated tolerances.

Each test prints a PASS line on success (visible with pytest -s); the
criterion number is in the test name.  Runtime budgets are asserted where
stated.  Criterion 5 runs the exact chamber maximum on the bodies with at
most eight facets and certifies the rest through sound point-count lower
bounds: a full arrangement for twelve tangent planes costs seconds to tens of
seconds per body, which does not fit the five-minute budget for a hundred
bodies in pure Python.
"""

import time
from collections import defaultdict

import numpy as np
import pytest
from numpy.random import default_rng

from conftest import sample_interior
from polynormal import fixtures
from polynormal.bifurcation import (
    chamber_decomposition,
    check_crossing_rule,
    crossing_audit,
    exact_average,
    max_normals,
    monte_carlo_average,
    spot_check_chamber,
)
from polynormal.errors import Borderline
from polynormal.explorer import random_polytope, witness_lower_bound
from polynormal.geometry import chebyshev_center
from polynormal.normals import (
    count_normals_batch,
    morse_profile,
    normals_from_point,
    perturb_to_generic,
    profile_of,
)
from polynormal.spherical import (
    classify_by_definition,
    classify_by_lemma,
    polar_dual_triangle,
    random_hemispheric_triangle,
    ten_normals_certificate,
)


def test_criterion_01_regular_tetrahedron_center(regular_tetra):
    start = time.perf_counter()
    prof = morse_profile(regular_tetra, [0.0, 0.0, 0.0])
    elapsed = time.perf_counter() - start
    assert prof.total == 14
    assert prof.as_tuple() == (4, 6, 4)
    assert elapsed < 1.0
    print(f"\nACCEPTANCE 1 PASS: regular tetrahedron center counts 14 = (4, 6, 4) "
          f"[{elapsed:.3f}s]")


def _cube_boundary_extrema(P, y, n=41):
    """Local minima/maxima of the squared distance on a dense facet grid."""
    nodes, coords = {}, []
    adj = defaultdict(set)

    def node_id(p):
        key = tuple(np.round(p, 9))
        if key not in nodes:
            nodes[key] = len(coords)
            coords.append(p)
        return nodes[key]

    for cycle in P.facet_cycles:
        c = P.vertices[cycle]
        ids = np.empty((n, n), dtype=int)
        for i, s in enumerate(np.linspace(0.0, 1.0, n)):
            left = (1 - s) * c[0] + s * c[3]
            right = (1 - s) * c[1] + s * c[2]
            for j, t in enumerate(np.linspace(0.0, 1.0, n)):
                ids[i, j] = node_id((1 - t) * left + t * right)
        for i in range(n):
            for j in range(n):
                if i + 1 < n:
                    adj[ids[i, j]].add(ids[i + 1, j])
                    adj[ids[i + 1, j]].add(ids[i, j])
                if j + 1 < n:
                    adj[ids[i, j]].add(ids[i, j + 1])
                    adj[ids[i, j + 1]].add(ids[i, j])
    d = ((np.array(coords) - y) ** 2).sum(axis=1)
    minima = maxima = 0
    for v, nb in adj.items():
        dn = d[list(nb)]
        if (d[v] < dn - 1e-12).all():
            minima += 1
        elif (d[v] > dn + 1e-12).all():
            maxima += 1
    return minima, maxima


def test_criterion_02_cube_center_against_boundary_oracle(cube):
    start = time.perf_counter()
    y = perturb_to_generic(cube, np.zeros(3))
    records = normals_from_point(cube, y)
    prof = profile_of(records)
    assert prof.as_tuple() == (6, 12, 8)
    om, oM = _cube_boundary_extrema(cube, y)
    assert (prof.minima, prof.maxima) == (om, oM) == (6, 8)
    # every edge carries one of the 12 saddles
    saddle_edges = {r.face_key[1] for r in records if r.face_key[0] == 1}
    assert saddle_edges == set(range(12))
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print(f"\nACCEPTANCE 2 PASS: cube center counts 26 = (6, 12, 8), matches "
          f"dense-boundary oracle [{elapsed:.3f}s]")


def test_criterion_03_four_normal_tetrahedron(four_normal_tetra):
    start = time.perf_counter()
    P = four_normal_tetra
    rng = default_rng(7)
    corner = np.array([-1.54, -2.02, 0.0])
    found = None
    for radius in (0.3, 0.5, 0.8):
        pts = corner + rng.uniform(-radius, radius, (8000, 3))
        ok = (pts @ P.facet_normals.T <= P.facet_offsets - 1e-9).all(axis=1)
        pts = pts[ok]
        if not len(pts):
            continue
        m, s, M, marg = count_normals_batch(P, pts)
        hits = np.nonzero((m + s + M == 4) & ~marg)[0]
        if len(hits):
            found = pts[hits[0]]
            break
    assert found is not None, "ball search near the flat corner found no 4-normal point"
    assert profile_of(normals_from_point(P, found)).as_tuple() == (1, 1, 2)
    pts = sample_interior(P, 10_000, rng)
    m, s, M, marg = count_normals_batch(P, pts)
    totals = m + s + M
    for i in np.nonzero(marg)[0]:
        y = perturb_to_generic(P, pts[i], rng)
        mm, ss, MM, _ = count_normals_batch(P, y[None, :])
        totals[i] = mm[0] + ss[0] + MM[0]
    assert (totals >= 4).all()
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    print(f"\nACCEPTANCE 3 PASS: 4-normal point found near the flat corner; "
          f"10^4 random points all count >= 4 [{elapsed:.1f}s]")


def test_criterion_04_maximum_counts_10_12_14(flat_tetra_10, flat_tetra_12,
                                              regular_tetra):
    for P, expected in ((flat_tetra_10, 10), (flat_tetra_12, 12),
                        (regular_tetra, 14)):
        start = time.perf_counter()
        N, _ = max_normals(P)
        elapsed = time.perf_counter() - start
        assert N == expected
        assert elapsed < 60.0
    print("\nACCEPTANCE 4 PASS: chamber maxima are exactly 10, 12 and 14 on the "
          "flat and regular tetrahedra")


def test_criterion_05_floor_eight_on_random_polytopes():
    start = time.perf_counter()
    rng = default_rng(55)
    n_exact = 0
    for i in range(100):
        k = int(rng.integers(4, 13))
        P = random_polytope("tangent_planes", {"k": k}, rng)
        y = perturb_to_generic(P, chebyshev_center(P).center, rng)
        prof = morse_profile(P, y)
        assert prof.total >= 8
        assert prof.total % 2 == 0
        assert prof.total <= P.n_faces
        wlb = witness_lower_bound(P, rng)
        assert 8 <= wlb <= P.n_faces and wlb % 2 == 0
        if k <= 8:
            N, _ = max_normals(P)
            assert N >= 8 and N % 2 == 0 and N <= P.n_faces
            assert N >= prof.total
            n_exact += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0
    print(f"\nACCEPTANCE 5 PASS: 100 random tangent-plane bodies all have >= 8 "
          f"normals from the inscribed-sphere center (exact maximum verified on "
          f"{n_exact} small-facet bodies) [{elapsed:.1f}s]")


def test_criterion_06_parity_and_euler_invariants():
    start = time.perf_counter()
    rng = default_rng(66)
    bodies = [fixtures.regular_tetrahedron(), fixtures.cube(),
              fixtures.flat_tetrahedron_10(), fixtures.flat_tetrahedron_12(),
              fixtures.four_normal_tetrahedron(), fixtures.perturbed_cube()]
    for seed in range(6):
        bodies.append(random_polytope("tangent_planes", {"k": 5 + seed}, rng))
        bodies.append(random_polytope("perturbed_tetra", {"sigma": 0.35}, rng))
        bodies.append(random_polytope("vertex_cloud", {"k": 8 + seed}, rng))
        bodies.append(random_polytope("perturbed_prism", {"sigma": 0.12}, rng))
    per_body = 10_000 // len(bodies) + 1
    pairs = violations = 0
    for P in bodies:
        pts = sample_interior(P, per_body, rng)
        m, s, M, marg = count_normals_batch(P, pts)
        for i in np.nonzero(marg)[0]:
            y = perturb_to_generic(P, pts[i], rng)
            m[i], s[i], M[i], _ = (int(x[0]) for x in count_normals_batch(P, y[None, :]))
        violations += int(((m - s + M) != 2).sum())
        violations += int(((m + s + M) != 2 + 2 * s).sum())
        pairs += len(pts)
    assert pairs >= 10_000
    assert violations == 0
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    print(f"\nACCEPTANCE 6 PASS: m - s + M = 2 and n = 2 + 2s on {pairs} random "
          f"(polytope, point) pairs, zero violations [{elapsed:.1f}s]")


def test_criterion_07_crossing_audit_rules():
    start = time.perf_counter()
    rng = default_rng(77)
    bodies = [fixtures.flat_tetrahedron_10(), fixtures.flat_tetrahedron_12(),
              fixtures.four_normal_tetrahedron(), fixtures.isoceles_triangle(2.4),
              fixtures.regular_tetrahedron(), fixtures.cube(),
              random_polytope("perturbed_tetra", {"sigma": 0.35}, rng),
              random_polytope("perturbed_prism", {"sigma": 0.12}, rng)]
    segments = crossings = violations = 0
    per_body = 1000 // len(bodies)
    for P in bodies:
        pts = sample_interior(P, 2 * per_body, rng)
        for i in range(0, 2 * per_body - 1, 2):
            events = crossing_audit(P, pts[i], pts[i + 1], rng)
            segments += 1
            for e in events:
                delta = abs(e.count_after - e.count_before)
                if delta:
                    crossings += 1
                if not check_crossing_rule(e, P.dim):
                    violations += 1
    assert segments == 1000
    assert crossings > 300
    assert violations == 0
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    print(f"\nACCEPTANCE 7 PASS: {segments} transversal segments, {crossings} "
          f"sheet crossings, all +-2 with the blue/red type rule "
          f"[{elapsed:.1f}s]")


def test_criterion_08_spherical_cross_oracle():
    start = time.perf_counter()
    rng = default_rng(88)
    compared = skew_count = dual_checked = 0
    disagreements = dual_mismatches = 0
    while compared < 10_000:
        tri = random_hemispheric_triangle(rng)
        try:
            by_lemma = classify_by_lemma(tri)
        except Borderline:
            continue
        by_def = classify_by_definition(tri)
        if by_def.borderline:
            continue
        compared += 1
        skew_count += by_lemma.verdict == "skew"
        if by_lemma.verdict != by_def.verdict:
            disagreements += 1
        try:
            dual_verdict = classify_by_lemma(polar_dual_triangle(tri))
            dual_checked += 1
            if dual_verdict.verdict != by_lemma.verdict:
                dual_mismatches += 1
        except Borderline:
            pass
    assert disagreements == 0
    assert dual_mismatches == 0
    assert dual_checked >= 9_900
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    print(f"\nACCEPTANCE 8 PASS: lemma == definition on {compared} random "
          f"triangles ({skew_count} skew); skew(T) == skew(dual T) on "
          f"{dual_checked} [{elapsed:.1f}s]")


def test_criterion_09_certificates_tetrahedra_and_prisms():
    start = time.perf_counter()
    rng = default_rng(99)
    failures = 0
    for family, params, count in (("perturbed_tetra", {"sigma": 0.35}, 1000),
                                  ("perturbed_prism", {"sigma": 0.12}, 1000)):
        for _ in range(count):
            P = random_polytope(family, params, rng)
            cert = ten_normals_certificate(P)
            N, _ = max_normals(P)
            if cert is None or N < 10:
                failures += 1
    assert failures == 0
    elapsed = time.perf_counter() - start
    assert elapsed < 600.0
    print(f"\nACCEPTANCE 9 PASS: 1000 tetrahedra + 1000 prisms all certify a "
          f"nice vertex and reach chamber maximum >= 10 [{elapsed:.1f}s]")


def _random_nonobtuse_triangle(rng):
    while True:
        a = rng.uniform(0.7, np.pi / 2 - 0.06)
        b = rng.uniform(0.7, np.pi / 2 - 0.06)
        if np.pi - a - b <= np.pi / 2 - 0.06:
            return fixtures.triangle_from_angles(a, b)


def _random_obtuse_triangle(rng):
    while True:
        a = rng.uniform(0.2, 1.0)
        b = rng.uniform(0.2, 1.0)
        if np.pi - a - b >= np.pi / 2 + 0.06:
            return fixtures.triangle_from_angles(a, b)


def test_criterion_10_averages():
    start = time.perf_counter()
    rng = default_rng(1010)
    for i in range(20):
        tri = _random_nonobtuse_triangle(rng)
        en = exact_average(tri)
        assert abs(en - 6.0) < 1e-9
        est, err = monte_carlo_average(tri, 1500, seed=2000 + i)
        assert abs(est - en) <= 3 * err + 1e-12
    for i in range(20):
        tri = _random_obtuse_triangle(rng)
        en = exact_average(tri)
        assert 4.0 < en < 6.0
        est, err = monte_carlo_average(tri, 1500, seed=3000 + i)
        assert abs(est - en) <= 3 * err
    trend = [exact_average(fixtures.isoceles_triangle(a)) for a in (2.0, 2.6, 3.0)]
    assert trend[0] > trend[1] > trend[2]
    T = fixtures.regular_tetrahedron()
    assert abs(exact_average(T) - 14.0) < 1e-9
    est, err = monte_carlo_average(T, 2000, seed=4000)
    assert est == 14.0 and err == 0.0
    for i in range(50):
        P = random_polytope("perturbed_tetra", {"sigma": 0.35}, rng)
        chambers = chamber_decomposition(P)
        en = exact_average(P, chambers=chambers)
        assert 4.0 < en <= 14.0 + 1e-12
        est, err = monte_carlo_average(P, 2000, seed=5000 + i)
        assert abs(est - en) <= 3 * err + 1e-9
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0
    print(f"\nACCEPTANCE 10 PASS: averages exact on triangles (6 and (4,6), "
          f"decreasing with obtuseness), 14 on the regular tetrahedron, in "
          f"(4, 14] on 50 random tetrahedra, Monte-Carlo within 3 stderr "
          f"everywhere [{elapsed:.1f}s]")


def test_criterion_11_volume_conservation_and_constancy():
    start = time.perf_counter()
    rng = default_rng(1111)
    bodies = [fixtures.regular_tetrahedron(), fixtures.cube(),
              fixtures.flat_tetrahedron_10(), fixtures.flat_tetrahedron_12(),
              fixtures.four_normal_tetrahedron(), fixtures.isoceles_triangle(2.4),
              fixtures.isoceles_triangle(2.8), fixtures.equilateral_triangle(),
              fixtures.perturbed_cube(), fixtures.generic_prism(seed=4)]
    for P in bodies:
        chambers = chamber_decomposition(P)
        total = sum(c.volume for c in chambers)
        assert abs(total - P.volume) <= 1e-6 * P.volume
        assert all(spot_check_chamber(P, c, rng, samples=5) for c in chambers)
    elapsed = time.perf_counter() - start
    print(f"\nACCEPTANCE 11 PASS: chamber volumes conserve Vol(P) to 1e-6 and "
          f"every chamber passes the 5-sample constancy check on "
          f"{len(bodies)} fixtures [{elapsed:.1f}s]")
