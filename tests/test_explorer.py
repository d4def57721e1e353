import signal

import numpy as np
import pytest
from numpy.random import default_rng

from polynormal import explorer, fixtures, hull_from_points
from polynormal.bifurcation import Chamber, max_normals
from polynormal.explorer import (
    ScanConfig,
    random_polytope,
    scan,
    witness_lower_bound,
)
from polynormal.geometry import dihedral_angle, planar_angle
from polynormal.normals import MorseProfile


def test_tangent_planes_k4_is_tetrahedron():
    P = random_polytope("tangent_planes", {"k": 4}, default_rng(0))
    assert (P.n_vertices, P.n_edges, P.n_facets) == (4, 6, 4)


def test_perturbed_tetra_sigma_zero_is_exact():
    P = random_polytope("perturbed_tetra", {"sigma": 0.0}, default_rng(0))
    ref = fixtures.regular_tetrahedron()
    a = sorted(map(tuple, np.round(P.vertices, 12)))
    b = sorted(map(tuple, np.round(ref.vertices, 12)))
    assert a == b


def test_prism_family_combinatorics():
    for seed in range(5):
        P = random_polytope("perturbed_prism", {"sigma": 0.12}, default_rng(seed))
        assert (P.n_vertices, P.n_edges, P.n_facets) == (6, 9, 5)
        assert sorted(len(c) for c in P.facet_cycles) == [3, 3, 4, 4, 4]
        assert P.is_simple()


def test_vertex_cloud_family():
    P = random_polytope("vertex_cloud", {"k": 15}, default_rng(1))
    assert P.n_vertices <= 15
    assert P.n_vertices - P.n_edges + P.n_facets == 2


def test_unknown_family():
    with pytest.raises(ValueError):
        random_polytope("moebius", {}, default_rng(0))


def test_generated_bodies_are_generic():
    rng = default_rng(5)
    for family, params in (("tangent_planes", {"k": 7}),
                           ("perturbed_tetra", {"sigma": 0.3}),
                           ("perturbed_prism", {"sigma": 0.12})):
        P = random_polytope(family, params, rng)
        for e in range(P.n_edges):
            assert abs(dihedral_angle(P, e) - np.pi / 2) > 1e-4
        for f, cycle in enumerate(P.facet_cycles):
            for v in cycle:
                assert abs(planar_angle(P, f, int(v)) - np.pi / 2) > 1e-4


def test_witness_lower_bound_is_sound():
    T = fixtures.regular_tetrahedron()
    assert witness_lower_bound(T) == 14
    for fix in (fixtures.flat_tetrahedron_10(), fixtures.flat_tetrahedron_12()):
        wlb = witness_lower_bound(fix)
        N, _ = max_normals(fix)
        assert 8 <= wlb <= N


def test_witness_lower_bound_on_a_thin_body():
    # the body fills 1e-7 of its bounding box, so drawing its random points
    # from the box would take some 6e7 draws; the alarm turns a hang into a failure
    L = 3000.0
    P = hull_from_points([[0, 0, 0], [L, L, L], [1, -1, 0], [0, 1, -1], [L + 1, L - 1, L + 0.3]])

    def hang(signum, frame):
        raise TimeoutError("witness_lower_bound ran for 5 s")

    previous = signal.signal(signal.SIGALRM, hang)
    signal.alarm(5)
    try:
        wlb = witness_lower_bound(P)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert 8 <= wlb <= P.n_faces and wlb % 2 == 0


def test_scan_deterministic_and_floored():
    cfg = dict(seed=42, n_polytopes=5, facet_range=(4, 6),
               shape_family="tangent_planes")
    r1 = scan(ScanConfig(**cfg))
    r2 = scan(ScanConfig(**cfg))
    assert r1.to_json_lines() == r2.to_json_lines()
    assert r1.summary["failures"] == 0
    assert r1.summary["min_N"] >= 8
    assert r1.summary["candidates_below_10"] == []
    for row in r1.rows:
        assert row["N"] % 2 == 0
        assert 8 <= row["N"] <= row["n_faces_total"]


def test_scan_logs_failures_and_continues():
    cfg = ScanConfig(seed=1, n_polytopes=3, facet_range=(6, 6),
                     shape_family="tangent_planes", chamber_cap=2)
    report = scan(cfg)
    assert report.summary["failures"] == 3
    assert all("error" in row for row in report.rows)
    assert len(report.rows) == 3


def test_scan_exact_average_mode():
    # EN comes from the chambers the scan already computed for N
    cfg = ScanConfig(seed=2, n_polytopes=2, facet_range=(4, 4),
                     shape_family="tangent_planes")
    report = scan(cfg)
    for row in report.rows:
        assert not {"EN_method", "EN_stderr"} & set(row)
        assert 4.0 < row["EN"] <= 14.0


def test_scan_config_validation():
    with pytest.raises(ValueError):
        ScanConfig(facet_range=(9, 4))
    with pytest.raises(ValueError):
        ScanConfig(n_polytopes=0)


def test_prism_scan_min_ten():
    cfg = ScanConfig(seed=3, n_polytopes=4, shape_family="perturbed_prism",
                     sigma=0.12)
    report = scan(cfg)
    assert report.summary["failures"] == 0
    assert report.summary["min_N"] >= 10
    for row in report.rows:
        assert row["nice_vertices"] >= 1


def _eight_normal_chambers(P, **kwargs):
    # one fake chamber holding the whole body at the conjectured floor of 8
    return [Chamber(P.vertices, P.centroid, P.volume, 8, MorseProfile(2, 3, 3))]


_LOW_PRISM_SCAN = dict(seed=3, n_polytopes=2, shape_family="perturbed_prism",
                       sigma=0.12)


def test_low_count_beside_nice_vertex_is_an_invariant_violation(monkeypatch):
    monkeypatch.setattr(explorer, "chamber_decomposition", _eight_normal_chambers)
    report = scan(ScanConfig(**_LOW_PRISM_SCAN))
    assert report.summary["failures"] == 2
    assert report.summary["candidates_below_10"] == []
    for row in report.rows:
        assert row["N"] == 8
        assert row["error"].startswith("InvariantViolation")
        assert "candidate" not in row


def test_low_count_without_nice_vertex_is_a_candidate(monkeypatch):
    monkeypatch.setattr(explorer, "chamber_decomposition", _eight_normal_chambers)
    monkeypatch.setattr(explorer, "ten_normals_certificate", lambda P: None)
    report = scan(ScanConfig(**_LOW_PRISM_SCAN))
    assert report.summary["failures"] == 0
    assert [c["index"] for c in report.summary["candidates_below_10"]] == [0, 1]
    for row, cand in zip(report.rows, report.summary["candidates_below_10"]):
        assert row["candidate"] is True and "error" not in row
        assert cand["N"] == 8 and len(cand["vertices"]) == 6
