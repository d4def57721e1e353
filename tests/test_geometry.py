import numpy as np
import pytest
from numpy.random import default_rng
from scipy.optimize import linprog

from polynormal import fixtures
from polynormal.errors import DegenerateInput, Empty, Unbounded, ValidationError
from polynormal.geometry import (
    chebyshev_center,
    cone_contains,
    contains_interior,
    dihedral_angle,
    hull_from_points,
    inner_normal_cone,
    planar_angle,
    polytope_from_halfspaces,
)

CUBE_PLANES = [([1, 0, 0], 1), ([-1, 0, 0], 1), ([0, 1, 0], 1),
               ([0, -1, 0], 1), ([0, 0, 1], 1), ([0, 0, -1], 1)]


def test_hull_regular_tetrahedron(regular_tetra):
    assert (regular_tetra.n_vertices, regular_tetra.n_edges, regular_tetra.n_facets) == (4, 6, 4)
    assert all(len(c) == 3 for c in regular_tetra.facet_cycles)


def test_hull_cube_lattice(cube):
    assert (cube.n_vertices, cube.n_edges, cube.n_facets) == (8, 12, 6)
    assert all(len(c) == 4 for c in cube.facet_cycles)
    assert abs(cube.volume - 8.0) < 1e-12


def test_hull_drops_interior_points():
    pts = [(x, y, z) for x in (-1, 1) for y in (-1, 1) for z in (-1, 1)]
    P = hull_from_points(pts + [(0, 0, 0), (0.2, 0.1, -0.3)])
    assert P.n_vertices == 8


def test_hull_rejects_degenerate_input():
    with pytest.raises(DegenerateInput):
        hull_from_points([(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0)])
    with pytest.raises(DegenerateInput):
        hull_from_points([(0, 0), (1, 1), (2, 2)])


def test_halfspaces_cube_and_tetra():
    P = polytope_from_halfspaces(CUBE_PLANES)
    assert (P.n_vertices, P.n_edges, P.n_facets) == (8, 12, 6)
    T = fixtures.regular_tetrahedron()
    planes = list(zip(T.facet_normals, T.facet_offsets))
    P2 = polytope_from_halfspaces(planes)
    assert P2.n_vertices == 4


def test_halfspaces_unbounded_and_empty():
    with pytest.raises(Unbounded):
        polytope_from_halfspaces([([1, 0, 0], 1), ([-1, 0, 0], 1), ([0, 1, 0], 1)])
    with pytest.raises(Unbounded):
        # open box: the origin lies on the boundary of conv(normals)
        polytope_from_halfspaces(CUBE_PLANES[:5])
    with pytest.raises(Empty):
        polytope_from_halfspaces(CUBE_PLANES + [([1, 0, 0], -2)])


def test_hull_halfspace_round_trip():
    rng = default_rng(11)
    for _ in range(10):
        pts = rng.standard_normal((12, 3))
        P = hull_from_points(pts)
        back = polytope_from_halfspaces(list(zip(P.facet_normals, P.facet_offsets)))
        assert back.n_vertices == P.n_vertices
        # vertex sets match up to permutation
        a = np.array(sorted(map(tuple, np.round(P.vertices, 9))))
        b = np.array(sorted(map(tuple, np.round(back.vertices, 9))))
        assert np.allclose(a, b, atol=1e-9)


def test_euler_formula_random():
    rng = default_rng(3)
    for _ in range(15):
        P = hull_from_points(rng.standard_normal((rng.integers(5, 25), 3)))
        assert P.n_vertices - P.n_edges + P.n_facets == 2


def test_inner_normal_cone_cube(cube):
    v = next(i for i in range(8) if np.allclose(cube.vertices[i], [1, 1, 1]))
    gens = inner_normal_cone(cube, (0, v))
    expected = {(-1, 0, 0), (0, -1, 0), (0, 0, -1)}
    got = {tuple(np.round(g, 12)) for g in gens}
    assert got == expected
    f = next(i for i in range(6) if np.allclose(cube.facet_normals[i], [1, 0, 0]))
    gens = inner_normal_cone(cube, (2, f))
    assert gens.shape == (1, 3) and np.allclose(gens[0], [-1, 0, 0])


def test_inner_normal_cone_tetra_edge(regular_tetra):
    T = regular_tetra
    gens = inner_normal_cone(T, (1, 0))
    assert gens.shape == (2, 3)
    f1, f2 = T.edge_facets[0]
    # each generator makes the dihedral-angle complement with the other facet:
    # cos(angle(-n1, n2)) = 1/3 for the regular tetrahedron
    assert abs(float(gens[0] @ T.facet_normals[f2]) - 1 / 3) < 1e-12
    assert abs(float(gens[1] @ T.facet_normals[f1]) - 1 / 3) < 1e-12


def test_cone_generators_supporting_inequality():
    # <p - q, g> >= 0 for all vertices p, for every face and every generator
    rng = default_rng(5)
    bodies = [fixtures.regular_tetrahedron(), fixtures.cube(),
              hull_from_points(rng.standard_normal((10, 3)))]
    for P in bodies:
        for d in P.faces:
            for face in P.faces[d]:
                rel = (P.vertices - face.affine_point) @ face.cone_generators.T
                assert rel.min() > -1e-9 * max(1.0, P.diameter)


def test_cone_contains(cube):
    v = next(i for i in range(8) if np.allclose(cube.vertices[i], [1, 1, 1]))
    assert cone_contains(cube, (0, v), [-1, -1, -1])
    assert not cone_contains(cube, (0, v), [1, 0.2, 0.2])


def test_chebyshev_cube(cube):
    sphere = chebyshev_center(cube)
    assert np.allclose(sphere.center, 0, atol=1e-9)
    assert abs(sphere.radius - 1.0) < 1e-9
    assert len(sphere.tangent_facets) == 6


def test_chebyshev_regular_tetra(regular_tetra):
    sphere = chebyshev_center(regular_tetra)
    # inradius a / (2 sqrt 6) with edge a = 2 sqrt 2
    assert abs(sphere.radius - 1 / np.sqrt(3)) < 1e-9
    assert len(sphere.tangent_facets) == 4
    gaps = regular_tetra.facet_offsets - regular_tetra.facet_normals @ sphere.center
    assert np.allclose(gaps[list(sphere.tangent_facets)], sphere.radius, atol=1e-7)


def test_chebyshev_degenerate_slab_sweep():
    # optimal centers form a square; the sweep must land on a corner with
    # at least dim + 1 tangent facets
    S = fixtures.box(10, 10, 1)
    sphere = chebyshev_center(S)
    assert abs(sphere.radius - 1.0) < 1e-9
    assert len(sphere.tangent_facets) >= 4


def test_chebyshev_radius_is_maximal():
    rng = default_rng(9)
    for _ in range(5):
        P = hull_from_points(rng.standard_normal((10, 3)))
        sphere = chebyshev_center(P)
        # no feasible center exists for radius + 1e-6
        res = linprog(np.zeros(3),
                      A_ub=P.facet_normals,
                      b_ub=P.facet_offsets - (sphere.radius + 1e-6),
                      bounds=[(None, None)] * 3, method="highs")
        assert res.status == 2  # infeasible


def test_dihedral_and_planar_angles(cube, regular_tetra):
    assert abs(dihedral_angle(cube, 0) - np.pi / 2) < 1e-12
    for e in range(regular_tetra.n_edges):
        assert abs(dihedral_angle(regular_tetra, e) - np.arccos(1 / 3)) < 1e-12
    for f in range(4):
        for v in regular_tetra.facet_cycles[f]:
            assert abs(planar_angle(regular_tetra, f, int(v)) - np.pi / 3) < 1e-12
    with pytest.raises(ValidationError):
        planar_angle(cube, 0, int([v for v in range(8)
                                   if v not in cube.facet_cycles[0]][0]))


def test_angles_rejected_in_2d():
    tri = fixtures.equilateral_triangle()
    with pytest.raises(ValidationError):
        dihedral_angle(tri, 0)


def test_contains_interior(cube):
    assert contains_interior(cube, [0, 0, 0])
    assert not contains_interior(cube, [1, 0, 0], tol=1e-9)
    rng = default_rng(2)
    for _ in range(5):
        P = hull_from_points(rng.standard_normal((9, 3)))
        assert contains_interior(P, chebyshev_center(P).center)


def test_polygon_lattice():
    tri = fixtures.equilateral_triangle()
    assert tri.dim == 2
    assert (tri.n_vertices, tri.n_facets) == (3, 3)
    assert abs(tri.volume - np.sqrt(3) / 4) < 1e-12
    assert set(tri.faces) == {0, 1}
    for face in tri.faces[0]:
        assert face.cone_generators.shape == (2, 2)


def test_facet_normals_unit_and_outward(cube, regular_tetra):
    for P in (cube, regular_tetra):
        assert np.allclose(np.linalg.norm(P.facet_normals, axis=1), 1.0, atol=1e-12)
        slack = P.vertices @ P.facet_normals.T - P.facet_offsets
        assert slack.max() < 1e-9
        assert contains_interior(P, P.centroid)


def test_diameter_equals_pair_loop():
    # the stacked product must give the pair loop's value bit for bit
    from polynormal.explorer import random_polytope

    bodies = [fixtures.regular_tetrahedron(), fixtures.cube(), fixtures.box(1.0, 2.0, 3.0),
              fixtures.perturbed_cube(), fixtures.generic_prism(seed=2),
              fixtures.equilateral_triangle(), fixtures.isoceles_triangle(2.4)]
    bodies += [hull_from_points(default_rng([17, i]).standard_normal((6 + 4 * i, 3)))
               for i in range(10)]
    bodies += [random_polytope("tangent_planes", {"k": k}, default_rng([19, k]))
               for k in (6, 12, 24, 48)]
    for P in bodies:
        V = P.vertices
        want = max(np.linalg.norm(V[i] - V[j])
                   for i in range(len(V)) for j in range(i + 1, len(V)))
        assert P.diameter == want
