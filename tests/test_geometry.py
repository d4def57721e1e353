import numpy as np
import pytest
from numpy.random import default_rng
from scipy.optimize import linprog

from polynormal import fixtures
from polynormal.errors import DegenerateInput, Empty, InvariantViolation, Unbounded, ValidationError
from polynormal.geometry import (
    Polytope,
    chebyshev_center,
    cone_contains,
    contains_interior,
    dihedral_angle,
    hull_from_points,
    inner_normal_cone,
    planar_angle,
    polytope_from_halfspaces,
    unit,
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


def _loop_faces(P):
    """Face fields, volume and centroid built vertex by vertex, edge by edge and facet by facet."""
    V, faces = P.vertices, {d: [] for d in range(P.dim)}
    for v in range(len(V)):
        dirs = [unit(V[sum(P.edges[e]) - v] - V[v]) for e in P.vertex_edges[v]]
        faces[0].append((0, v, np.array([v]), V[v].copy(), -P.facet_normals[P.vertex_facets[v]],
                         np.array(dirs)))
    if P.dim == 3:
        for e, (a, b) in enumerate(P.edges):
            g1, g2 = -P.facet_normals[P.edge_facets[e]]
            c = float(g1 @ g2)
            faces[1].append((1, e, P.edges[e].copy(), 0.5 * (V[a] + V[b]), np.array([g1, g2]),
                             np.array([unit(g1 - c * g2), unit(g2 - c * g1)])))
    fd = P.dim - 1
    for f, cycle in enumerate(P.facet_cycles):
        faces[fd].append((fd, f, np.array(cycle), V[cycle].mean(axis=0),
                          -P.facet_normals[f][None, :], np.zeros((0, P.dim))))
    if P.dim == 2:
        order, prev = [0], None  # boundary walk from vertex 0
        while len(order) < len(V):
            nxt = [w for e in P.edges if order[-1] in e for w in e if w not in (order[-1], prev)]
            prev = order[-1]
            order.append(int(nxt[0]))
        x, y = V[order].T
        xs, ys = np.roll(x, -1), np.roll(y, -1)
        cross = x * ys - xs * y
        area = cross.sum() / 2.0
        return faces, abs(float(area)), np.array([((x + xs) * cross).sum() / (6.0 * area),
                                                  ((y + ys) * cross).sum() / (6.0 * area)])
    vol, moment = 0.0, np.zeros(3)
    for cycle in P.facet_cycles:
        p0 = V[cycle[0]]
        for i in range(1, len(cycle) - 1):
            p1, p2 = V[cycle[i]], V[cycle[i + 1]]
            v6 = float(np.dot(p0, np.cross(p1, p2)))
            vol += v6
            moment += v6 * (p0 + p1 + p2)
    vol /= 6.0
    return faces, vol, moment / (24.0 * vol)


def _lattice_corpus():
    from polynormal.explorer import random_polytope

    rng = default_rng(55)
    t = np.sort(rng.uniform(0.0, 2.0 * np.pi, 9))
    return ([fixtures.regular_tetrahedron(), fixtures.cube(), fixtures.box(1.0, 2.0, 3.0),
             fixtures.perturbed_cube(), fixtures.four_normal_tetrahedron(),
             fixtures.flat_tetrahedron_10(), fixtures.flat_tetrahedron_12(), fixtures.right_prism(),
             fixtures.generic_prism(seed=2), fixtures.equilateral_triangle(),
             fixtures.triangle_from_angles(1.2, 1.0), hull_from_points(np.column_stack([np.cos(t), np.sin(t)]))]
            + [random_polytope("tangent_planes", {"k": k}, default_rng([5, k])) for k in range(4, 49)]
            + [random_polytope(family, {}, rng) for family in ("perturbed_tetra", "perturbed_prism")
               for _ in range(8)])


def test_lazy_faces_volume_centroid_match_loop_build():
    # the array-built lattice gives the face-by-face build's fields, volume
    # and centroid bit for bit, and the region table holds the same vertex rows
    for P in _lattice_corpus():
        assert "faces" not in vars(P)
        faces, volume, centroid = _loop_faces(P)
        assert P.volume == volume and np.array_equal(P.centroid, centroid)
        assert list(P.faces) == list(faces)
        for d, want in faces.items():
            got = [(f.dim, f.index, f.vertex_ids, f.affine_point, f.cone_generators, f.cone_support)
                   for f in P.faces[d]]
            for g, w in zip(got, want, strict=True):
                assert g[:2] == w[:2]
                for a, b in zip(g[2:], w[2:]):
                    assert a.shape == b.shape and np.array_equal(a, b)
        T, rows = P._region_rows, slice(P._region_rows.starts[-1 - P.n_vertices], None)
        assert np.array_equal(T.G[rows], np.vstack([w[5] for w in faces[0]]))
        assert np.array_equal(T.c[rows], np.concatenate([U @ v for _, _, _, v, _, U in faces[0]]))
        if P.dim == 3:
            assert np.array_equal(P._edge_support, np.array([w[5] for w in faces[1]]))


def test_counting_and_certificates_build_no_face_objects():
    from polynormal.bifurcation import chamber_decomposition, monte_carlo_average
    from polynormal.spherical import ten_normals_certificate, vertex_figure

    for P in (fixtures.generic_prism(seed=2), fixtures.triangle_from_angles(1.2, 1.0)):
        chamber_decomposition(P)
        monte_carlo_average(P, 1000)
        if P.dim == 3:
            for v in range(P.n_vertices):
                vertex_figure(P, v)
            ten_normals_certificate(P)
        assert "faces" not in vars(P)
        assert P.face((0, 0)).index == 0 and "faces" in vars(P)


def test_zero_length_edge_raises_at_construction(cube):
    # a copy of vertex 0 set on the edge (0, 1) of both its facets: the
    # lattice is sound, the edge (0, copy) has length 0
    a, b = 0, int(cube.edges[0, 1])
    cycles = []
    for cycle in cube.facet_cycles:
        c = list(cycle)
        for i in range(len(c)):
            if {c[i], c[i - 1]} == {a, b}:
                c.insert(i, 8)
                break
        cycles.append(c)
    V = np.vstack([cube.vertices, cube.vertices[a]])
    with pytest.raises(ValueError, match="zero vector"):
        Polytope(V, cube.facet_normals, cube.facet_offsets, cycles)


def test_collinear_facet_raises_at_construction():
    # tetrahedron lattice with D the midpoint of AB: facet ABD is a segment,
    # which the stacked rank check of the triangles finds
    V = np.array([(0, 0, 0), (2, 0, 0), (0, 2, 0), (1, 0, 0)], float)
    n = np.array([(0, 0, -1), (0, -1, 0), (-1, 0, 0), (1, 1, 1)], float)
    n /= np.linalg.norm(n, axis=1)[:, None]
    cycles = [[0, 2, 1], [0, 1, 3], [0, 3, 2], [1, 2, 3]]
    with pytest.raises(InvariantViolation, match="facet 1 vertex set is not affinely 2-dimensional"):
        Polytope(V, n, (V @ n.T).max(axis=0), cycles)
