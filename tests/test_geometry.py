import numpy as np
import pytest
from numpy.random import default_rng
from scipy.optimize import linprog
from scipy.spatial import ConvexHull

from polynormal import explorer, fixtures, geometry
from polynormal.errors import DegenerateInput, Empty, InvariantViolation, Unbounded, ValidationError
from polynormal.fileio import read_polytope, write_polytope
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
    right_angle_defect,
    unit,
)

CUBE_PLANES = [([1, 0, 0], 1), ([-1, 0, 0], 1), ([0, 1, 0], 1),
               ([0, -1, 0], 1), ([0, 0, 1], 1), ([0, 0, -1], 1)]


def test_cross_matches_numpy_bit_for_bit():
    # _cross stands in for np.cross on stacked rows, single vectors and
    # broadcast pairs, with the same rounding, underflow and overflow
    rng = default_rng(21)
    for ex, ey in [(a, b) for a in range(-300, 301, 100) for b in (-300, 0, 300)]:
        x, y = rng.standard_normal((2, 40, 3)) * [[[10.0 ** ex]], [[10.0 ** ey]]]
        for a, b in ((x, y), (x[0], y[0]), (x, y[0]), (x[:8, None], y[None, :5])):
            with np.errstate(all="ignore"):
                got, want = geometry._cross(a, b), np.cross(a, b)
            assert got.shape == want.shape
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), (ex, ey)


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


def test_hull_drops_a_point_at_the_mean_and_repeated_points():
    # a point at the mean has no polar plane and is dropped, and a point next
    # to it, whose polar plane lies far out, leaves the clip's tolerances as
    # they are; a point listed twice counts once, at its first listing
    cube = np.array(CUBE_CORNERS, float)
    for pts in ([*cube, (0, 0, 0)], [*cube, (1e-12, 3e-13, -7e-13)], np.vstack([cube, cube]),
                np.repeat(cube, 2, axis=0)):
        P = hull_from_points(pts)
        assert (P.n_vertices, P.n_edges, P.n_facets) == (8, 12, 6)
        assert np.array_equal(P.vertices, cube)
    for s in range(20):  # the centroid appended: at the mean, or an ulp or so off it
        pts = default_rng([4, s]).standard_normal((4 + s % 9, 3))
        P, Q = hull_from_points(pts), hull_from_points(np.vstack([pts, pts.mean(axis=0)]))
        assert np.array_equal(P.vertices, Q.vertices) and np.array_equal(P.facet_normals, Q.facet_normals)
    for pts in (default_rng(4).standard_normal((15, 3)), default_rng(4).standard_normal((9, 2))):
        P, Q = hull_from_points(pts), hull_from_points(np.vstack([pts, pts[::-1]]))
        assert np.array_equal(P.vertices, Q.vertices) and np.array_equal(P.facet_normals, Q.facet_normals)


def test_hull_rejects_degenerate_input():
    with pytest.raises(DegenerateInput):
        hull_from_points([(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0)])
    with pytest.raises(DegenerateInput):
        hull_from_points([(0, 0), (1, 1), (2, 2)])
    # just above the SVD flatness threshold the polar body is a needle: the
    # build may fail, but only with the hull's own classes
    square = [(-1, -1, 0), (1, -1, 0), (1, 1, 0), (-1, 1, 0)]
    for h in (1.01e-9, 2e-9, 5e-9, 1e-8, 3e-8, 1e-7, 3e-7):
        for pts in (np.array(CUBE_CORNERS) * [1, 1, h], default_rng(1).standard_normal((12, 3)) * [1, 1, h],
                    np.array(square + [(0.1, 0.2, h)]), np.array(square + [(0.1, 0.2, h / 2), (0, 0, -h / 2)])):
            try:
                hull_from_points(pts)
            except (DegenerateInput, InvariantViolation):
                pass


CUBE_CORNERS = [(x, y, z) for x in (-1, 1) for y in (-1, 1) for z in (-1, 1)]
PHI = (1.0 + 5.0 ** 0.5) / 2.0
ICOSAHEDRON = np.array([p for a in (-1.0, 1.0) for b in (-1.0, 1.0)
                        for p in ((0.0, a, b * PHI), (a, b * PHI, 0.0), (b * PHI, 0.0, a))])
DODECAHEDRON = np.array(CUBE_CORNERS + [p for a in (-1.0, 1.0) for b in (-1.0, 1.0)
                                        for p in ((0.0, a / PHI, b * PHI), (a / PHI, b * PHI, 0.0),
                                                  (b * PHI, 0.0, a / PHI))])


@pytest.mark.parametrize("build, arg", [
    (polytope_from_halfspaces, []),
    (polytope_from_halfspaces, [[1, 0, 0, 1], [0, 1, 1]]),  # ragged rows
    (polytope_from_halfspaces, [[1, 1], [-1, 1]]),  # rows of two numbers
    (polytope_from_halfspaces, CUBE_PLANES[:5] + [([0, 0, -1], np.nan)]),
    (polytope_from_halfspaces, CUBE_PLANES[:5] + [([0, 0, -1], np.inf)]),
    (hull_from_points, CUBE_CORNERS[:7] + [(1, 1, np.nan)]),
    (hull_from_points, CUBE_CORNERS[:7] + [(1, np.inf, 1)]),
])
def test_malformed_construction_input_raises_degenerate_input(monkeypatch, build, arg):
    def solver(*args, **kwargs):
        raise AssertionError("a solver ran on malformed input")

    for name in ("solve", "svd", "matrix_rank"):
        monkeypatch.setattr(np.linalg, name, solver)
    monkeypatch.setattr(geometry, "_edges", solver)
    with pytest.raises(DegenerateInput):
        build(arg)


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
    with pytest.raises(Unbounded):
        # the normals surround the origin by more than the margin, but a vertex
        # ray of the cone hull lies at t = 0 within rounding: a needle over 1e14 long
        polytope_from_halfspaces([([1.0, -0.3, 6.5e-12], 500.0), ([0.0, 1.0, -4.6e-12], 700.0),
                                  ([-0.4, -0.9, -3.1e-12], 800.0), ([-0.7, 0.8, 1.22e-11], 600.0)])
    with pytest.raises(Empty):
        polytope_from_halfspaces(CUBE_PLANES + [([1, 0, 0], -2)])


def test_hull_halfspace_round_trip(tmp_path):
    # each body read back from its facet halfspaces and from its OFF faces gives
    # the hull's lattice, vertices, facet normals and volume; the octahedron,
    # square pyramid, icosahedron and dodecahedron have vertices on 4 or 5 planes
    rng = default_rng(11)
    octahedron = [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)]
    pyramid = [(-1, -1, 0), (-1, 1, 0), (1, -1, 0), (1, 1, 0), (0.2, 0.1, 1)]
    clouds = ([rng.standard_normal((12, 3)) for _ in range(10)]
              + [octahedron, pyramid, ICOSAHEDRON, DODECAHEDRON])
    for pts in clouds:
        P = hull_from_points(pts)
        planes = polytope_from_halfspaces(list(zip(P.facet_normals, P.facet_offsets)))
        faces = read_polytope(write_polytope(P, tmp_path / "body.off"))
        for Q in (planes, faces):
            assert (Q.n_vertices, Q.n_edges, Q.n_facets) == (P.n_vertices, P.n_edges, P.n_facets)
            gap = np.linalg.norm(P.vertices[:, None] - Q.vertices[None], axis=2)
            assert np.array_equal(np.sort(gap.argmin(axis=1)), np.arange(P.n_vertices))
            assert gap.min(axis=1).max() <= 1e-12 * P.diameter
            turn = 1.0 - P.facet_normals @ Q.facet_normals.T
            assert np.array_equal(np.sort(turn.argmin(axis=1)), np.arange(P.n_facets))
            assert turn.min(axis=1).max() <= 1e-12
            assert abs(Q.volume - P.volume) <= 1e-12 * P.volume


@pytest.mark.parametrize("t", [1e-3, 1e-8, 1e-10, 1e-13, 0.0, -1e-13])
def test_thin_slab_is_empty_below_the_svd_threshold(t):
    # the cube's side planes with 0 <= z <= t: below 1e-7 the side facets are flat
    # at the lattice's 1e-7 * diameter rank tolerance, and below 1e-8 times the
    # slab's width its top and bottom vertices are one; either is an empty interior
    planes = CUBE_PLANES[:4] + [([0, 0, 1], t), ([0, 0, -1], 0)]
    if t < 1e-7:
        with pytest.raises(Empty):
            polytope_from_halfspaces(planes)
        return
    P = polytope_from_halfspaces(planes)
    assert (P.n_vertices, P.n_edges, P.n_facets) == (8, 12, 6)
    assert abs(P.volume - 4.0 * t) < 1e-12


@pytest.mark.parametrize("t", [7e-8, 1e-7, 2e-7])
def test_thin_slab_flat_at_the_lattice_tolerance_is_empty(t):
    # thicker than the endpoint merge (1e-8 times the width) but flat at the lattice's
    # 1e-7 * diameter rank tolerance: Empty, not an InvariantViolation from the lattice check
    with pytest.raises(Empty):
        polytope_from_halfspaces(CUBE_PLANES[:4] + [([0, 0, 1], t), ([0, 0, -1], 0)])


@pytest.mark.parametrize("eps", [1e-8, 1e-6])
def test_needle_is_built_or_empty(eps):
    # three side planes tilted by eps over z >= -1: the apex lies about 1 / eps
    # away, and at eps = 1e-8 the base, 3.5 wide, is flat at the lattice's rank
    # tolerance of 1e-7 times the diameter 1e8; that is Empty, never a bare error
    planes = [([0.0, 0.0, -1.0], 1.0)] + [([np.cos(a), np.sin(a), eps], 1.0)
                                          for a in (0.0, 2.0 * np.pi / 3.0, 4.0 * np.pi / 3.0)]
    try:
        P = polytope_from_halfspaces(planes)
    except Empty:
        return
    assert (P.n_vertices, P.n_edges, P.n_facets) == (4, 6, 4)


@pytest.mark.parametrize("extra", [[([1, 1, 0], 2)], [([1, 1, 0], 2), ([1, 2, 0], 3)]])
def test_rotated_cube_with_planes_through_an_edge_line(extra):
    # redundant planes touching the unit cube along its edge x = y = 1 share that
    # line with two facets: rotated, the third plane's slope along the line is
    # rounding, about 1e-17, and it must read as flat, not as a crossing
    from scipy.spatial.transform import Rotation

    planes = [([1, 0, 0], 1), ([-1, 0, 0], 0), ([0, 1, 0], 1),
              ([0, -1, 0], 0), ([0, 0, 1], 1), ([0, 0, -1], 0)] + extra
    for seed in range(200):
        R = Rotation.random(random_state=seed).as_matrix()
        P = polytope_from_halfspaces([(R @ np.array(n, dtype=float), b) for n, b in planes])
        assert (P.n_vertices, P.n_edges, P.n_facets) == (8, 12, 6)
        assert abs(P.volume - 1.0) < 1e-12


@pytest.mark.parametrize("noise_seed", [None, 3, 4, 5])
def test_face_regions_build_where_their_rows_share_the_face_lines(regular_tetra, noise_seed):
    # each face's active region within P is a halfspace body: P's facets plus the
    # face's region rows (-G, -c).  Those rows pass through the face, so a facet
    # region's rims share its edge lines with the facet and its neighbours.  With
    # 1e-10 vertex noise on the dodecahedron the rims miss those lines by about
    # 1e-10 in slope, which must read as flat.  Every region builds, and the
    # volumes obey the integrated Morse identity: facets - edges + vertices = 2 Vol P
    P = regular_tetra if noise_seed is None else hull_from_points(
        DODECAHEDRON + 1e-10 * default_rng(noise_seed).standard_normal(DODECAHEDRON.shape))
    T = P._region_rows
    planes = list(zip(P.facet_normals, P.facet_offsets))
    total = 0.0
    for i, dim in enumerate(T.dims):
        rows = slice(T.starts[i], T.starts[i + 1])
        region = polytope_from_halfspaces(planes + list(zip(-T.G[rows], -T.c[rows])))
        total += (-1) ** int(dim) * region.volume
    assert abs(total - 2.0 * P.volume) < 1e-9 * P.volume


def test_singular_endpoint_triple_is_empty(monkeypatch):
    # an endpoint whose planes meet in no one point raises the typed Empty, never
    # numpy's LinAlgError: here the clip is made to end the line where the
    # planes x = 1 and y = 1 meet on the plane x = -1, parallel to the first
    monkeypatch.setattr(geometry, "_edges", lambda *args: (np.array([[0, 2]]), np.array([[1, 1]])))
    with pytest.raises(Empty):
        polytope_from_halfspaces(CUBE_PLANES)


def test_halfspace_vertices_lie_on_the_planes_they_are_solved_from():
    # a vertex lies on the planes it was solved from, and not on a plane that
    # passes within tol of it: tangent bodies with four planes copied at noise
    # 1e-7 .. 1e-13 (bodies 61 and 133 have such a plane) and the polars of
    # noisy dodecahedra, five nearly concurrent planes at each vertex, all build;
    # a copy merged into its plane cuts a vertex x by about noise * (1 + |x|)
    rng = default_rng(17)
    for _ in range(200):
        P = explorer.random_polytope("tangent_planes", {"k": int(rng.integers(4, 30))}, rng)
        planes = list(zip(P.facet_normals, P.facet_offsets))
        noise = 10.0 ** -rng.integers(7, 14)
        planes += [(n + noise * rng.standard_normal(3), b + noise * rng.standard_normal())
                   for n, b in planes[:4]]
        Q = polytope_from_halfspaces(planes)
        assert Q.n_vertices - Q.n_edges + Q.n_facets == 2
        N, b = np.array([n for n, _ in planes]), np.array([b for _, b in planes])
        cut = ((Q.vertices @ N.T - b) / np.linalg.norm(N, axis=1)).max()
        assert cut <= max(Q.tol, 5.0 * noise * (1.0 + abs(Q.vertices).max()))
    for seed in range(20):
        X = DODECAHEDRON + 1e-9 * default_rng(seed).standard_normal((20, 3))
        Q = polytope_from_halfspaces([(v, 1.0) for v in X])
        assert (Q.n_vertices, Q.n_edges, Q.n_facets) == (12, 30, 20)


def _lp_halfspaces(planes, tol=geometry.DEFAULT_TOL):
    """The reference build: an interior point from the Chebyshev-centre LP, then
    Qhull's HalfspaceIntersection about it, the same grid and hull."""
    from scipy.spatial import HalfspaceIntersection

    arr = np.array([[*n, b] for n, b in planes], dtype=float)
    norms = np.linalg.norm(arr[:, :-1], axis=1)
    normals, offsets = arr[:, :-1] / norms[:, None], arr[:, -1] / norms
    dim = normals.shape[1]
    res = linprog(np.r_[np.zeros(dim), -1.0],
                  A_ub=np.column_stack([normals, np.linalg.norm(normals, axis=1)]), b_ub=offsets,
                  bounds=[(None, None)] * dim + [(0, None)], method="highs")
    assert res.success and res.x[dim] > tol * max(1.0, np.abs(offsets).max())
    pts = HalfspaceIntersection(np.column_stack([normals, -offsets]), res.x[:dim]).intersections
    grid = np.round(pts / (1e-7 * max(1.0, np.abs(pts).max())))
    _, idx = np.unique(grid, axis=0, return_index=True)
    return hull_from_points(pts[np.sort(idx)], tol)


def _plane_corpus():
    """Halfspace inputs: (planes, True) for bodies the LP build must match,
    (planes, False) where four planes are copied with 1e-11 noise."""
    rng = default_rng(17)
    planes_of = lambda P: list(zip(P.facet_normals, P.facet_offsets))

    def tangent_planes(k, rng):
        u = rng.standard_normal((k, 3))
        while np.linalg.matrix_rank(u) < 3 or linprog(  # redraw until bounded
                np.zeros(k), A_eq=u.T, b_eq=np.zeros(3), bounds=[(1.0, None)] * k).status:
            u = rng.standard_normal((k, 3))
        return [(n, 1.0) for n in u]

    tangent = [tangent_planes(k, rng) for k in range(4, 49)]
    t = np.sort(rng.uniform(0.0, 2.0 * np.pi, 11))
    exact = (tangent
             + [planes_of(hull_from_points(rng.standard_normal((12, 3)))) for _ in range(10)]
             + [planes_of(hull_from_points(DODECAHEDRON + 1e-10 * default_rng(3).standard_normal((20, 3))))]
             + [[(n, 1.0) for n in np.array(CUBE_CORNERS, float)],  # octahedron
                [([0, 0, -1], 0)] + [(n, 1.0) for n in ((1, 0, 1), (-1, 0, 1), (0, 1, 1), (0, -1, 1))],
                [(n, 1.0) for n in ICOSAHEDRON],  # dodecahedron
                [(n, 1.0) for n in DODECAHEDRON]]  # icosahedron: five planes at each vertex
             + [[([1, 0], 1), ([-1, 0], 1), ([0, 1], 2), ([0, -1], 0.5)],
                planes_of(hull_from_points(np.column_stack([np.cos(t), np.sin(t)]))),
                planes_of(hull_from_points(rng.standard_normal((9, 2))))]
             + [CUBE_PLANES + CUBE_PLANES[:3] + [([1, 1, 0], 2), ([1, 1, 1], 3), ([0, 0, 1], 5)]]
             # above every workload's plane count: the line clip is O(m^3)
             + [tangent_planes(k, default_rng([5, k])) for k in (96, 200)])
    near = []
    for i in range(50):
        planes = tangent[i % len(tangent)]
        near.append(planes + [(n + 1e-11 * rng.standard_normal(3), b + 1e-11 * rng.standard_normal())
                              for n, b in planes[:4]])
    return [(p, True) for p in exact] + [(p, False) for p in near]


def test_cone_hull_matches_lp_build():
    # vertices are solved from their own planes: the LP build's lattice and
    # vertex set, each vertex on dim input planes, no plane violated; planes
    # that nearly coincide are merged differently by the reference's 1e-7 grid and
    # by the build's endpoint merge, so there only the body's validity is required
    for planes, exact in _plane_corpus():
        P = polytope_from_halfspaces(planes)
        arr = np.array([[*n, b] for n, b in planes], dtype=float)
        norms = np.linalg.norm(arr[:, :-1], axis=1)
        normals, offsets = arr[:, :-1] / norms[:, None], arr[:, -1] / norms
        scale = max(1.0, np.abs(offsets).max())
        residual = P.vertices @ normals.T - offsets
        assert residual.max() <= P.tol * scale
        if P.dim == 3:
            assert P.n_vertices - P.n_edges + P.n_facets == 2
        if not exact:
            continue
        Q = _lp_halfspaces(planes)
        assert (P.n_vertices, P.n_edges, P.n_facets) == (Q.n_vertices, Q.n_edges, Q.n_facets)
        gap = np.linalg.norm(P.vertices[:, None] - Q.vertices[None], axis=2)
        assert np.array_equal(np.sort(gap.argmin(axis=1)), np.arange(Q.n_vertices))
        assert gap.min(axis=1).max() <= 1e-12 * P.diameter
        assert (np.sort(abs(residual), axis=1)[:, P.dim - 1] <= 1e-13 * scale).all()


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


def _loop_right_angle_defect(P, tol):
    """The right-angle test edge by edge and corner by corner (reference)."""
    for e in range(P.n_edges):
        if abs(dihedral_angle(P, e) - np.pi / 2) < tol:
            return f"right dihedral angle at edge {e}"
    for f, cycle in enumerate(P.facet_cycles):
        for v in cycle:
            if abs(planar_angle(P, f, int(v)) - np.pi / 2) < tol:
                return f"right planar angle at facet {f}, vertex {v}"
    return None


def _hull_clouds():
    """Point clouds for the Qhull oracle: regular bodies, with and without noise,
    perturbed tetrahedra, prism vertex sets, Gaussian and sphere clouds, the
    vertices of tangent-plane bodies, and polygons."""
    rng = default_rng(55)
    corners = np.array(CUBE_CORNERS, float) / 2.0 + 0.5
    clouds = [np.array(CUBE_CORNERS, float), ICOSAHEDRON, DODECAHEDRON,
              corners + 1e-10 * default_rng(0).standard_normal((8, 3)),
              np.array([(-1, -1, 0), (-1, 1, 0), (1, -1, 0), (1, 1, 0), (0.2, 0.1, 1)], float)]
    clouds += [DODECAHEDRON + eps * default_rng([3, s]).standard_normal((20, 3))
               for eps in (1e-10, 1e-9) for s in range(3)]
    clouds += [explorer._TETRA_BASE + 0.35 * rng.standard_normal((4, 3)) for _ in range(60)]
    clouds += [explorer.random_polytope("perturbed_prism", {}, default_rng([9, i])).vertices
               for i in range(15)]
    for n in (6, 10, 20, 40, 92):
        g, u = rng.standard_normal((2, n, 3))
        clouds += [g, u / np.linalg.norm(u, axis=1)[:, None]]
    clouds += [explorer.random_polytope("tangent_planes", {"k": k}, default_rng([5, k])).vertices
               for k in range(4, 25, 2)]
    t = np.sort(rng.uniform(0.0, 2.0 * np.pi, 17))
    clouds += [np.column_stack([np.cos(t), np.sin(t)])]
    clouds += [default_rng([2, s]).standard_normal((3 + s % 15, 2)) for s in range(30)]
    return clouds


def test_hull_matches_qhull_oracle():
    # the polar build gives Qhull's vertices bit for bit, in input order (a
    # polygon in Qhull's counterclockwise cycle, started at its lowest input
    # index); its facets are Qhull's coplanar triangles merged, with their
    # vertex sets, its volume is Qhull's within 1e-12 relative (plus, on the
    # noisy clouds, the merged facets' spread off their triangles' planes), and
    # its facet normals are the triangles' summed area vectors (the Newell
    # normal of the facet) within 1e-12
    for pts in _hull_clouds():
        P, hull = hull_from_points(pts), ConvexHull(pts)
        if P.dim == 2:
            k = int(hull.vertices.argmin())
            assert np.array_equal(P.vertices, pts[np.roll(hull.vertices, -k)])
            assert abs(P.volume - hull.volume) <= 1e-12 * hull.volume
            continue
        assert np.array_equal(P.vertices, pts[hull.vertices])
        # Qhull's triangles grouped by plane; an edge is one between two groups
        eq = hull.equations
        scale = max(1.0, P.diameter)
        same = (eq[:, :3] @ eq[:, :3].T >= 1.0 - 1e-13) & (abs(eq[:, 3, None] - eq[:, 3]) <= 1e-7 * scale)
        group = np.unique(same.argmax(axis=1), return_inverse=True)[1]
        edges = (group[:, None] != group[hull.neighbors]).sum() // 2
        assert (P.n_vertices, P.n_edges, P.n_facets) == (len(hull.vertices), edges, group.max() + 1)
        # a merged facet of a noisy cloud is off the true hull by its corners' spread off-plane
        member = np.zeros((len(pts), group.max() + 1), dtype=bool)
        member[hull.simplices, group[:, None]] = True
        off = np.abs(pts @ eq[:, :3].T + eq[:, 3])[member[:, group]].max()
        assert abs(P.volume - hull.volume) <= 1e-12 * hull.volume + off * hull.area
        a, b, c = (pts[hull.simplices[:, i]] for i in range(3))
        area = np.cross(b - a, c - a)
        area *= np.sign((area * eq[:, :3]).sum(axis=1))[:, None]
        ids = np.flatnonzero(np.isin(np.arange(len(pts)), hull.vertices))
        for f, cycle in enumerate(P.facet_cycles):
            g = group[np.isin(hull.simplices, ids[cycle]).all(axis=1)]
            assert len(g) and (g == g[0]).all()
            assert set(np.unique(hull.simplices[group == g[0]])) == set(ids[cycle])
            assert np.abs(P.facet_normals[f] - unit(area[group == g[0]].sum(axis=0))).max() <= 1e-12


def _hull_corpus():
    corners = np.array(CUBE_CORNERS, float) / 2.0 + 0.5
    rng = default_rng(55)
    t = np.sort(rng.uniform(0.0, 2.0 * np.pi, 17))
    return ([fixtures.cube(), fixtures.right_prism(), fixtures.regular_tetrahedron(),
             fixtures.flat_tetrahedron_10(), fixtures.perturbed_cube(), hull_from_points(DODECAHEDRON),
             hull_from_points(corners + 1e-10 * default_rng(0).standard_normal((8, 3))),
             hull_from_points(DODECAHEDRON + 1e-10 * default_rng(3).standard_normal((20, 3))),
             # Qhull's pentagons hold vertices more than tol * diameter off their
             # first triangle's plane; the facets hold their triangles' corners
             hull_from_points(DODECAHEDRON + 1e-9 * default_rng(3).standard_normal((20, 3))),
             # right planar angles, no right dihedral angle
             hull_from_points([(-1, -1, 0), (-1, 1, 0), (1, -1, 0), (1, 1, 0), (0.2, 0.1, 1)]),
             hull_from_points([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0.3, 0.4, 1)]),
             fixtures.equilateral_triangle(), fixtures.triangle_from_angles(1.2, 1.0),
             hull_from_points(np.column_stack([np.cos(t), np.sin(t)]))]
            # random bodies re-hulled from their vertices: halfspace bodies are not hulled
            + [hull_from_points(explorer.random_polytope("tangent_planes", {"k": k},
                                                         default_rng([5, k])).vertices)
               for k in range(4, 25)]
            + [hull_from_points(explorer.random_polytope(family, {}, rng).vertices)
               for family in ("perturbed_tetra", "perturbed_prism", "vertex_cloud") for _ in range(6)])


def test_stacked_right_angle_test_matches_loop(monkeypatch):
    # the stacked right-angle test gives the loop's verdicts; the right prism's
    # cycles hang on a tie at angle +-pi, the pyramid and the corner
    # tetrahedron reach the planar angles, and the random bodies are drawn
    # through each side's right-angle test, so they are the same bodies
    new = _hull_corpus()
    monkeypatch.setattr(explorer, "right_angle_defect", _loop_right_angle_defect)
    for P, Q in zip(new, _hull_corpus(), strict=True):
        pairs = [(P.vertices, Q.vertices), (P.facet_normals, Q.facet_normals),
                 (P.facet_offsets, Q.facet_offsets)]
        for a, b in pairs + list(zip(P.facet_cycles, Q.facet_cycles, strict=True)):
            assert a.shape == b.shape and np.array_equal(a, b)
        if P.dim == 3:
            for tol in (1e-9, 1e-4, 0.3, 0.6):
                assert right_angle_defect(P, tol) == _loop_right_angle_defect(P, tol)
