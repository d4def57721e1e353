import numpy as np
import pytest
from hypothesis import strategies as st

from polynormal import fixtures


@pytest.fixture(scope="session")
def regular_tetra():
    return fixtures.regular_tetrahedron()


@pytest.fixture(scope="session")
def cube():
    return fixtures.cube()


@pytest.fixture(scope="session")
def obtuse_triangle():
    # flat isoceles triangle; the 6-normal region hugs the incenter
    return fixtures.isoceles_triangle(2.4)


@pytest.fixture(scope="session")
def four_normal_tetra():
    return fixtures.four_normal_tetrahedron()


@pytest.fixture(scope="session")
def flat_tetra_10():
    return fixtures.flat_tetrahedron_10()


@pytest.fixture(scope="session")
def flat_tetra_12():
    return fixtures.flat_tetrahedron_12()


@pytest.fixture(scope="session")
def noisy_cube():
    """The unit cube's corners moved by 1e-10 noise: its hull facets are planar only within
    ``MERGE_ANGLE``, and its chamber split does not tile it."""
    from numpy.random import default_rng

    from polynormal.geometry import hull_from_points

    corners = np.array([(x, y, z) for x in (0.0, 1.0) for y in (0.0, 1.0) for z in (0.0, 1.0)])
    return hull_from_points(corners + 1e-10 * default_rng(0).standard_normal((8, 3)))


def sample_interior(P, n, rng, tol=1e-7):
    """Uniform interior points at least ``tol`` times the diameter inside every facet.

    P is fanned into simplices from its centroid: one per facet fan triangle
    (per edge in 2-D).  A simplex is picked by volume and a point in it by
    Dirichlet weights, so the cost does not grow with the bounding box; the
    rare points within the margin of the boundary are rejected.
    """
    if P.dim == 3:
        fan = np.array([(c[0], a, b) for c in P.facet_cycles for a, b in zip(c[1:-1], c[2:])])
    else:
        fan = P.edges
    S = np.concatenate([np.broadcast_to(P.centroid, (len(fan), 1, P.dim)), P.vertices[fan]], axis=1)
    vol = np.abs(np.linalg.det(S[:, 1:] - S[:, :1]))
    margin = tol * max(1.0, P.diameter)
    out = np.empty((0, P.dim))
    while len(out) < n:
        pick = rng.choice(len(S), size=n + 16, p=vol / vol.sum())
        w = rng.exponential(size=(len(pick), P.dim + 1))
        pts = np.einsum("pk,pkd->pd", w / w.sum(axis=1, keepdims=True), S[pick])
        ok = (pts @ P.facet_normals.T <= P.facet_offsets - margin).all(axis=1)
        out = np.vstack([out, pts[ok]])
    return out[:n]


def rotation(a, b, c):
    """The rotation Rz(a) Ry(b) Rx(c)."""
    ca, sa, cb, sb, cc, sc = np.cos(a), np.sin(a), np.cos(b), np.sin(b), np.cos(c), np.sin(c)
    rz = np.array([[ca, -sa, 0], [sa, ca, 0], [0, 0, 1]])
    ry = np.array([[cb, 0, sb], [0, 1, 0], [-sb, 0, cb]])
    rx = np.array([[1, 0, 0], [0, cc, -sc], [0, sc, cc]])
    return rz @ ry @ rx


ANGLES = st.tuples(*[st.floats(-np.pi, np.pi)] * 3)  # rotation angles for hypothesis tests
SHIFTS = st.tuples(*[st.floats(-2.0, 2.0)] * 3)      # translations for hypothesis tests
