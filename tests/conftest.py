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


def sample_interior(P, n, rng, tol=1e-7):
    """Uniform interior points by rejection from the bounding box."""
    lo, hi = P.bounding_box()
    out = []
    margin = tol * max(1.0, P.diameter)
    while len(out) < n:
        batch = rng.uniform(lo, hi, size=(4 * n + 64, P.dim))
        ok = (batch @ P.facet_normals.T <= P.facet_offsets - margin).all(axis=1)
        out.extend(batch[ok][: n - len(out)])
    return np.array(out)


def rotation(a, b, c):
    """The rotation Rz(a) Ry(b) Rx(c)."""
    ca, sa, cb, sb, cc, sc = np.cos(a), np.sin(a), np.cos(b), np.sin(b), np.cos(c), np.sin(c)
    rz = np.array([[ca, -sa, 0], [sa, ca, 0], [0, 0, 1]])
    ry = np.array([[cb, 0, sb], [0, 1, 0], [-sb, 0, cb]])
    rx = np.array([[1, 0, 0], [0, cc, -sc], [0, sc, cc]])
    return rz @ ry @ rx


ANGLES = st.tuples(*[st.floats(-np.pi, np.pi)] * 3)  # rotation angles for hypothesis tests
SHIFTS = st.tuples(*[st.floats(-2.0, 2.0)] * 3)      # translations for hypothesis tests
