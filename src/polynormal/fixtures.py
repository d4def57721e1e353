"""Canonical reference bodies used by tests, demos and the random families.

The two flat tetrahedra freeze a numeric search over planar convex
quadrilaterals ABCD lifted at B by 0.05: the strips of AD and BC are disjoint
inside the quadrilateral (no interior point projects onto both edges) and the
diagonal intersection projects onto exactly two respectively three of the
sides, which pins the maximum saddle count at 4 respectively 5.
"""

from __future__ import annotations

import numpy as np
from numpy.random import default_rng

from .errors import PolytopeError, RejectionLimit
from .geometry import hull_from_points, polytope_from_halfspaces


def regular_tetrahedron():
    return hull_from_points([(1, 1, 1), (1, -1, -1), (-1, 1, -1), (-1, -1, 1)])


def cube(half=1.0):
    h = float(half)
    return hull_from_points([(x, y, z) for x in (-h, h) for y in (-h, h) for z in (-h, h)])


def box(ax, ay, az):
    return hull_from_points([(sx * ax, sy * ay, sz * az)
                             for sx in (-1, 1) for sy in (-1, 1) for sz in (-1, 1)])


def perturbed_cube(eps=0.03, seed=0):
    """Combinatorial cube with jittered facet planes: simple and generic."""
    rng = default_rng(seed)
    planes = []
    for axis in range(3):
        for sign in (1.0, -1.0):
            n = np.zeros(3)
            n[axis] = sign
            n = n + eps * rng.standard_normal(3)
            n /= np.linalg.norm(n)
            planes.append((n, 1.0 + eps * rng.standard_normal()))
    P = polytope_from_halfspaces(planes)
    if (P.n_vertices, P.n_edges, P.n_facets) != (8, 12, 6):
        raise RejectionLimit("perturbation broke the cube combinatorics; lower eps")
    return P


def four_normal_tetrahedron():
    """Tetrahedron admitting an interior point with only 4 normals.

    All three dihedral angles meeting the bottom-facet vertex opposite the
    long edge are just barely obtuse, which starves the saddle tests near it.
    """
    return hull_from_points([(-5.0, 0.0, 0.0), (2.0, 0.0, 0.0),
                             (-1.54, -2.02, 0.0), (-3.87, -1.11, 1.52)])


def flat_tetrahedron_10():
    """Near-planar tetrahedron with maximum normal count exactly 10."""
    quad = [(1.872, 3.860), (3.593, 0.316), (3.556, 1.145), (3.095, 1.949)]
    return _lifted_quad(quad, 0.05)


def flat_tetrahedron_12():
    """Near-planar tetrahedron with maximum normal count exactly 12."""
    quad = [(3.723, 0.867), (0.318, 2.059), (1.814, 0.556), (3.779, 0.250)]
    return _lifted_quad(quad, 0.05)


def _lifted_quad(quad, delta):
    (ax, ay), (bx, by), (cx, cy), (dx, dy) = quad
    return hull_from_points([(ax, ay, 0.0), (bx, by, delta),
                             (cx, cy, 0.0), (dx, dy, 0.0)])


def right_prism(radius=1.0, height=1.0):
    """Right prism over an equilateral triangle of the given circumradius
    (carries exact right angles, so it is deliberately non-generic)."""
    base = [(radius * np.cos(a), radius * np.sin(a))
            for a in (np.pi / 2, np.pi / 2 + 2 * np.pi / 3, np.pi / 2 + 4 * np.pi / 3)]
    pts = [(x, y, 0.0) for x, y in base] + [(x, y, height) for x, y in base]
    return hull_from_points(pts)


def generic_prism(seed=0, sigma=0.12, max_tries=200):
    """Random simple triangular prism: 3 tilted side planes plus 2 tilted caps."""
    rng = default_rng(seed)
    return _random_prism(rng, sigma, max_tries)


def _random_prism(rng, sigma=0.12, max_tries=200):
    for _ in range(max_tries):
        phis = np.sort(rng.uniform(0, 2 * np.pi, 3))
        gaps = np.diff(np.concatenate([phis, [phis[0] + 2 * np.pi]]))
        if gaps.min() < 0.7:
            continue
        planes = []
        for ph in phis:
            tilt = sigma * rng.standard_normal()
            n = np.array([np.cos(ph) * np.cos(tilt), np.sin(ph) * np.cos(tilt), np.sin(tilt)])
            planes.append((n, 1.0 + 0.2 * rng.standard_normal()))
        for sgn in (1.0, -1.0):
            v = sigma * rng.standard_normal(2)
            n = np.array([v[0], v[1], sgn])
            planes.append((n / np.linalg.norm(n), 1.0 + 0.2 * rng.standard_normal()))
        try:
            P = polytope_from_halfspaces(planes)
        except PolytopeError:
            continue
        if (P.n_vertices, P.n_edges, P.n_facets) != (6, 9, 5):
            continue
        if sorted(len(c) for c in P.facet_cycles) != [3, 3, 4, 4, 4]:
            continue
        if P.diameter > 25.0:  # near-parallel side planes make needle prisms
            continue
        return P
    raise RejectionLimit("no valid prism within the retry budget")


def equilateral_triangle(side=1.0):
    h = side * np.sqrt(3) / 2
    return hull_from_points([(0.0, 0.0), (side, 0.0), (side / 2, h)])


def isoceles_triangle(apex_angle, leg=1.0):
    """Isoceles triangle with the given apex angle (obtuse allowed)."""
    s = leg * np.sin(apex_angle / 2)
    h = leg * np.cos(apex_angle / 2)
    return hull_from_points([(-s, 0.0), (s, 0.0), (0.0, h)])


def triangle_from_angles(alpha, beta, base=1.0):
    """Triangle with angles alpha at A=(0,0) and beta at B=(base,0)."""
    if not (0 < alpha < np.pi and 0 < beta < np.pi and alpha + beta < np.pi):
        raise ValueError("invalid triangle angles")
    b = base * np.sin(beta) / np.sin(alpha + beta)
    return hull_from_points([(0.0, 0.0), (base, 0.0),
                             (b * np.cos(alpha), b * np.sin(alpha))])
