"""Seeded inputs for the benchmark workloads.

Uses numpy and scipy only, never polynormal: the program under test receives
the generated files (and, for ``certify_small``, the body seeds) and nothing
else.  The same seed always gives byte-identical files.
"""

from __future__ import annotations

import json
from itertools import combinations
from pathlib import Path

import numpy as np
from numpy.random import default_rng
from scipy.spatial import ConvexHull

# Reference bodies with known answers (coordinates as in polynormal.fixtures).
_FLAT_LIFT = 0.05
REFERENCE_BODIES = {
    "regular_tetrahedron": {
        "vertices": [(1, 1, 1), (1, -1, -1), (-1, 1, -1), (-1, -1, 1)],
        "N": 14, "EN": 14.0},
    "flat_tetrahedron_10": {
        "vertices": [(1.872, 3.860, 0.0), (3.593, 0.316, _FLAT_LIFT),
                     (3.556, 1.145, 0.0), (3.095, 1.949, 0.0)],
        "N": 10, "EN": None},
    "flat_tetrahedron_12": {
        "vertices": [(3.723, 0.867, 0.0), (0.318, 2.059, _FLAT_LIFT),
                     (1.814, 0.556, 0.0), (3.779, 0.250, 0.0)],
        "N": 12, "EN": None},
}

# chambers_tangent: two tangent-plane bodies each at k = 6, 7, 8.  Each is a
# fixed base body under a seeded random rotation plus a small seeded jitter.
# Uniform draws at one k differ up to 3x in cell count, which would make the
# spread across seeds wider than any useful bound; rotation keeps the
# arrangement and the jitter still moves every plane.  Base (k, j) holds the
# unit normals drawn from default_rng([BASE_SEED, k, j]); these six give
# 700-4 300 cells, about 0.4-3 s each at the parent commit.  The two k = 7
# bodies have nearly equal cell counts: the median of a pass's six body
# times falls between them, so it must not straddle a gap in cost.
CHAMBER_BASES = ((6, 0), (6, 3), (7, 2), (7, 3), (8, 4), (8, 3))
BASE_SEED = 12345
CHAMBER_JITTER = 0.002

# mc_dense: one tangent-plane body at each k, uniform unit normals.  The
# counting cost per point depends on k only (every face is tested), so
# uniform draws are steady.
MC_KS = (12, 24, 48)
MC_SAMPLES = 10_000

# certify_small: body i is random_polytope(family, params, default_rng([seed, i])),
# drawn from the two families of the scanner and acceptance criterion 9.
# A prism costs about 2.5x a tetrahedron; with half of each the median body
# would sit in the gap between the two cost modes and jump between seeds, so
# two tetrahedra come per prism and the median falls inside the tetra mode.
CERTIFY_BODIES = 42
CERTIFY_FAMILIES = (("perturbed_tetra", {"sigma": 0.35}),
                    ("perturbed_tetra", {"sigma": 0.35}),
                    ("perturbed_prism", {"sigma": 0.12}))
CERTIFY_MC_SAMPLES = 2_000


def _unit_rows(u):
    return u / np.linalg.norm(u, axis=1)[:, None]


def _bounded(normals, margin):
    """Whether {x : <u_i, x> <= 1} is bounded with the origin well inside
    conv(u_i): every hull facet of the normals keeps ``margin`` from 0."""
    return bool((ConvexHull(normals).equations[:, 3] < -margin).all())


def _random_normals(rng, k, margin):
    while True:
        u = _unit_rows(rng.standard_normal((k, 3)))
        if _bounded(u, margin):
            return u


def _rotation(rng):
    q, r = np.linalg.qr(rng.standard_normal((3, 3)))
    return q * np.sign(np.diag(r))


def chamber_normals(seed):
    bodies = []
    for j, (k, base_j) in enumerate(CHAMBER_BASES):
        base = _random_normals(default_rng([BASE_SEED, k, base_j]), k, 0.15)
        rng = default_rng([seed, j])
        while True:
            u = _unit_rows(base @ _rotation(rng).T
                           + CHAMBER_JITTER * rng.standard_normal(base.shape))
            if _bounded(u, 0.1):
                bodies.append(u)
                break
    return bodies


def mc_normals(seed):
    return [_random_normals(default_rng([seed, 1000 + k]), k, 0.1) for k in MC_KS]


def _off_text(vertices):
    lines = ["OFF", f"{len(vertices)} 4 0"]
    lines += [" ".join(repr(float(x)) for x in v) for v in vertices]
    lines += ["3 " + " ".join(str(i) for i in tri) for tri in combinations(range(4), 3)]
    return "\n".join(lines) + "\n"


def write_inputs(workload, seed, out_dir):
    """Write the workload's input files; returns (reference paths, body paths)."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    reference = {}
    for name, body in REFERENCE_BODIES.items():
        path = out_dir / f"{name}.off"
        path.write_text(_off_text(body["vertices"]))
        reference[name] = path
    if workload == "chambers_tangent":
        normals = chamber_normals(seed)
    elif workload == "mc_dense":
        normals = mc_normals(seed)
    else:
        normals = []
    bodies = []
    for j, u in enumerate(normals):
        path = out_dir / f"tangent_{j}_k{len(u)}.json"
        rows = [[float(x) for x in n] + [1.0] for n in u]
        path.write_text(json.dumps({"halfspaces": rows}))
        bodies.append(path)
    return reference, bodies
