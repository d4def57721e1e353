"""Random polytope generation and the conjecture scanner.

The scanner searches simple polytopes for maximum normal counts below 10,
which no example is known to attain.  A nice vertex certifies N >= 10
independently of the chamber count, so a low count is reported as a
candidate only when the body has no nice vertex; a nice vertex beside a low
count is an InvariantViolation recorded in the row.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np
from numpy.random import default_rng

from .bifurcation import arrangement_planes, chamber_decomposition, exact_average, monte_carlo_average
from .errors import InvariantViolation, PolytopeError, RejectionLimit
from .fixtures import _random_prism, regular_tetrahedron
from .geometry import chebyshev_center, hull_from_points, polytope_from_halfspaces, right_angle_defect
from .normals import count_normals_batch, perturb_to_generic
from .spherical import (
    classify,
    classify_by_definition,
    ray_scan_counts,
    ten_normals_certificate,
    vertex_figure,
)

RIGHT_ANGLE_GAP = 1e-4

_TETRA_BASE = np.array([(1.0, 1.0, 1.0), (1.0, -1.0, -1.0),
                        (-1.0, 1.0, -1.0), (-1.0, -1.0, 1.0)])


def random_polytope(family, params=None, rng=None, max_tries=200):
    """One random polytope from a named family.

    Families: ``tangent_planes`` (k planes tangent to the unit sphere),
    ``vertex_cloud`` (hull of k uniform sphere points), ``perturbed_tetra``
    (regular tetrahedron plus vertexwise Gaussian noise), ``perturbed_prism``
    (random tilted-plane triangular prism).  Outputs with a dihedral or
    planar angle within 1e-4 of a right angle are rejected.
    """
    params = dict(params or {})
    rng = default_rng() if rng is None else rng
    for _ in range(max_tries):
        try:
            if family == "tangent_planes":
                k = int(params.get("k", 8))
                u = rng.standard_normal((k, 3))
                u /= np.linalg.norm(u, axis=1)[:, None]
                P = polytope_from_halfspaces([(ui, 1.0) for ui in u])
            elif family == "vertex_cloud":
                k = int(params.get("k", 10))
                u = rng.standard_normal((k, 3))
                u /= np.linalg.norm(u, axis=1)[:, None]
                P = hull_from_points(u)
            elif family == "perturbed_tetra":
                sigma = float(params.get("sigma", 0.25))
                if sigma == 0.0:
                    return regular_tetrahedron()
                P = hull_from_points(_TETRA_BASE + sigma * rng.standard_normal((4, 3)))
            elif family == "perturbed_prism":
                sigma = float(params.get("sigma", 0.12))
                P = _random_prism(rng, sigma=sigma, max_tries=50)
            else:
                raise ValueError(f"unknown family {family!r}")
        except PolytopeError:
            continue
        if right_angle_defect(P, RIGHT_ANGLE_GAP) is None:
            return P
    raise RejectionLimit(f"no generic {family} polytope within {max_tries} tries")


def witness_lower_bound(P, rng=None):
    """Certified lower bound for the maximum normal count.

    Evaluates the count at concrete interior points: the Chebyshev center,
    the centroid, a handful of random points, and (on simple polytopes) ray
    scans from every nice vertex along its witness direction.  Every value is
    a genuine n(P, y), so the maximum never exceeds the true chamber maximum.
    """
    rng = default_rng(0) if rng is None else rng
    candidates = [chebyshev_center(P).center, P.centroid]
    lo, hi = P.bounding_box()
    tol = P.tol * max(1.0, P.diameter)
    while len(candidates) < 8:
        y = rng.uniform(lo, hi)
        if (P.facet_normals @ y <= P.facet_offsets - tol).all():
            candidates.append(y)
    best = 0
    pts = []
    for y in candidates:
        try:
            pts.append(perturb_to_generic(P, y, rng))
        except PolytopeError:
            continue
    if pts:
        m, s, M, marg = count_normals_batch(P, np.array(pts))
        tot = (m + s + M)[~marg]
        if len(tot):
            best = int(tot.max())
    if P.dim == 3 and P.is_simple():
        planes = arrangement_planes(P)
        for v in range(P.n_vertices):
            try:
                tri = vertex_figure(P, v)
                verdict = classify(tri)
                if not verdict.is_nice:
                    continue
                witness = verdict.witness
                if witness is None:
                    witness = classify_by_definition(tri).witness
                if witness is None:
                    continue
                counts = ray_scan_counts(P, v, witness, planes=planes)
                if len(counts):
                    best = max(best, int(counts.max()))
            except PolytopeError:
                continue
    return best


@dataclass
class ScanConfig:
    """Reproducible scan parameters; identical configs give identical reports."""

    seed: int = 0
    n_polytopes: int = 20
    facet_range: tuple = (4, 12)
    shape_family: str = "tangent_planes"
    sigma: float = 0.25
    chamber_cap: int = 200_000
    mc_samples: int = 10_000
    use_exact_average: bool = False

    def __post_init__(self):
        lo, hi = self.facet_range
        if lo > hi or self.n_polytopes < 1:
            raise ValueError("empty scan range")


@dataclass
class ScanReport:
    """Per-polytope rows plus global statistics of a scan."""

    config: ScanConfig
    rows: list
    summary: dict

    def to_json_lines(self):
        lines = [json.dumps(row, sort_keys=True) for row in self.rows]
        lines.append(json.dumps({"summary": self.summary}, sort_keys=True))
        return "\n".join(lines) + "\n"


def _params_for(config, rng):
    if config.shape_family in ("tangent_planes", "vertex_cloud"):
        lo, hi = config.facet_range
        return {"k": int(rng.integers(lo, hi + 1))}
    return {"sigma": config.sigma}


def scan(config):
    """Generate, measure and summarize random polytopes per the config.

    Per-polytope failures are recorded in their row and do not stop the scan.
    A simple polytope whose maximum count lands below 10 is reported as a
    conjecture candidate only when ``ten_normals_certificate`` finds no nice
    vertex; a nice vertex proves N >= 10, so the low count is recorded as an
    InvariantViolation in the row instead.  The candidate row keeps its
    full-precision vertices.
    """
    rows = []
    candidates = []
    n_values = []
    failures = 0
    for i in range(config.n_polytopes):
        rng = default_rng([config.seed, i])
        row = {"index": i, "family": config.shape_family}
        try:
            params = _params_for(config, rng)
            row["params"] = {k: (int(v) if isinstance(v, (int, np.integer)) else float(v))
                             for k, v in params.items()}
            P = random_polytope(config.shape_family, params, rng)
            row["n_facets"] = P.n_facets
            row["n_faces_total"] = P.n_faces
            chambers = chamber_decomposition(P, cap=config.chamber_cap, rng=rng)
            N = max(c.count for c in chambers)
            row["N"] = int(N)
            row["chambers"] = len(chambers)
            if config.use_exact_average:
                row["EN"] = exact_average(P, chambers=chambers)
                row["EN_method"] = "exact"
            else:
                est, err = monte_carlo_average(P, config.mc_samples,
                                               seed=int(rng.integers(2**31)))
                row["EN"] = est
                row["EN_stderr"] = err
                row["EN_method"] = "mc"
            row["nice_vertices"] = _nice_vertex_count(P)
            n_values.append(int(N))
            if N < 10 and P.is_simple():
                v = ten_normals_certificate(P)
                if v is not None:
                    raise InvariantViolation(f"chamber maximum {N} < 10 but vertex {v} is nice")
                row["candidate"] = True
                candidates.append({"index": i,
                                   "N": int(N),
                                   "vertices": P.vertices.tolist()})
        except PolytopeError as exc:
            row["error"] = f"{type(exc).__name__}: {exc}"
            failures += 1
        rows.append(row)
    histogram = {}
    for n in n_values:
        histogram[str(n)] = histogram.get(str(n), 0) + 1
    summary = {
        "seed": config.seed,
        "n_polytopes": config.n_polytopes,
        "failures": failures,
        "min_N": min(n_values) if n_values else None,
        "histogram_N": dict(sorted(histogram.items(), key=lambda kv: int(kv[0]))),
        "candidates_below_10": candidates,
    }
    return ScanReport(config, rows, summary)


def _nice_vertex_count(P):
    if P.dim != 3 or not P.is_simple():
        return None
    count = 0
    for v in range(P.n_vertices):
        try:
            count += classify(vertex_figure(P, v)).is_nice
        except PolytopeError:
            return None
    return count

