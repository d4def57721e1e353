"""The three workloads: the program calls a user makes, and their checks.

``solve(i)`` is the timed work for body i; ``check(gate, i, res)``
runs the correctness checks on its result outside the timed region and
returns the answers that go into the digest.  Every call into polynormal
inside ``solve`` counts as one operation attempted.  A pass is ``len(wl)``
consecutive bodies; ``certify_small`` draws new bodies for every index, the
others cycle their fixed input bodies with fresh Monte-Carlo seeds.
"""

from __future__ import annotations

from collections import Counter

import numpy as np
from numpy.random import default_rng

import gate as g
import inputs

MORSE_POINTS = 16


def _solve_chambers(pn, gate, P):
    gate.op()
    chambers = pn.chamber_decomposition(P)
    N, _ = pn.max_normals(P, chambers=chambers)
    EN = pn.exact_average(P, chambers=chambers)
    return chambers, N, EN


def reference_checks(pn, gate, reference_paths):
    """Known answers on the reference bodies, read from their OFF files."""
    for name, path in reference_paths.items():
        expected = inputs.REFERENCE_BODIES[name]
        try:
            gate.op()
            P = pn.read_polytope(path)
            chambers, N, EN = _solve_chambers(pn, gate, P)
        except Exception as exc:  # keep checking the other bodies
            gate.op_failed(f"reference {name}", exc)
            continue
        g.check_reference(gate, name, N, EN, expected["N"], expected["EN"])
        g.check_volumes(gate, [c.volume for c in chambers], P.volume)


class ChambersTangent:
    """Exact N and EN of tangent-plane bodies from one chamber decomposition."""

    name = "chambers_tangent"

    def __init__(self, pn, seed, bodies):
        self.pn = pn
        self.bodies = bodies
        self.stats = Counter()

    def __len__(self):
        return len(self.bodies)

    def solve(self, gate, i):
        return _solve_chambers(self.pn, gate, self.bodies[i % len(self.bodies)])

    def check(self, gate, i, res):
        chambers, N, EN = res
        g.check_volumes(gate, [c.volume for c in chambers],
                        self.bodies[i % len(self.bodies)].volume)
        return {"N": int(N), "EN": round(EN, 9)}


class CertifySmall:
    """Small random bodies: generation, both nice/skew routes, certificate,
    exact N/EN and a 2 000-sample Monte-Carlo EN per body."""

    name = "certify_small"

    def __init__(self, pn, seed, bodies):
        self.pn = pn
        self.seed = seed
        self.stats = Counter()

    def __len__(self):
        return inputs.CERTIFY_BODIES

    def solve(self, gate, i):
        pn = self.pn
        family, params = inputs.CERTIFY_FAMILIES[i % len(inputs.CERTIFY_FAMILIES)]
        rng = default_rng([self.seed, i])
        gate.op()
        P = pn.random_polytope(family, params, rng)
        routes = []
        for v in range(P.n_vertices):
            gate.op()
            tri = pn.vertex_figure(P, v)
            try:
                lemma = pn.classify_by_lemma(tri).verdict
            except pn.errors.Borderline:
                lemma = None
            definition = pn.classify_by_definition(tri)
            routes.append((lemma, definition.verdict, bool(definition.borderline)))
        gate.op()
        certificate = pn.ten_normals_certificate(P)
        chambers, N, EN = _solve_chambers(pn, gate, P)
        mc_seed = int(rng.integers(2**31))
        gate.op()
        mc = pn.monte_carlo_average(P, inputs.CERTIFY_MC_SAMPLES, seed=mc_seed)
        return family, P, routes, certificate, chambers, N, EN, mc_seed, mc

    def check(self, gate, i, res):
        family, P, routes, certificate, chambers, N, EN, mc_seed, mc = res
        g.check_volumes(gate, [c.volume for c in chambers], P.volume)
        g.check_certificate(gate, certificate, N)
        for lemma, verdict, borderline in routes:
            agreed = g.check_routes(gate, lemma, verdict, borderline)
            self.stats["triangles"] += 1
            self.stats["borderline"] += agreed is None
            self.stats["compared"] += agreed is not None
            self.stats["agreed"] += bool(agreed)

        def draw(attempt):
            if attempt == 0:
                return mc
            return self.pn.monte_carlo_average(P, inputs.CERTIFY_MC_SAMPLES,
                                               seed=mc_seed + attempt)

        g.check_mc(gate, draw, EN)
        return {"family": family, "N": int(N), "EN": round(EN, 9),
                "routes": [[lemma or "borderline", verdict] for lemma, verdict, _ in routes],
                "certificate": certificate}


class McDense:
    """Large Monte-Carlo EN estimates on tangent-plane bodies with many faces."""

    name = "mc_dense"

    def __init__(self, pn, seed, bodies):
        self.pn = pn
        self.seed = seed
        self.bodies = bodies
        self.stats = Counter()

    def __len__(self):
        return len(self.bodies)

    def solve(self, gate, i):
        gate.op()
        mc_seed = int(default_rng([self.seed, 2000 + i]).integers(2**31))
        return self.pn.monte_carlo_average(self.bodies[i % len(self.bodies)],
                                           inputs.MC_SAMPLES, seed=mc_seed)

    def _interior_points(self, P, rng):
        lo, hi = P.bounding_box()
        margin = 1e-7 * max(1.0, P.diameter)
        pts = []
        while len(pts) < MORSE_POINTS:
            y = rng.uniform(lo, hi)
            if (P.facet_normals @ y <= P.facet_offsets - margin).all():
                pts.append(y)
        return pts

    def check(self, gate, i, res):
        pn, P = self.pn, self.bodies[i % len(self.bodies)]
        rng = default_rng([self.seed, 3000 + i])
        profiles = []
        for y in self._interior_points(P, rng):
            gate.op()
            y = pn.perturb_to_generic(P, y, rng)
            prof = pn.morse_profile(P, y)
            m, s, M, _ = pn.count_normals_batch(P, y[None, :])
            g.check_morse(gate, prof.minima, prof.saddles, prof.maxima,
                          int(m[0] + s[0] + M[0]))
            profiles.append(list(prof.as_tuple()))
        estimate, _ = res
        return {"k": P.n_facets,
                "count_sum": int(np.rint(estimate * inputs.MC_SAMPLES)),
                "morse": profiles}

    def points(self, n_bodies):
        return n_bodies * inputs.MC_SAMPLES


WORKLOADS = {w.name: w for w in (ChambersTangent, CertifySmall, McDense)}
