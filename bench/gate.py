"""Correctness gate and answer digest.

Every check is a plain function of the program's answers, so the self-test
can feed it wrong ones.  A check is reported by name with its pass and fail
tallies; every failed check and every operation that raised counts in the
run's ``failed`` total.
"""

from __future__ import annotations

import hashlib
import json
import traceback
from collections import defaultdict

VOLUME_REL_TOL = 1e-6
MC_STDERRS = 4.0


class Gate:
    """Tallies of operations and named checks for one benchmark run."""

    def __init__(self):
        self.ops = 0
        self.op_errors = []
        self.checks = defaultdict(lambda: [0, 0])  # name -> [passed, failed]
        self.failures = []

    def op(self):
        self.ops += 1

    def op_failed(self, where, exc):
        self.op_errors.append(f"{where}: {type(exc).__name__}: {exc}")
        self.failures.append(traceback.format_exc(limit=4))

    def check(self, name, ok, detail=""):
        ok = bool(ok)
        self.checks[name][0 if ok else 1] += 1
        if not ok:
            self.failures.append(f"{name}: {detail}")
        return ok

    @property
    def attempted(self):
        return self.ops + sum(p + f for p, f in self.checks.values())

    @property
    def failed(self):
        return len(self.op_errors) + sum(f for _, f in self.checks.values())

    def report(self):
        return {"checks": {k: {"passed": p, "failed": f}
                           for k, (p, f) in sorted(self.checks.items())},
                "op_errors": self.op_errors[:20],
                "failures": self.failures[:20]}


def check_reference(gate, name, N, EN, expected_N, expected_EN=None):
    gate.check(f"reference.{name}.N", N == expected_N, f"N = {N}, expected {expected_N}")
    if expected_EN is not None:
        gate.check(f"reference.{name}.EN", abs(EN - expected_EN) <= 1e-9,
                   f"EN = {EN!r}, expected {expected_EN}")


def check_volumes(gate, volumes, volume):
    total = float(sum(volumes))
    gate.check("chambers.volume_sum", abs(total - volume) <= VOLUME_REL_TOL * volume,
               f"chamber volumes sum to {total!r}, Vol P = {volume!r}")


def check_certificate(gate, certificate, N):
    gate.check("certificate.implies_N_ge_10", certificate is None or N >= 10,
               f"certificate vertex {certificate} but N = {N}")


def check_routes(gate, lemma_verdict, definition_verdict, definition_borderline):
    """Lemma and definition must agree unless either sits on its threshold.

    ``lemma_verdict`` is None when the lemma raised Borderline.
    """
    if lemma_verdict is None or definition_borderline:
        return None
    return gate.check("spherical.routes_agree", lemma_verdict == definition_verdict,
                      f"lemma says {lemma_verdict}, definition says {definition_verdict}")


def mc_within(estimate, stderr, exact):
    return abs(estimate - exact) <= MC_STDERRS * stderr + 1e-9


def check_mc(gate, draw, exact):
    """Monte-Carlo EN within 4 stderr of the chamber EN.

    ``draw(i)`` returns (estimate, stderr) from the i-th independent seed.
    A 4-sigma miss happens by chance about once in 16 000 bodies, so a miss
    is redrawn once; a real bias misses both draws.
    """
    estimate, stderr = draw(0)
    if not mc_within(estimate, stderr, exact):
        estimate, stderr = draw(1)
    return gate.check("mc.within_4_stderr", mc_within(estimate, stderr, exact),
                      f"MC {estimate!r} +- {stderr!r} vs chamber EN {exact!r}")


def check_morse(gate, minima, saddles, maxima, batch_total):
    total = minima + saddles + maxima
    gate.check("morse.euler", minima - saddles + maxima == 2,
               f"m - s + M = {minima - saddles + maxima}")
    gate.check("morse.total", total == 2 + 2 * saddles,
               f"n = {total}, 2 + 2s = {2 + 2 * saddles}")
    gate.check("morse.matches_batch", total == batch_total,
               f"morse_profile total {total}, count_normals_batch {batch_total}")


def digest(answers):
    """sha256 of the answers: integers exactly, floats as given (pre-rounded)."""
    blob = json.dumps(answers, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()
