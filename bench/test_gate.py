"""Self-test of the benchmark's correctness gate: wrong answers are rejected.

Run from the repository root:  python3 -m pytest -q bench/test_gate.py
"""

import dataclasses
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import gate as g  # noqa: E402
import inputs  # noqa: E402
import workloads  # noqa: E402


def failed_checks(gate):
    return {name for name, (_, failed) in gate.checks.items() if failed}


def test_reference_n_off_by_two_is_rejected():
    gate = g.Gate()
    g.check_reference(gate, "regular_tetrahedron", 14, 14.0, 14, 14.0)
    assert gate.failed == 0
    g.check_reference(gate, "flat_tetrahedron_10", 12, None, 10)
    assert failed_checks(gate) == {"reference.flat_tetrahedron_10.N"}


def test_flipped_verdict_is_rejected_unless_borderline():
    gate = g.Gate()
    assert g.check_routes(gate, "nice", "nice", False)
    assert g.check_routes(gate, None, "skew", False) is None
    assert g.check_routes(gate, "nice", "skew", True) is None
    assert not g.check_routes(gate, "nice", "skew", False)
    assert gate.failed == 1


def test_certificate_with_low_maximum_is_rejected():
    gate = g.Gate()
    g.check_certificate(gate, None, 8)
    g.check_certificate(gate, 3, 10)
    assert gate.failed == 0
    g.check_certificate(gate, 3, 8)
    assert failed_checks(gate) == {"certificate.implies_N_ge_10"}


def test_volume_and_morse_and_mc_checks_reject_wrong_answers():
    gate = g.Gate()
    g.check_volumes(gate, [0.5, 0.5], 1.0)
    g.check_morse(gate, 4, 6, 4, 14)
    g.check_mc(gate, lambda i: [(14.2, 0.1), (14.0, 0.1)][i], 14.0)  # one miss, redrawn
    assert gate.failed == 0
    g.check_volumes(gate, [0.5, 0.49999], 1.0)
    g.check_morse(gate, 4, 5, 4, 14)
    g.check_mc(gate, lambda i: (14.5, 0.1), 14.0)
    assert failed_checks(gate) == {"chambers.volume_sum", "morse.euler", "morse.total",
                                   "morse.matches_batch", "mc.within_4_stderr"}
    assert gate.failed == 5


def test_digest_moves_with_any_answer():
    answers = [{"N": 14, "EN": 14.0, "routes": [["nice", "nice"]], "certificate": 0}]
    changed = [{"N": 16, "EN": 14.0, "routes": [["nice", "nice"]], "certificate": 0}]
    assert g.digest(answers) == g.digest([dict(answers[0])])
    assert g.digest(answers) != g.digest(changed)


@pytest.fixture
def pn():
    import polynormal

    return polynormal


def test_program_reporting_n_plus_two_fails_the_reference_gate(pn, monkeypatch):
    reference, _ = inputs.write_inputs("certify_small", 0, BENCH.parent / ".bench_out" / "selftest")
    original = pn.chamber_decomposition

    def off_by_two(P, *args, **kwargs):
        return [dataclasses.replace(c, count=c.count + 2) for c in original(P, *args, **kwargs)]

    gate = g.Gate()
    workloads.reference_checks(pn, gate, reference)
    assert gate.failed == 0
    monkeypatch.setattr(pn, "chamber_decomposition", off_by_two)
    gate = g.Gate()
    workloads.reference_checks(pn, gate, reference)
    assert failed_checks(gate) == {"reference.regular_tetrahedron.N",
                                   "reference.regular_tetrahedron.EN",
                                   "reference.flat_tetrahedron_10.N",
                                   "reference.flat_tetrahedron_12.N"}


def test_program_flipping_a_verdict_fails_the_route_check(pn, monkeypatch):
    original = pn.classify_by_definition

    def flipped(tri, *args, **kwargs):
        res = original(tri, *args, **kwargs)
        return dataclasses.replace(res, verdict="skew" if res.is_nice else "nice")

    wl = workloads.CertifySmall(pn, 0, [])
    gate = g.Gate()
    wl.check(gate, 1, wl.solve(gate, 1))
    assert gate.failed == 0
    monkeypatch.setattr(pn, "classify_by_definition", flipped)
    gate = g.Gate()
    wl.check(gate, 1, wl.solve(gate, 1))
    assert "spherical.routes_agree" in failed_checks(gate)
