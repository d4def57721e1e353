"""polynormal benchmark: one workload per run, one caller in a closed loop.

Usage, from the repository root:

    python3 bench/run.py --workload chambers_tangent --seed 1 --seconds 15 --trace 0

A run writes its seeded inputs under .bench_out/, times set-up in fresh
interpreters (import polynormal, read the inputs), checks the reference
answers, then processes the workload's bodies pass after pass, each body
after the previous one completes, until --seconds have passed.  With
--trace 0 it reports the end-to-end metrics; with --trace 1 it times one
pass untraced, wraps the layer functions, and reports per-layer metrics from
the traced passes.  The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}; the line before it is the
full report (checks by name, answer digest, machine).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_PROBES = 5
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
WORKLOAD_NAMES = ("chambers_tangent", "certify_small", "mc_dense")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def machine(blas_cap):
    import numpy
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10,
                             env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)})
        git_sha = sha.stdout.strip() if sha.returncode == 0 else None
    except (OSError, subprocess.SubprocessError):
        git_sha = None
    source = hashlib.sha256()
    for path in sorted((SRC / "polynormal").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "cpu": cpu, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "git_sha": git_sha, "source_sha256": source.hexdigest(),
            "blas_threads": blas_cap}


def setup_probe(paths):
    """Seconds from spawning a fresh interpreter until it has imported
    polynormal and read every input, plus the child's own import/read split."""
    cmd = [sys.executable, str(BENCH_DIR / "setup_probe.py"), str(SRC), *map(str, paths)]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT) as proc:
        line = proc.stdout.readline()
        setup_s = time.perf_counter() - t0
        proc.stdout.read()
    if proc.returncode != 0 or not line:
        raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}")
    rec = json.loads(line)
    rec["raw_setup_s"] = setup_s
    return rec


def setup_probes(paths, n):
    """``n`` set-up probes, each scaled to reference speed like a body."""
    import speed  # after main() has capped the BLAS threads

    probes = []
    cal = speed.calibrate()
    for _ in range(n):
        rec = setup_probe(paths)
        cal_after = speed.calibrate()
        rec["setup_s"] = speed.at_reference(rec["raw_setup_s"], cal, cal_after)
        cal = cal_after
        probes.append(rec)
    return probes


def run_passes(wl, gate, tracer, seconds, alternate):
    """Process whole passes over the workload's bodies until ``seconds`` have
    passed.  Pass p holds bodies p*len(wl) onwards (workloads with fixed
    inputs cycle them).  With ``alternate``, passes 1, 3, ... are traced and
    repeat the bodies of the untraced pass before them, and at least two run.

    Each body is timed alone and scaled to reference speed by the calibration
    kernel run just before and after it; checks run outside the timed region.
    Returns [(pass wall, raw pass wall, traced)], the scaled and raw seconds of
    each body of the untraced passes, and the first pass's answers."""
    import speed

    passes, body_s, raw_s, first = [], [], [], None
    start = time.perf_counter()
    while len(passes) < 1 + alternate or time.perf_counter() - start < seconds:
        traced = alternate and len(passes) % 2 == 1
        offset = len(passes) // (1 + alternate) * len(wl)
        answers, wall, raw_wall = [], 0.0, 0.0
        cal = speed.calibrate()
        for i in range(offset, offset + len(wl)):
            t0 = time.perf_counter()
            tracer.active = traced
            try:
                res = tracer.span("body", wl.solve, gate, i)
            except Exception as exc:  # a failing body is counted, the run goes on
                res = None
                gate.op_failed(f"{wl.name} body {i}", exc)
            finally:
                tracer.active = False
            dt = time.perf_counter() - t0
            cal_after = speed.calibrate()
            scaled = speed.at_reference(dt, cal, cal_after)
            cal = cal_after
            wall += scaled
            raw_wall += dt
            if not traced:
                body_s.append(scaled)
                raw_s.append(dt)
            if res is None:
                answers.append(None)
                continue
            try:
                answers.append(wl.check(gate, i, res))
            except Exception as exc:
                answers.append(None)
                gate.op_failed(f"{wl.name} check {i}", exc)
        passes.append((wall, raw_wall, traced))
        if first is None:
            first = answers
    return passes, body_s, raw_s, first


def warm_up(wl, gate):
    """Body 0 once, untimed, so lazy set-up inside the program is done."""
    try:
        wl.check(gate, 0, wl.solve(gate, 0))
    except Exception as exc:
        gate.op_failed(f"{wl.name} warm-up", exc)


def _ratio(a, b):
    return a / b if b else 0.0


def layer_metrics(tracer, n_passes, stats, probes, overhead_s):
    """Per-layer metrics per traced pass (counts and seconds per pass)."""
    t = tracer.totals()
    c = tracer.counts

    def per_pass(name, key="s"):
        return t.get(name, {}).get(key, 0.0) / n_passes

    def total(name, key="s"):
        return t.get(name, {}).get(key, 0.0)

    builds = ("geometry.hull_from_points", "geometry.polytope_from_halfspaces")
    body_s = total("body")
    m = {
        "normals.count_batch.calls": per_pass("normals.count_normals_batch", "calls"),
        "normals.count_batch.points": c["normals.points"] / n_passes,
        "normals.count_batch.s": per_pass("normals.count_normals_batch"),
        "normals.points_per_s": _ratio(c["normals.points"], total("normals.count_normals_batch")),
        "normals.marginal_ratio": _ratio(c["normals.marginal"], c["normals.points"]),
        "normals.perturb.calls": per_pass("normals.perturb_to_generic", "calls"),
        "normals.perturb.s": per_pass("normals.perturb_to_generic"),
        "bifurcation.planes": c["bifurcation.planes"] / n_passes,
        "bifurcation.cells": c["bifurcation.cells"] / n_passes,
        "bifurcation.split.s": per_pass("bifurcation.split_by_planes"),
        "bifurcation.cells_per_s": _ratio(c["bifurcation.cells"], total("bifurcation.split_by_planes")),
        "bifurcation.chamber.self_s": per_pass("bifurcation.chamber_decomposition", "self_s"),
        "bifurcation.mc.self_s": per_pass("bifurcation.monte_carlo_average", "self_s"),
        "spherical.vertex_figure.s": per_pass("spherical.vertex_figure"),
        "spherical.lemma.calls": per_pass("spherical.classify_by_lemma", "calls"),
        "spherical.lemma.s": per_pass("spherical.classify_by_lemma"),
        "spherical.definition.calls": per_pass("spherical.classify_by_definition", "calls"),
        "spherical.definition.ms_per_triangle": 1e3 * _ratio(
            total("spherical.classify_by_definition"),
            total("spherical.classify_by_definition", "calls")),
        "spherical.borderline_ratio": _ratio(stats["borderline"], stats["triangles"]),
        "spherical.route_agreement": _ratio(stats["agreed"], stats["compared"]),
        "spherical.certificate.s": per_pass("spherical.ten_normals_certificate"),
        "geometry.build.calls": sum(per_pass(b, "outer_calls") for b in builds),
        "geometry.build.s": sum(per_pass(b, "outer_s") for b in builds),
        "explorer.random_polytope.calls": per_pass("explorer.random_polytope", "calls"),
        "explorer.random_polytope.s": per_pass("explorer.random_polytope"),
        "import.s": statistics.median(p["import_s"] for p in probes),
        "fileio.read.s": statistics.median(p["read_s"] for p in probes),
        "trace.overhead_s": overhead_s,
        "trace.body_s": body_s / n_passes,
    }
    for layer in ("geometry", "normals", "bifurcation", "spherical", "explorer"):
        own = sum(rec["self_s"] for name, rec in t.items() if name.startswith(layer + "."))
        m[f"{layer}.self_share"] = _ratio(own, body_s)
    return m


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "polynormal" / "__init__.py").is_file():
        print(f"error: no polynormal package under {SRC}", file=sys.stderr)
        return 2
    blas_cap = len(os.sched_getaffinity(0))
    for var in BLAS_VARS:
        os.environ[var] = str(blas_cap)
    sys.path.insert(0, str(SRC))

    import gate as g
    import inputs
    import polynormal as pn
    from spans import Tracer
    from workloads import WORKLOADS, reference_checks

    if Path(pn.__file__).resolve().parent != (SRC / "polynormal").resolve():
        print(f"error: imported polynormal from {pn.__file__}, not {SRC}", file=sys.stderr)
        return 2

    out_dir = OUT / f"{args.workload}-s{args.seed}"
    reference, body_paths = inputs.write_inputs(args.workload, args.seed, out_dir)
    probes = setup_probes([*reference.values(), *body_paths], SETUP_PROBES)

    gate = g.Gate()
    bodies = []
    for path in body_paths:
        gate.op()
        bodies.append(pn.read_polytope(path))
    reference_checks(pn, gate, reference)
    wl = WORKLOADS[args.workload](pn, args.seed, bodies)
    tracer = Tracer()
    warm_up(wl, gate)

    report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "loop": "closed, 1 caller", "bodies_per_pass": len(wl)}
    if args.trace:
        tracer.install(pn)
    passes, body_s, raw_s, answers = run_passes(wl, gate, tracer, args.seconds, bool(args.trace))
    walls = [w for w, _, traced in passes if not traced]
    if args.trace:
        tracer.uninstall()
        traced_walls = [w for w, _, traced in passes if traced]
        overhead = statistics.median(t - u for u, t in zip(walls, traced_walls))
        metrics = layer_metrics(tracer, len(traced_walls), wl.stats, probes, overhead)
        units = {k: ("count" if k.endswith((".calls", ".points", ".planes", ".cells"))
                     else "1/s" if k.endswith("_per_s")
                     else "ratio" if k.endswith(("_ratio", "_agreement", "_share"))
                     else "ms" if k.endswith("ms_per_triangle") else "s")
                 for k in metrics}
        tracer.write(out_dir / "spans.jsonl")
        report["spans"] = len(tracer.spans)
    else:
        metrics = {
            "setup_s": statistics.median(p["setup_s"] for p in probes),
            "wall_s": statistics.median(walls),
            "bodies_per_s": len(body_s) / sum(body_s),
            "body_p50_s": statistics.median(body_s),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = {"setup_s": "s", "wall_s": "s", "bodies_per_s": "1/s",
                 "body_p50_s": "s", "peak_rss_mb": "MB"}
        p75 = statistics.quantiles(body_s, n=4)[2]
        report["body_p75_s"] = {"value": p75, "samples": len(body_s),
                                "beyond": sum(b > p75 for b in body_s)}
        report["raw"] = {"wall_s": statistics.median(w for _, w, _ in passes),
                         "body_p50_s": statistics.median(raw_s),
                         "setup_s": statistics.median(p["raw_setup_s"] for p in probes)}
        if hasattr(wl, "points"):
            report["points_per_s"] = wl.points(len(body_s)) / sum(body_s)
    report.update({
        "passes": passes, "bodies": len(body_s),
        "setup_probes": probes, "digest": g.digest(answers),
        "fail_ratio": gate.failed / gate.attempted, **gate.report(),
        "machine": machine(blas_cap),
    })
    result = {"correct": gate.failed == 0, "attempted": gate.attempted,
              "failed": gate.failed,
              "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}
    (out_dir / f"result-trace{args.trace}.json").write_text(
        json.dumps({"report": report, "result": result}, indent=1))
    print(json.dumps(report, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
