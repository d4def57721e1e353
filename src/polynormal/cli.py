"""Command-line surface.

Every command prints one key-sorted JSON envelope to stdout carrying the tool
version, a digest of the input file, the effective parameters (seeds and
tolerances included, even when defaulted) and the command payload.  Exit
codes: 0 success, 2 validation error, 3 invariant violation.  The
POLYNORMAL_TOL environment variable overrides the default tolerance when
--tol is not given.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import sys

import numpy as np
from numpy.random import default_rng

from . import __version__
from .bifurcation import (
    chamber_decomposition,
    chamber_report,
    crossing_audit,
    exact_average,
    max_normals,
    monte_carlo_average,
    sheet_planes,
)
from .errors import (
    InvariantViolation,
    OnBifurcationSet,
    PolytopeError,
)
from .explorer import ScanConfig, scan
from .fileio import read_polytope, sheets_json, sheets_off_scene
from .geometry import DEFAULT_TOL
from .normals import check_profile, normals_from_point, perturb_to_generic, profile_of
from .spherical import (
    acute_census,
    classify,
    ten_normals_certificate,
    vertex_figure,
)

VALIDATION_EXIT = 2
INVARIANT_EXIT = 3


def _jsonable(x):
    if isinstance(x, dict):
        return {k: _jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    if isinstance(x, np.ndarray):
        return _jsonable(x.tolist())
    if isinstance(x, (np.bool_, bool)):
        return bool(x)
    if isinstance(x, (np.integer,)):
        return int(x)
    if isinstance(x, (np.floating,)):
        return float(x)
    if isinstance(x, frozenset):
        return sorted(x)
    return x


def _digest(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        h.update(fh.read())
    return h.hexdigest()


def _emit(args, command, params, payload, input_path=None):
    if args.quiet:
        return
    envelope = {
        "tool": "polynormal",
        "version": __version__,
        "command": command,
        "digest": _digest(input_path) if input_path else None,
        "parameters": _jsonable(params),
        "payload": _jsonable(payload),
    }
    print(json.dumps(envelope, sort_keys=True))


def _parse_point(text, dim):
    try:
        coords = [float(x) for x in text.split(",")]
    except ValueError as exc:
        raise ValueError(f"bad point {text!r}: expected comma-separated numbers") from exc
    if len(coords) != dim:
        raise ValueError(f"point {text!r} has {len(coords)} coordinates, polytope needs {dim}")
    return np.array(coords)


def cmd_count(args):
    P = read_polytope(args.file, tol=args.tol)
    y = _parse_point(args.point, P.dim)
    rng = default_rng(args.seed)
    perturbed = False
    try:
        records = normals_from_point(P, y)
    except OnBifurcationSet:
        y = perturb_to_generic(P, y, rng)
        records = normals_from_point(P, y)
        perturbed = True
    profile = profile_of(records)
    check_profile(profile, P.dim)
    payload = {
        "n": profile.total,
        "profile": {"min": profile.minima, "saddle": profile.saddles,
                    "max": profile.maxima},
        "point": y,
        "perturbed": perturbed,
        "normals": [{"face": list(r.face_key), "base": r.base_point,
                     "sq_dist": r.sq_dist, "index": r.morse_index}
                    for r in records],
    }
    _emit(args, "count", {"point": args.point, "seed": args.seed, "tol": args.tol},
          payload, args.file)
    return 0


def cmd_max(args):
    P = read_polytope(args.file, tol=args.tol)
    chambers = chamber_decomposition(P, cap=args.chamber_cap,
                                     rng=default_rng(args.seed))
    N, witness = max_normals(P, chambers=chambers)
    payload = {"N": N, "witness_point": witness.rep_point,
               "chambers": len(chambers)}
    if args.chambers:
        payload = chamber_report(P, chambers=chambers)
        payload["witness_point"] = witness.rep_point
    _emit(args, "max", {"seed": args.seed, "tol": args.tol,
                        "chamber_cap": args.chamber_cap,
                        "chambers": args.chambers}, payload, args.file)
    return 0


def cmd_average(args):
    P = read_polytope(args.file, tol=args.tol)
    if args.mc is not None:
        est, err = monte_carlo_average(P, args.mc, seed=args.seed)
        payload = {"EN": est, "stderr": err, "method": "mc", "samples": args.mc}
    else:
        chambers = chamber_decomposition(P, cap=args.chamber_cap,
                                         rng=default_rng(args.seed))
        payload = {"EN": exact_average(P, chambers=chambers), "method": "exact",
                   "chambers": len(chambers)}
    _emit(args, "average", {"seed": args.seed, "tol": args.tol,
                            "chamber_cap": args.chamber_cap,
                            "mc": args.mc}, payload, args.file)
    return 0


def cmd_classify(args):
    P = read_polytope(args.file, tol=args.tol)
    vertices = []
    for v in range(P.n_vertices):
        entry = {"vertex": v}
        try:
            verdict = classify(vertex_figure(P, v))
            entry["verdict"] = verdict.verdict
            if verdict.witness is not None:
                entry["witness"] = verdict.witness
            if verdict.conditions is not None:
                entry["conditions"] = [
                    {"labeling": list(perm), "satisfied": list(conds)}
                    for perm, conds in verdict.conditions]
        except PolytopeError as exc:
            entry["error"] = f"{type(exc).__name__}: {exc}"
        vertices.append(entry)
    payload = {"vertices": vertices}
    try:
        payload["certificate"] = ten_normals_certificate(P)
        payload["census"] = [
            {"vertex": c.vertex,
             "acute_dihedral_edges": list(c.acute_dihedral_edges),
             "acute_planar_facets": list(c.acute_planar_facets),
             "compatible_with_max_below_10": c.compatible_with_low_max()}
            for c in acute_census(P)]
    except PolytopeError as exc:
        payload["certificate_error"] = f"{type(exc).__name__}: {exc}"
    _emit(args, "classify", {"tol": args.tol}, payload, args.file)
    return 0


def cmd_sheets(args):
    P = read_polytope(args.file, tol=args.tol)
    planes = sheet_planes(P)
    if args.export == "off":
        sys.stdout.write(sheets_off_scene(P, planes))
        return 0
    _emit(args, "sheets", {"tol": args.tol, "export": args.export},
          {"planes": sheets_json(P, planes)}, args.file)
    return 0


def cmd_audit(args):
    P = read_polytope(args.file, tol=args.tol)
    a = _parse_point(getattr(args, "from"), P.dim)
    b = _parse_point(args.to, P.dim)
    events = crossing_audit(P, a, b, rng=default_rng(args.seed))
    payload = {"crossings": [
        {"t": e.t, "point": e.point, "colors": e.colors,
         "count_before": e.count_before, "count_after": e.count_after,
         "profile_before": e.profile_before.as_tuple(),
         "profile_after": e.profile_after.as_tuple()}
        for e in events]}
    _emit(args, "audit", {"from": getattr(args, "from"), "to": args.to,
                          "seed": args.seed, "tol": args.tol}, payload, args.file)
    return 0


def _scan_config(raw):
    """ScanConfig from a parsed JSON document; each value must have its default's type."""
    if not isinstance(raw, dict):
        raise ValueError(f"scan config must be a JSON object, got {type(raw).__name__}")
    defaults = {f.name: f.default for f in dataclasses.fields(ScanConfig)}
    config = {}
    for key, value in raw.items():
        if key not in defaults:
            raise ValueError(f"unknown scan config key {key!r}")
        kind = type(defaults[key])
        if kind is tuple:
            ok = isinstance(value, list) and len(value) == 2 and all(type(v) is int for v in value)
        elif kind is float:
            ok = type(value) in (int, float)
        else:
            ok = type(value) is kind
        if not ok:
            raise ValueError(f"scan config key {key!r} has a value of the wrong type: {value!r}")
        config[key] = tuple(value) if kind is tuple else value
    return ScanConfig(**config)


def cmd_scan(args):
    with open(args.config) as fh:
        config = _scan_config(json.load(fh))
    report = scan(config)
    if not args.quiet:
        sys.stdout.write(report.to_json_lines())
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="polynormal",
        description="Count, chamber and average concurrent normals of convex polytopes.")
    parser.add_argument("--version", action="version", version=__version__)
    common = argparse.ArgumentParser(add_help=False)
    env_tol = os.environ.get("POLYNORMAL_TOL")
    common.add_argument("--tol", type=float,
                        default=float(env_tol) if env_tol else DEFAULT_TOL,
                        help="geometric tolerance (default 1e-9 or POLYNORMAL_TOL)")
    common.add_argument("--chamber-cap", type=int, default=10**6, dest="chamber_cap")
    common.add_argument("--seed", type=int, default=0,
                        help="seed for every randomized step (always reported)")
    common.add_argument("--quiet", action="store_true", help="suppress stdout")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("count", parents=[common], help="normals from a point")
    p.add_argument("--point", required=True, help="comma-separated coordinates")
    p.add_argument("file")
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("max", parents=[common], help="maximum count over chambers")
    p.add_argument("--chambers", action="store_true",
                   help="embed the full per-chamber volume/count report")
    p.add_argument("file")
    p.set_defaults(func=cmd_max)

    p = sub.add_parser("average", parents=[common], help="average normal count")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--exact", action="store_true", default=True)
    group.add_argument("--mc", type=int, default=None, metavar="N",
                       help="Monte-Carlo with N samples instead of exact chambers")
    p.add_argument("file")
    p.set_defaults(func=cmd_average)

    p = sub.add_parser("classify", parents=[common],
                       help="nice/skew vertex table and certificates")
    p.add_argument("file")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("sheets", parents=[common], help="bifurcation sheet planes")
    p.add_argument("--export", choices=("json", "off"), default="json")
    p.add_argument("file")
    p.set_defaults(func=cmd_sheets)

    p = sub.add_parser("audit", parents=[common], help="crossing audit along a segment")
    p.add_argument("--from", required=True, help="segment start x,y[,z]")
    p.add_argument("--to", required=True, help="segment end x,y[,z]")
    p.add_argument("file")
    p.set_defaults(func=cmd_audit)

    p = sub.add_parser("scan", parents=[common], help="randomized conjecture scan")
    p.add_argument("--config", required=True, help="ScanConfig JSON file")
    p.set_defaults(func=cmd_scan)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InvariantViolation as exc:
        print(str(exc), file=sys.stderr)
        return INVARIANT_EXIT
    except (PolytopeError, ValueError, OSError) as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return VALIDATION_EXIT


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
