import ast
import importlib
import importlib.util
import inspect
import re
import sys
from pathlib import Path

import polynormal

# The public surface of the package.  Renaming or dropping a name breaks
# callers, so a change here must be deliberate.
PUBLIC = {
    # submodules
    "bifurcation", "errors", "explorer", "fileio", "fixtures", "geometry",
    "normals", "spherical",
    # geometry
    "DEFAULT_TOL", "Face", "Polytope", "chebyshev_center", "cone_contains",
    "contains_interior", "dihedral_angle", "hull_from_points",
    "inner_normal_cone", "planar_angle", "polytope_from_halfspaces",
    # normals
    "MorseProfile", "NormalRecord", "count_normals_batch", "face_normal_from",
    "morse_profile", "normals_from_point", "perturb_to_generic",
    # bifurcation
    "Chamber", "CrossingEvent", "SheetPlane", "chamber_decomposition",
    "chamber_report", "check_crossing_rule", "crossing_audit", "exact_average",
    "max_normals", "monte_carlo_average", "plane_section", "point_on_sheet",
    "sheet_planes", "spot_check_chamber",
    # spherical
    "SphericalTriangle", "VertexClassification", "acute_census",
    "classify_by_definition", "classify_by_lemma", "local_critical_test",
    "normal_fan_tiling", "polar_dual_triangle", "random_hemispheric_triangle",
    "ray_scan_counts", "shell_ratio_check", "spherical_distance",
    "spherical_project", "ten_normals_certificate", "vertex_figure",
    # explorer
    "ScanConfig", "ScanReport", "random_polytope", "scan", "witness_lower_bound",
    # fileio
    "read_polytope", "write_polytope",
}


def test_public_names_are_pinned():
    assert set(polynormal.__all__) == PUBLIC


def test_tolerance_scale_is_computed_in_geometry_only():
    # the body holds its tolerance scale (Polytope.tol_scale); a module that
    # recomputes max(1.0, P.diameter) would drift from it when the policy changes
    src = Path(polynormal.__file__).resolve().parent
    sites = []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id == "max" and len(node.args) == 2
                    and isinstance(node.args[0], ast.Constant) and node.args[0].value == 1
                    and isinstance(node.args[1], ast.Attribute) and node.args[1].attr == "diameter"):
                sites.append(f"{path.name}:{node.lineno}")
    assert [s for s in sites if not s.startswith("geometry.py:")] == []
    assert sites  # the one place that sets it is still found


def test_package_imports_only_the_standard_library_and_numpy():
    # the runtime dependency list is numpy alone (scipy is a test and bench
    # oracle), so no module may import any other third-party package
    src = Path(polynormal.__file__).resolve().parent
    allowed = set(sys.stdlib_module_names) | {"numpy", "polynormal"}
    foreign = []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            foreign += [f"{path.name}:{node.lineno} {n}" for n in names
                        if n.split(".")[0] not in allowed]
    assert foreign == []
    pyproject = (src.parent.parent / "pyproject.toml").read_text()
    runtime = re.search(r"^dependencies = \[(.*?)\]", pyproject, re.M | re.S).group(1)
    assert re.findall(r'"([A-Za-z0-9_.-]+)', runtime) == ["numpy"]


def _bench_spans():
    """bench/spans.py, loaded read-only."""
    spec = importlib.util.spec_from_file_location(
        "spans", Path(__file__).resolve().parent.parent / "bench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_tracer_extra_names_are_layer_functions():
    # bench/spans.py wraps these by name; a refactor that renames or moves one
    # would silently drop its spans and counters from a traced run
    spans = _bench_spans()
    assert spans.EXTRA
    for layer, names in spans.EXTRA.items():
        module = importlib.import_module(f"polynormal.{layer}")
        for name in names:
            fn = getattr(module, name, None)
            assert inspect.isfunction(fn) and fn.__module__ == module.__name__, (layer, name)


def test_tracer_counts_chamber_cells_and_counted_points():
    # the bench counters are read at the layer boundary: a refactor that routes
    # chambers around split_by_planes, or Monte Carlo around count_normals_batch,
    # would zero them silently instead of failing
    tracer = _bench_spans().Tracer()
    P = polynormal.fixtures.perturbed_cube()
    tracer.install(polynormal)
    try:
        tracer.active = True
        polynormal.chamber_decomposition(P)
        polynormal.monte_carlo_average(P, 1000)
    finally:
        tracer.uninstall()
    assert tracer.counts["bifurcation.cells"] > 0
    assert tracer.counts["normals.points"] >= 1000
