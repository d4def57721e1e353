import importlib
import importlib.util
import inspect
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
