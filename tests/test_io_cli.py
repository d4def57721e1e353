import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.random import default_rng

from polynormal import fixtures
from polynormal.cli import main
from polynormal.errors import ParseError, ValidationError
from polynormal.explorer import random_polytope
from polynormal.fileio import (
    off_string,
    polytope_from_json,
    read_polytope,
    sheets_off_scene,
    write_polytope,
)
from polynormal.geometry import hull_from_points


@pytest.fixture()
def tetra_off(tmp_path):
    path = tmp_path / "regular_tetra.off"
    write_polytope(fixtures.regular_tetrahedron(), path)
    return path


def test_off_round_trip(tmp_path, cube):
    path = tmp_path / "cube.off"
    write_polytope(cube, path)
    back = read_polytope(path)
    assert (back.n_vertices, back.n_edges, back.n_facets) == (8, 12, 6)
    again = tmp_path / "cube2.off"
    write_polytope(back, again)
    assert read_polytope(again).n_faces == back.n_faces
    a = sorted(map(tuple, np.round(back.vertices, 12)))
    b = sorted(map(tuple, np.round(cube.vertices, 12)))
    assert a == b


@settings(max_examples=24, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), family=st.sampled_from(
    ["tangent_planes", "perturbed_tetra", "perturbed_prism", "polygon"]), fmt=st.sampled_from(["off", "json"]))
def test_write_read_round_trip_keeps_the_body(tmp_path_factory, seed, family, fmt):
    # a written body reads back with the same vertex set, the same facet
    # planes as a set and the same volume; polygons are written as JSON only
    rng = default_rng(seed)
    if family == "polygon":
        P, fmt = hull_from_points(rng.standard_normal((int(rng.integers(3, 12)), 2))), "json"
    else:
        P = random_polytope(family, {"k": int(rng.integers(4, 13))}, rng)
    back = read_polytope(write_polytope(P, tmp_path_factory.mktemp("rt") / f"body.{fmt}"))
    assert sorted(map(tuple, back.vertices)) == sorted(map(tuple, P.vertices))
    planes = lambda Q: np.column_stack([Q.facet_normals, Q.facet_offsets])
    gap = np.abs(planes(back)[:, None, :] - planes(P)[None, :, :]).max(axis=2)
    assert back.n_facets == P.n_facets
    assert np.array_equal(np.sort(gap.argmin(axis=1)), np.arange(P.n_facets))
    assert gap.min(axis=1).max() < 1e-9 * max(1.0, P.diameter)
    assert back.volume == pytest.approx(P.volume, rel=1e-12)


def test_off_accepts_comments_and_validates_indices(tmp_path):
    good = tmp_path / "ok.off"
    good.write_text("# a comment\nOFF\n4 4 6\n0 0 0\n1 0 0\n0 1 0\n0 0 1\n"
                    "3 0 1 2\n3 0 1 3\n3 0 2 3\n3 1 2 3\n")
    P = read_polytope(good)
    assert P.n_vertices == 4
    bad = tmp_path / "bad.off"
    bad.write_text("OFF\n4 1 0\n0 0 0\n1 0 0\n0 1 0\n0 0 1\n3 0 1 9\n")
    with pytest.raises(ParseError) as err:
        read_polytope(bad)
    assert err.value.line == 7
    assert "line 7" in str(err.value)


def test_off_header_and_numeric_errors(tmp_path):
    p = tmp_path / "x.off"
    p.write_text("OFFX\n1 0 0\n")
    with pytest.raises(ParseError):
        read_polytope(p)
    p.write_text("OFF\n3 0 0\n0 0 zero\n1 0 0\n0 1 0\n")
    with pytest.raises(ParseError) as err:
        read_polytope(p)
    assert err.value.line == 3


def test_json_schemas(tmp_path):
    hs = tmp_path / "halfspaces.json"
    hs.write_text(json.dumps({"halfspaces": [
        [1, 0, 0, 1], [-1, 0, 0, 1], [0, 1, 0, 1],
        [0, -1, 0, 1], [0, 0, 1, 1], [0, 0, -1, 1]]}))
    assert read_polytope(hs).n_vertices == 8
    tetra_planes = fixtures.regular_tetrahedron()
    doc = {"halfspaces": [list(n) + [float(b)] for n, b in
                          zip(tetra_planes.facet_normals, tetra_planes.facet_offsets)]}
    assert polytope_from_json(doc).n_vertices == 4
    poly = tmp_path / "poly.json"
    poly.write_text(json.dumps({"polygon": [[0, 0], [1, 0], [0.3, 0.8]]}))
    P = read_polytope(poly)
    assert P.dim == 2 and P.n_vertices == 3
    verts = tmp_path / "verts.json"
    write_polytope(fixtures.regular_tetrahedron(), verts)
    assert read_polytope(verts).n_vertices == 4
    with pytest.raises(ParseError):
        polytope_from_json({"nope": []})
    with pytest.raises(ParseError):
        polytope_from_json({"vertices": [[1, 2], [3]]})


@pytest.mark.parametrize("rows, message", [
    ("[5, 6, 7, 8]", "halfspaces must be rows of 3 or 4 numbers"),
    ("[[1, 0, 0, NaN], [-1, 0, 0, 1]]", "non-finite entry in halfspaces"),
    ("[[1, 0, 0, null], [-1, 0, 0, 1]]", "non-finite entry in halfspaces"),
    ("[[1, 0, 0, Infinity], [-1, 0, 0, 1]]", "non-finite entry in halfspaces"),
    ("[[1, 0, 1], [-1, 0, 0, 1]]", "halfspaces must be rows of 3 or 4 numbers"),
    ("[[1, 0, 0, 0, 1]]", "halfspaces must be rows of 3 or 4 numbers"),
    ("[]", "halfspaces must be rows of 3 or 4 numbers"),
    ('[[1, 0, "x", 1]]', "halfspaces must be rows of 3 or 4 numbers"),
])
def test_cli_bad_halfspace_rows_are_parse_errors(rows, message, tmp_path, capsys):
    path = tmp_path / "hs.json"
    path.write_text('{"halfspaces": ' + rows + "}")
    code = main(["max", str(path)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == f"ParseError: {message}\n"


def test_nonconvex_input_rejected(tmp_path):
    doc = {"polygon": [[0, 0], [1, 0], [1, 1], [0.5, 0.4], [0, 1]]}
    p = tmp_path / "reflex.json"
    p.write_text(json.dumps(doc))
    with pytest.raises(ValidationError):
        read_polytope(p)


def test_off_string_is_parseable(cube):
    text = off_string(cube)
    assert text.startswith("OFF\n8 6 12\n")


def test_sheets_off_scene(flat_tetra_10):
    scene = sheets_off_scene(flat_tetra_10)
    head = scene.splitlines()
    nv, nf, _ = map(int, head[1].split())
    assert nf > 0 and nv >= 3 * nf


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_cli_count(tetra_off, capsys):
    code, out = run_cli(capsys, "count", "--point", "0,0,0", str(tetra_off))
    assert code == 0
    doc = json.loads(out)
    assert doc["payload"]["n"] == 14
    assert doc["payload"]["profile"] == {"min": 4, "saddle": 6, "max": 4}
    assert doc["parameters"]["seed"] == 0
    assert len(doc["digest"]) == 64
    # key-sorted output
    assert list(doc) == sorted(doc)


def test_cli_max(tmp_path, capsys, flat_tetra_10):
    path = tmp_path / "flat10.json"
    write_polytope(flat_tetra_10, path)
    code, out = run_cli(capsys, "max", str(path))
    assert code == 0
    assert json.loads(out)["payload"]["N"] == 10


def test_cli_max_chamber_report(tmp_path, capsys, flat_tetra_10):
    path = tmp_path / "flat10.json"
    write_polytope(flat_tetra_10, path)
    code, out = run_cli(capsys, "max", "--chambers", str(path))
    assert code == 0
    payload = json.loads(out)["payload"]
    assert payload["N"] == 10
    assert 4.0 < payload["EN"] < 14.0
    assert all(set(c) == {"volume", "count"} for c in payload["chambers"])
    total = sum(c["volume"] for c in payload["chambers"])
    assert abs(total - flat_tetra_10.volume) < 1e-6 * flat_tetra_10.volume


def test_cli_average(tetra_off, capsys):
    code, out = run_cli(capsys, "average", str(tetra_off))
    assert code == 0
    doc = json.loads(out)
    assert abs(doc["payload"]["EN"] - 14.0) < 1e-9
    assert "seed" not in doc["parameters"]  # the exact route reads no seed
    code, out = run_cli(capsys, "average", "--mc", "1500", "--seed", "4", str(tetra_off))
    doc = json.loads(out)
    assert doc["payload"]["EN"] == 14.0
    assert doc["parameters"]["seed"] == 4
    code, out = run_cli(capsys, "average", "--mc", "1500", str(tetra_off))
    assert json.loads(out)["parameters"]["seed"] == 0


def test_cli_average_seed_needs_mc(tetra_off, capsys):
    code = main(["average", "--seed", "5", str(tetra_off)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "--mc" in captured.err


def test_cli_classify_prism(tmp_path, capsys):
    path = tmp_path / "prism.off"
    write_polytope(fixtures.generic_prism(seed=3), path)
    code, out = run_cli(capsys, "classify", str(path))
    assert code == 0
    doc = json.loads(out)
    verdicts = [v["verdict"] for v in doc["payload"]["vertices"]]
    assert "nice" in verdicts
    assert doc["payload"]["certificate"] is not None


def test_cli_sheets(tetra_off, capsys):
    code, out = run_cli(capsys, "sheets", str(tetra_off))
    assert code == 0
    planes = json.loads(out)["payload"]["planes"]
    assert len(planes) == 24
    code, out = run_cli(capsys, "sheets", "--export", "off", str(tetra_off))
    assert code == 0 and out.startswith("OFF\n")


def test_cli_audit(tmp_path, capsys, obtuse_triangle):
    path = tmp_path / "obtuse.json"
    write_polytope(obtuse_triangle, path)
    # values starting with a dash need the = form
    code, out = run_cli(capsys, "audit", "--from", "0,0.12", "--to=-0.7,0.03", str(path))
    assert code == 0
    crossings = json.loads(out)["payload"]["crossings"]
    assert any(abs(c["count_after"] - c["count_before"]) == 2 for c in crossings)


def test_cli_scan(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": 3, "n_polytopes": 2, "facet_range": [4, 5],
                               "shape_family": "tangent_planes"}))
    code, out = run_cli(capsys, "scan", "--config", str(cfg))
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 3
    assert "summary" in json.loads(lines[-1])


@pytest.mark.parametrize("doc, key", [
    ({"foo": 1}, "'foo'"),
    ({"facet_range": 5}, "'facet_range'"),
    ({"seed": 1, "tighten_factor": 100.0}, "'tighten_factor'"),
    ({"n_polytopes": "3"}, "'n_polytopes'"),
    ({"facet_range": [4, 5.5]}, "'facet_range'"),
    ([4, 6], "JSON object"),
    ({"mc_samples": 1000}, "'mc_samples'"),
])
def test_cli_scan_bad_config_is_a_validation_error(tmp_path, capsys, doc, key):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    code = main(["scan", "--config", str(cfg)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert key in captured.err


@pytest.mark.parametrize("argv", [
    ["scan", "--seed", "99"],
    ["scan", "--tol", "0.5"],
    ["scan", "--chamber-cap", "1"],
    ["classify", "--seed", "5"],
    ["classify", "--chamber-cap", "1"],
    ["count", "--point", "0,0,0", "--chamber-cap", "1"],
    ["sheets", "--seed", "1"],
    ["max", "--seed", "1"],
    ["audit", "--from", "0,0,0", "--to", "0,0,0.1", "--chamber-cap", "1"],
])
def test_cli_flag_not_read_by_command_is_an_error(argv, tetra_off, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n_polytopes": 1}))
    target = ["--config", str(cfg)] if argv[0] == "scan" else [str(tetra_off)]
    with pytest.raises(SystemExit) as exit_:
        main(argv + target)
    assert exit_.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_cli_exit_codes(tetra_off, tmp_path, capsys, noisy_cube):
    code, _ = run_cli(capsys, "count", "--point", "0,0", str(tetra_off))
    assert code == 2
    bad = tmp_path / "bad.off"
    bad.write_text("OFF\n1 0 0\nnope\n")
    code, _ = run_cli(capsys, "count", "--point", "0,0,0", str(bad))
    assert code == 2
    code, _ = run_cli(capsys, "count", "--point", "0,0,0", str(tmp_path / "missing.off"))
    assert code == 2
    # chamber volumes that miss Vol P are an invariant violation
    write_polytope(noisy_cube, tmp_path / "noisy_cube.json")
    assert main(["max", str(tmp_path / "noisy_cube.json")]) == 3
    out, err = capsys.readouterr()
    assert out == "" and "miss Vol P" in err


def test_cli_env_tolerance(tetra_off, capsys, monkeypatch):
    monkeypatch.setenv("POLYNORMAL_TOL", "1e-7")
    code, out = run_cli(capsys, "count", "--point", "0.05,0,0", str(tetra_off))
    assert code == 0
    assert json.loads(out)["parameters"]["tol"] == 1e-7


def test_cli_quiet(tetra_off, capsys):
    code, out = run_cli(capsys, "count", "--point", "0,0,0", "--quiet", str(tetra_off))
    assert code == 0 and out == ""


def test_reading_off_does_not_load_scipy_optimize(tetra_off, tmp_path):
    # only chebyshev_center needs linprog, and no build needs Qhull: reading an
    # OFF, a halfspace, a vertex-list or a faceless OFF file, drawing bodies
    # from planes or points and the CLI commands on an OFF or a vertex-list
    # file load neither scipy.optimize nor scipy.spatial, and the reads and
    # commands do not load numpy.ma either, each step checked
    import os
    import subprocess
    import sys
    from pathlib import Path

    import polynormal

    cube = tmp_path / "cube_planes.json"
    cube.write_text(json.dumps({"halfspaces": [[1, 0, 0, 1], [-1, 0, 0, 1], [0, 1, 0, 1],
                                               [0, -1, 0, 1], [0, 0, 1, 1], [0, 0, -1, 1]]}))
    corners = [[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]]
    listed = tmp_path / "tetra_vertices.json"
    listed.write_text(json.dumps({"vertices": corners}))
    faceless = _off_file(tmp_path / "tetra_points.off", corners, [])
    src = str(Path(polynormal.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = ("import sys, polynormal\n"
            "from numpy.random import default_rng\n"
            "from polynormal.cli import main\n"
            "loaded = lambda: 'scipy.optimize' in sys.modules\n"
            "spatial = lambda: 'scipy.spatial' in sys.modules\n"
            "ma = lambda: 'numpy.ma' in sys.modules\n"
            "print(spatial())\n"
            "polynormal.read_polytope(sys.argv[1]); print(loaded(), spatial())\n"
            "assert polynormal.read_polytope(sys.argv[2]).n_vertices == 8; print(loaded(), spatial())\n"
            "for path in sys.argv[3:]:\n"
            "    assert polynormal.read_polytope(path).n_vertices == 4; print(loaded(), spatial(), ma())\n"
            "for family in ('perturbed_prism', 'tangent_planes', 'perturbed_tetra', 'vertex_cloud'):\n"
            "    polynormal.random_polytope(family, {}, default_rng(3)); print(loaded(), spatial(), ma())\n"
            "for argv in (['count', '--point', '0,0,0'], ['max'], ['average', '--exact'], ['classify']):\n"
            "    assert main([*argv, '--quiet', sys.argv[1]]) == 0; print(spatial(), ma())\n"
            "for argv in (['count', '--point', '0,0,0'], ['max'], ['classify']):\n"
            "    assert main([*argv, '--quiet', sys.argv[3]]) == 0; print(spatial(), ma())\n")
    out = subprocess.run([sys.executable, "-c", code, str(tetra_off), str(cube), str(listed),
                          str(faceless)], capture_output=True, text=True, check=True, env=env)
    assert out.stdout.split() == ["False"] * 37


def _off_file(path, vertices, faces):
    lines = ["OFF", f"{len(vertices)} {len(faces)} 0"]
    lines += [" ".join(repr(float(x)) for x in v) for v in vertices]
    lines += [" ".join(map(str, [len(f), *f])) for f in faces]
    path.write_text("\n".join(lines) + "\n")
    return path


OCTAHEDRON = [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)]
OCTAHEDRON_FACES = [[a, b, c] for a in (0, 1) for b in (2, 3) for c in (4, 5)]


def test_off_faces_are_the_facets(tmp_path):
    # a cube written as 12 triangles, every other one turned clockwise, reads as
    # the cube: coplanar triangles merge, the file's vertex order stays
    corners = [(x, y, z) for x in (0.0, 1.0) for y in (0.0, 2.0) for z in (0.0, 3.0)]
    faces = []
    for i, (a, b, c, d) in enumerate([(0, 1, 3, 2), (4, 5, 7, 6), (0, 1, 5, 4),
                                      (2, 3, 7, 6), (0, 2, 6, 4), (1, 3, 7, 5)]):
        faces += [[a, b, c][::(-1) ** i], [a, c, d]]
    P = read_polytope(_off_file(tmp_path / "cube.off", corners, faces))
    assert (P.n_vertices, P.n_edges, P.n_facets) == (8, 12, 6)
    assert np.array_equal(P.vertices, np.array(corners))
    assert abs(P.volume - 6.0) < 1e-12
    assert read_polytope(_off_file(tmp_path / "octa.off", OCTAHEDRON, OCTAHEDRON_FACES)).n_facets == 8


@pytest.mark.parametrize("vertices, faces, message", [
    # a tetrahedron with one face missing
    ([(1, 1, 1), (1, -1, -1), (-1, 1, -1), (-1, -1, 1)], [[0, 1, 2], [0, 1, 3], [0, 2, 3]],
     "fewer than 3"),
    # an octahedron with one face replaced by a triangle through its centre
    (OCTAHEDRON, OCTAHEDRON_FACES[1:] + [[0, 1, 2]], "outside the plane"),
    # an octahedron with one face missing: every vertex still lies on 3 planes
    (OCTAHEDRON, OCTAHEDRON_FACES[1:], "do not close up"),
    # an interior vertex listed in no face
    (OCTAHEDRON + [(0.1, 0.2, 0.1)], OCTAHEDRON_FACES, "input vertices are not in convex position"),
    # a face of two vertices
    (OCTAHEDRON, OCTAHEDRON_FACES[1:] + [[0, 2]], "degenerate"),
])
def test_off_faces_that_do_not_bound_the_body_are_rejected(tmp_path, vertices, faces, message):
    with pytest.raises(ValidationError, match=message):
        read_polytope(_off_file(tmp_path / "bad.off", vertices, faces))


def test_off_without_faces_reads_through_the_hull(tmp_path):
    P = read_polytope(_off_file(tmp_path / "cloud.off", OCTAHEDRON, []))
    assert (P.n_vertices, P.n_edges, P.n_facets) == (6, 12, 8)
    with pytest.raises(ValidationError, match="not in convex position"):
        read_polytope(_off_file(tmp_path / "inner.off", OCTAHEDRON + [(0.1, 0.2, 0.1)], []))
