"""Polytope file formats: ASCII OFF and the JSON schemas.

JSON accepts {"vertices": [[x,y,z],...]}, {"halfspaces": [[nx,ny,nz,b],...]}
or {"polygon": [[x,y],...]}; writing emits "vertices" (3-D) or "polygon"
(2-D).  OFF files are validated line by line.  Their faces are the facets
(``geometry.polytope_from_faces``): the vertices keep the file order,
coincident face planes merge (so a triangulated facet is one facet), and
every vertex must lie on at least three face planes and above none.  An OFF
file with no faces and the JSON vertex lists go through the hull, where
every listed vertex has to be a hull vertex.  The hull and the halfspace
files share geometry's one vertex enumeration, and all three 3-D builds
share its facet route, so they give one body the same lattice.  The
package imports no scipy, and no read loads numpy.ma.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .bifurcation import plane_section, sheet_planes
from .errors import ParseError, ValidationError
from .geometry import (
    DEFAULT_TOL,
    _float_rows,
    _n_distinct,
    hull_from_points,
    polytope_from_faces,
    polytope_from_halfspaces,
)


def read_polytope(path, tol=DEFAULT_TOL):
    """Load a polytope from an OFF or JSON file."""
    path = Path(path)
    text = path.read_text()
    if path.suffix.lower() == ".off" or text.lstrip()[:3].upper() == "OFF":
        vertices, faces = _parse_off(text)
        if not faces:
            return _from_convex_vertices(vertices, tol)
        return polytope_from_faces(vertices, faces, tol)
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc.msg}", line=exc.lineno) from exc
    return polytope_from_json(doc, tol)


def polytope_from_json(doc, tol=DEFAULT_TOL):
    if not isinstance(doc, dict):
        raise ParseError("top-level JSON value must be an object")
    if "vertices" in doc:
        return _from_convex_vertices(_float_rows(doc["vertices"], (3,), "vertices", ParseError), tol)
    if "polygon" in doc:
        return _from_convex_vertices(_float_rows(doc["polygon"], (2,), "polygon", ParseError), tol)
    if "halfspaces" in doc:
        return polytope_from_halfspaces(_float_rows(doc["halfspaces"], (3, 4), "halfspaces", ParseError), tol)
    raise ParseError("JSON object needs a 'vertices', 'polygon' or 'halfspaces' key")


def _from_convex_vertices(vertices, tol):
    P = hull_from_points(vertices, tol)
    if P.n_vertices != _n_distinct(vertices):
        raise ValidationError("input vertices are not in convex position")
    return P


def _parse_off(text):
    lines = text.splitlines()
    cursor = 0

    def next_data_line():
        nonlocal cursor
        while cursor < len(lines):
            cursor += 1
            stripped = lines[cursor - 1].split("#", 1)[0].strip()
            if stripped:
                return stripped, cursor
        raise ParseError("unexpected end of file", line=len(lines))

    header, ln = next_data_line()
    if header.upper() != "OFF":
        raise ParseError("missing OFF header", line=ln)
    counts, ln = next_data_line()
    parts = counts.split()
    if len(parts) < 2:
        raise ParseError("expected 'V F E' counts", line=ln)
    try:
        nv, nf = int(parts[0]), int(parts[1])
    except ValueError as exc:
        raise ParseError("counts must be integers", line=ln) from exc
    vertices = []
    for _ in range(nv):
        row, ln = next_data_line()
        fields = row.split()
        if len(fields) < 3:
            raise ParseError("vertex line needs 3 coordinates", line=ln)
        try:
            vertices.append([float(x) for x in fields[:3]])
        except ValueError as exc:
            raise ParseError("non-numeric vertex coordinate", line=ln) from exc
    faces = []
    for _ in range(nf):
        row, ln = next_data_line()
        fields = row.split()
        try:
            k = int(fields[0])
            ids = [int(x) for x in fields[1:1 + k]]
        except (ValueError, IndexError) as exc:
            raise ParseError("malformed face line", line=ln) from exc
        if len(ids) != k:
            raise ParseError(f"face promises {k} vertices, lists {len(ids)}", line=ln)
        for v in ids:
            if not 0 <= v < nv:
                raise ParseError(f"face index {v} out of range", line=ln)
        faces.append(ids)
    return np.array(vertices, dtype=float), faces


def _off_text(vertices, faces, n_edges):
    """ASCII OFF text: the vertex rows, then each face's vertex ids."""
    out = ["OFF", f"{len(vertices)} {len(faces)} {n_edges}"]
    out += [" ".join(repr(float(x)) for x in v) for v in vertices]
    out += [" ".join(map(str, [len(f), *f])) for f in faces]
    return "\n".join(out) + "\n"


def off_string(P):
    """ASCII OFF text for a 3-polytope (facet cycles as faces)."""
    if P.dim != 3:
        raise ValidationError("OFF output is 3-D only; use JSON for polygons")
    return _off_text(P.vertices, P.facet_cycles, P.n_edges)


def json_dict(P):
    if P.dim == 3:
        return {"vertices": P.vertices.tolist()}
    return {"polygon": P.vertices.tolist()}


def write_polytope(P, path, fmt=None):
    """Write OFF (3-D) or JSON depending on ``fmt`` or the file suffix."""
    path = Path(path)
    if fmt is None:
        fmt = "off" if path.suffix.lower() == ".off" else "json"
    if fmt == "off":
        path.write_text(off_string(P))
    elif fmt == "json":
        path.write_text(json.dumps(json_dict(P), sort_keys=True))
    else:
        raise ValidationError(f"unknown format {fmt!r}")
    return path


def sheets_json(P, planes=None):
    """Sheet planes as a JSON-ready list."""
    if planes is None:
        planes = sheet_planes(P)
    return [{"normal": sp.normal.tolist(), "offset": sp.offset,
             "color": sp.color, "sources": [list(s) for s in sp.sources]}
            for sp in planes]


def sheets_off_scene(P, planes=None):
    """OFF scene of every sheet plane clipped to the polytope."""
    if P.dim != 3:
        raise ValidationError("sheet scenes are 3-D only")
    if planes is None:
        planes = sheet_planes(P)
    sections = (plane_section(P, sp.normal, sp.offset) for sp in planes)
    polys = [sec for sec in sections if sec is not None and len(sec) >= 3]
    ends = np.cumsum([len(p) for p in polys], dtype=int)
    faces = [range(end - len(p), end) for p, end in zip(polys, ends)]
    return _off_text([v for p in polys for v in p], faces, 0)
