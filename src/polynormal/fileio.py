"""Polytope file formats: ASCII OFF and the JSON schemas.

JSON accepts {"vertices": [[x,y,z],...]}, {"halfspaces": [[nx,ny,nz,b],...]}
or {"polygon": [[x,y],...]}; writing emits "vertices" (3-D) or "polygon"
(2-D).  OFF files are validated line by line.  Their faces are the facets:
the vertices keep the file order, coincident face planes merge (so a
triangulated facet is one facet), and every vertex must lie on at least
three face planes and above none.  An OFF file with no faces and the JSON
vertex lists go through the hull, where every listed vertex has to be a
hull vertex.  Halfspace files are clipped plane by plane; only the hull
loads scipy.spatial.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .bifurcation import plane_section, sheet_planes
from .errors import ParseError, ValidationError
from .geometry import (
    DEFAULT_TOL,
    _box_scale,
    _by_size,
    _cross,
    _diameter,
    _float_rows,
    _merge_planes,
    _polytope_from_facets,
    _ranks,
    _unit_rows,
    hull_from_points,
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
        return _from_off_faces(vertices, faces, tol)
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
    scale = max(1.0, float(np.abs(vertices).max()))
    distinct = len(np.unique(np.round(vertices / (1e-9 * scale)), axis=0))
    if P.n_vertices != distinct:
        raise ValidationError("input vertices are not in convex position")
    return P


def _from_off_faces(V, faces, tol):
    """The 3-polytope whose facets are the OFF faces, vertices in file order.

    Each face's plane is its Newell plane, oriented away from the vertex
    mean; coincident planes merge, and a facet holds every vertex on its
    plane within tol times the diameter.  Raises ValidationError before any
    Polytope is built when a face is degenerate, a vertex lies above a face
    plane or on fewer than three of them, or the faces leave a hole.
    """
    nv, sizes = len(V), np.array([len(f) for f in faces])
    ids = np.concatenate(faces).astype(int)
    diameter = _diameter(V)
    scale = max(1.0, float(np.abs(V).max()))
    # with return_index, np.unique does not import numpy.ma (15-20 ms)
    if len(np.unique(np.round(V / (1e-9 * scale)), axis=0, return_index=True)[1]) < nv:
        raise ValidationError("input vertices are not distinct")
    flat = np.flatnonzero(sizes < 3)
    if not len(flat):
        flat = np.flatnonzero(_ranks(V, ids, sizes, diameter) < 2)
    if len(flat):
        raise ValidationError(f"face {flat[0]} is degenerate: its vertices span no plane")
    normals = np.empty((len(faces), 3))
    for f, pos in _by_size(sizes):
        poly = V[ids[pos]]
        normals[f] = _cross(poly, np.roll(poly, -1, axis=1)).sum(axis=1)
    centers = np.add.reduceat(V[ids], np.cumsum(sizes) - sizes) / sizes[:, None]
    normals = _unit_rows(normals)
    normals[((centers - V.mean(axis=0)) * normals).sum(axis=1) < 0.0] *= -1.0
    offsets = (centers * normals).sum(axis=1)
    slack = V @ normals.T - offsets
    eps = tol * max(1.0, diameter)
    if (slack > eps).any():
        v, f = np.argwhere(slack > eps)[0]
        raise ValidationError(f"vertex {v} lies outside the plane of face {f}")
    _, heads = _merge_planes(normals, offsets, _box_scale(V))
    on = np.abs(slack[:, heads]) <= eps  # (vertex, facet)
    count = on.sum(axis=1)
    if not count.all():
        raise ValidationError("input vertices are not in convex position")
    if count.min() < 3:
        v = int(count.argmin())
        raise ValidationError(f"vertex {v} lies on {count[v]} face planes, fewer than 3: "
                              "a face is missing or the vertex is not in convex position")
    if 2 * (nv + len(heads) - 2) != count.sum():  # Euler, with each edge on two facets
        raise ValidationError("the faces do not close up: a face is missing")
    return _polytope_from_facets(V, np.flatnonzero(on.T), normals[heads], tol, ValidationError)


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


def off_string(P):
    """ASCII OFF text for a 3-polytope (facet cycles as faces)."""
    if P.dim != 3:
        raise ValidationError("OFF output is 3-D only; use JSON for polygons")
    out = ["OFF", f"{P.n_vertices} {P.n_facets} {P.n_edges}"]
    for v in P.vertices:
        out.append(" ".join(repr(float(x)) for x in v))
    for cycle in P.facet_cycles:
        out.append(str(len(cycle)) + " " + " ".join(str(int(i)) for i in cycle))
    return "\n".join(out) + "\n"


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
    polys = []
    for sp in planes:
        sec = plane_section(P, sp.normal, sp.offset)
        if sec is not None and len(sec) >= 3:
            polys.append(sec)
    nv = sum(len(p) for p in polys)
    out = ["OFF", f"{nv} {len(polys)} 0"]
    for p in polys:
        for v in p:
            out.append(" ".join(repr(float(x)) for x in v))
    base = 0
    for p in polys:
        out.append(str(len(p)) + " " + " ".join(str(base + i) for i in range(len(p))))
        base += len(p)
    return "\n".join(out) + "\n"
