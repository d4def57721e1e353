"""Span tracing of polynormal's layers, installed from outside the package.

``Tracer.install`` wraps the public functions of each layer module and
rebinds every module attribute that refers to them, so calls made through
names other modules imported (``bifurcation.count_normals_batch``,
``explorer.chamber_decomposition``, ...) are traced too.  Each call records a
span (name, start, end, parent) in memory; ``write`` saves them when the run
ends.  Nothing under ``src/`` is edited.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from collections import Counter, defaultdict

LAYERS = ("geometry", "normals", "bifurcation", "spherical", "explorer", "fileio")

# Public functions outside ``polynormal.__all__`` that per-layer metrics need.
EXTRA = {"bifurcation": ("arrangement_planes", "split_by_planes")}


def _count_batch(result):
    minima, _, _, marginal = result
    return {"normals.points": len(minima), "normals.marginal": int(marginal.sum())}


# Counts taken at the layer boundary from a traced call's return value.
COUNTERS = {
    "normals.count_normals_batch": _count_batch,
    "bifurcation.split_by_planes": lambda cells: {"bifurcation.cells": len(cells)},
    "bifurcation.arrangement_planes": lambda planes: {"bifurcation.planes": len(planes)},
}


class Tracer:
    """Records spans while ``active``; inactive wrappers call straight through."""

    def __init__(self):
        self.spans = []        # [name, start, end, parent index or -1]
        self.counts = Counter()
        self.active = False
        self._stack = []
        self._patched = []     # (module, attribute, original)

    def _open(self, name):
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0,
                           self._stack[-1] if self._stack else -1])
        self._stack.append(idx)
        return idx

    def _close(self, idx):
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def span(self, name, fn, *args):
        """Run fn(*args) inside a span of the benchmark's own (e.g. one body)."""
        if not self.active:
            return fn(*args)
        idx = self._open(name)
        try:
            return fn(*args)
        finally:
            self._close(idx)

    def _wrap(self, name, fn):
        count = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if count is not None:
                self.counts.update(count(result))
            return result

        return traced

    def install(self, package):
        """Wrap the layer functions of ``package`` in every polynormal module."""
        modules = {m: importlib.import_module(f"{package.__name__}.{m}") for m in LAYERS}
        wrappers = {}
        for layer, mod in modules.items():
            names = [n for n in package.__all__
                     if inspect.isfunction(getattr(mod, n, None))
                     and getattr(mod, n).__module__ == mod.__name__]
            for n in names + list(EXTRA.get(layer, ())):
                fn = getattr(mod, n)
                wrappers[id(fn)] = (fn, self._wrap(f"{layer}.{n}", fn))
        namespaces = [package] + [m for name, m in sorted(vars(package).items())
                                  if inspect.ismodule(m)
                                  and m.__name__.startswith(package.__name__ + ".")]
        for ns in namespaces:
            for attr, value in list(vars(ns).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patched.append((ns, attr, value))
                    setattr(ns, attr, hit[1])

    def uninstall(self):
        for ns, attr, original in reversed(self._patched):
            setattr(ns, attr, original)
        self._patched.clear()

    def write(self, path):
        with open(path, "w") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent}) + "\n")

    def totals(self):
        """Per span name: calls, total and self seconds, outermost calls and seconds.

        Self time is the span minus its direct children.  Outermost time counts
        only spans with no ancestor of the same layer, so nested calls within
        one layer (a halfspace build calling the hull build) count once.
        """
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0,
                                   "outer_calls": 0, "outer_s": 0.0})
        for i, (name, start, end, parent) in enumerate(self.spans):
            rec = out[name]
            rec["calls"] += 1
            rec["s"] += end - start
            rec["self_s"] += end - start - child[i]
            layer = name.split(".")[0]
            p = parent
            while p >= 0 and self.spans[p][0].split(".")[0] != layer:
                p = self.spans[p][3]
            if p < 0:
                rec["outer_calls"] += 1
                rec["outer_s"] += end - start
        return dict(out)
