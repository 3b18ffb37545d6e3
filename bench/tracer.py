"""Per-layer tracing from outside the library.

The wrappers replace module attributes of ``weylscope``.  The library calls
its own functions through module globals (``polyfan.generators``,
``linalg.rref``, ...), so a wrapper sees inner calls, calls from other
modules and calls from the CLI alike.  Spans are aggregated in memory, by
function and by the pair (calling layer, called layer), and written once,
when the process ends.

A layer's self time is the time spent inside its spans minus the time its
nested spans of *other* layers cover; spans of the same layer nested inside
one another count once.  Work the library does in methods and properties
(``WeylElement.apply``, ``RootDatum.positive_roots``) is not wrapped and is
charged to the layer that called it.  Span times are CPU
times read from ``speed.cpu_clock``, so neither the speed probes that
interrupt a span nor time the VM was held off the CPU is in it;
``scaled`` normalises a process's snapshot with that process's speed.
"""

from __future__ import annotations

import importlib
from fractions import Fraction
from math import comb, gcd

from speed import cpu_clock

LAYERS = ("root_data", "type_geometry", "polyfan", "linalg", "apartment", "gl_models", "cli")

# Private functions that are layer entry points all the same.
_EXTRA = {"cli": ("_emit",)}


def _entry_points(module):
    """Public functions defined in the module, lru_cache wrappers included."""
    out = []
    for name, obj in vars(module).items():
        if name.startswith("_") and name not in _EXTRA.get(module.__name__.rsplit(".", 1)[1], ()):
            continue
        if not callable(obj) or isinstance(obj, type):
            continue
        if getattr(obj, "__module__", None) != module.__name__:
            continue
        out.append((name, obj))
    return out


def _rank(rows):
    """Rank over Q by plain elimination; the tracer's own copy, so that
    computing a count does not add calls to the traced ``linalg``."""
    mat = [[Fraction(x) for x in r] for r in rows]
    rank = 0
    ncols = len(mat[0]) if mat else 0
    for c in range(ncols):
        piv = next((i for i in range(rank, len(mat)) if mat[i][c] != 0), None)
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        for i in range(rank + 1, len(mat)):
            if mat[i][c] != 0:
                f = mat[i][c] / mat[rank][c]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[rank])]
        rank += 1
    return rank


def _direction(f):
    g = 0
    for x in f:
        g = gcd(g, abs(x))
    v = tuple(x // g for x in f)
    lead = next(x for x in v if x != 0)
    return v if lead > 0 else tuple(-x for x in v)


def subsets_tried(cone, lineality_dim):
    """``C(#unique inequality directions, want)``: the constraint subsets a
    subset-enumerating ray search has to try for this cone."""
    unique = {_direction(f) for f in cone.ineqs if any(f)}
    eq_rank = _rank(cone.eqs) if cone.eqs else 0
    want = cone.space_dim - lineality_dim - 1 - eq_rank
    if want < 0 or want > len(unique):
        return 0
    return comb(len(unique), want)


class Tracer:
    """Installs span wrappers on every layer entry point and aggregates."""

    def __init__(self):
        self.funcs = {}  # "layer.name" -> [calls, inclusive seconds]
        self.layers = {layer: [0, 0.0] for layer in LAYERS}  # calls, self seconds
        self.edges = {}  # "caller->callee" -> [spans, seconds]
        self.counters = {"linalg.rref.cells": 0, "polyfan.generators.rays": 0,
                         "polyfan.generators.subsets": 0}
        self.originals = {}
        self._stack = []  # open layer-boundary frames: [layer, start, nested other-layer s]
        self._depth = {}
        self._generator_misses = 0

    def install(self):
        for layer in LAYERS:
            module = importlib.import_module(f"weylscope.{layer}")
            for name, fn in _entry_points(module):
                key = f"{layer}.{name}"
                self.originals[key] = fn
                self.funcs[key] = [0, 0.0]
                self._depth[key] = 0
                setattr(module, name, self._wrap(layer, key, fn))

    def _wrap(self, layer, key, fn):
        stack = self._stack
        depth = self._depth
        stats = self.funcs[key]
        layer_stats = self.layers[layer]
        edges = self.edges
        after = self._after.get(key)

        def traced(*args, **kwargs):
            boundary = not stack or stack[-1][0] != layer
            depth[key] += 1
            start = cpu_clock()
            if boundary:
                stack.append([layer, start, 0.0])
            try:
                result = fn(*args, **kwargs)
            finally:
                took = cpu_clock() - start
                depth[key] -= 1
                stats[0] += 1
                if not depth[key]:
                    stats[1] += took
                layer_stats[0] += 1
                if boundary:
                    frame = stack.pop()
                    layer_stats[1] += took - frame[2]
                    caller = stack[-1][0] if stack else "bench"
                    if stack:
                        stack[-1][2] += took
                    edge = edges.setdefault(f"{caller}->{layer}", [0, 0.0])
                    edge[0] += 1
                    edge[1] += took
            if after is not None:
                after(self, fn, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _after_rref(self, fn, args, result):
        rows = args[0]
        if rows:
            self.counters["linalg.rref.cells"] += len(rows) * len(rows[0])

    def _after_generators(self, fn, args, result):
        misses = fn.cache_info().misses
        if misses == self._generator_misses:
            return  # a cache hit: the cone was counted when it was computed
        self._generator_misses = misses
        cone = args[0]
        lin, rays = result
        self.counters["polyfan.generators.rays"] += len(rays)
        self.counters["polyfan.generators.subsets"] += subsets_tried(cone, len(lin))

    _after = {"linalg.rref": _after_rref, "polyfan.generators": _after_generators}

    def caches(self):
        """``cache_info()`` of every lru_cache among the entry points."""
        out = {}
        for key, fn in self.originals.items():
            if hasattr(fn, "cache_info"):
                info = fn.cache_info()
                out[key] = {"hits": info.hits, "misses": info.misses, "size": info.currsize}
        return out

    def snapshot(self):
        return {
            "funcs": {k: v for k, v in self.funcs.items() if v[0]},
            "layers": self.layers,
            "edges": self.edges,
            "counters": self.counters,
            "caches": self.caches(),
        }


def scaled(snap, factor):
    """The snapshot with every time multiplied by ``factor``."""
    out = dict(snap)
    for part in ("funcs", "layers", "edges"):
        out[part] = {key: [calls, secs * factor] for key, (calls, secs) in snap[part].items()}
    return out


def merge(snapshots):
    """Sum the snapshots of several traced processes."""
    total = {"funcs": {}, "layers": {layer: [0, 0.0] for layer in LAYERS},
             "edges": {}, "counters": {}, "caches": {}}
    for snap in snapshots:
        for part in ("funcs", "layers", "edges"):
            for key, (calls, secs) in snap[part].items():
                acc = total[part].setdefault(key, [0, 0.0])
                acc[0] += calls
                acc[1] += secs
        for key, val in snap["counters"].items():
            total["counters"][key] = total["counters"].get(key, 0) + val
        for key, info in snap["caches"].items():
            acc = total["caches"].setdefault(key, {"hits": 0, "misses": 0, "size": 0})
            for field in acc:
                acc[field] += info[field]
    return total
