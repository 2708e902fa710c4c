"""Layer tracing from outside the program: wrap gvcam's public functions,
record spans at layer boundaries, and derive the per-layer metrics.

A layer is a gvcam module (``cli``, ``scene``, ``cameras``, ``concurrency``,
``multiimage``, ``plucker``, ``catadioptric``, ``tensors``).  Every public
function of a layer module, plus the ``project`` and
``congruence_residual`` methods of the camera classes, is rebound in
every ``gvcam`` namespace that holds it, so calls made through
``from .x import f`` names are seen too.

* A call that enters a layer from another layer (or from outside) opens a
  span: name, start, end, parent.  A call from a layer into itself is part
  of the caller's span and opens none.
* Every call of a wrapped function, spanned or not, is counted.
* The ``numeric`` helpers and ``numpy.linalg.svd`` are only counted, to
  keep the overhead down.

Spans live in flat arrays for the duration of one pass.  A span's self
time is its duration minus the durations of its child spans.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from array import array
from collections import Counter

import numpy as np

LAYERS = ("cli", "scene", "cameras", "concurrency", "multiimage", "plucker",
          "catadioptric", "tensors")

# (module, function) -> span name; unlisted functions are "<layer>.<name>".
SPAN_NAMES = {
    ("cli", "main"): "cli",
    ("cli", "_emit"): "cli.emit",
    ("cameras", "project"): "cameras.project",
    ("cameras", "congruence_residual"): "cameras.residual",
    ("concurrency", "find_common_point"): "concurrency.common_point",
    ("concurrency", "evaluate_generators"): "concurrency.generators",
    ("concurrency", "concurrent_by_generators"): "concurrency.generators",
    ("concurrency", "trilinear_transversal"): "concurrency.cubic",
    ("catadioptric", "line_surface_points"): "catadioptric.surface_points",
    ("catadioptric", "specular_pair"): "catadioptric.specular",
}
# The report writer is its own layer so that its time is not cli self time.
OWN_LAYER = {"cli.emit"}
CAMERA_METHODS = {"project": "cameras.project",
                  "congruence_residual": "cameras.residual"}
COUNTED_HELPERS = ("is_exact", "vec", "unitize", "format_scalar",
                   "parse_vector")

# name, unit: the per-layer metrics, in report order
METRICS = (
    ("cli.self_s", "s"), ("cli.emit_s", "s"),
    ("scene.load_s", "s"), ("scene.lines_parsed", "count"),
    ("scene.points_parsed", "count"),
    ("cameras.project.calls", "count"), ("cameras.project.self_s", "s"),
    ("cameras.residual.calls", "count"), ("cameras.residual.self_s", "s"),
    ("concurrency.common_point.calls", "count"),
    ("concurrency.common_point.self_s", "s"),
    ("concurrency.generators.calls", "count"),
    ("concurrency.generators.self_s", "s"),
    ("concurrency.cubics.count", "count"), ("concurrency.svd.count", "count"),
    ("multiimage.correspond.calls", "count"),
    ("multiimage.correspond.self_s", "s"),
    ("multiimage.correspond.p50_us", "us"),
    ("multiimage.correspond.p99_us", "us"),
    ("plucker.calls", "count"), ("plucker.self_s", "s"),
    ("numeric.is_exact.calls", "count"), ("numeric.vec.calls", "count"),
    ("numeric.unitize.calls", "count"),
    ("numeric.format_scalar.calls", "count"),
    ("catadioptric.surface_points.calls", "count"),
    ("catadioptric.surface_points.self_s", "s"),
    ("catadioptric.specular.calls", "count"),
    ("catadioptric.specular.self_s", "s"),
    ("trace.spans", "count"),
    ("trace.overhead_ratio", "ratio"),
)


class Tracer:
    """Installs the wrappers, records one pass at a time, and turns the
    pass into per-layer metrics."""

    def __init__(self):
        self.reset()
        self._installed = False
        self._plan = self._wrap_all()   # (owner, attribute, original, wrapper)

    # --- recording ----------------------------------------------------------

    def reset(self):
        self.names = []
        self._name_ids = {}
        self.span_name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = []             # (span index, layer) of open spans
        self.counts = Counter()

    def _name_id(self, name):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _in_layer(self, layer):
        return any(entry[1] == layer for entry in self.stack)

    def _spanned(self, fn, name, layer):
        tracer, clock = self, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.counts[name] += 1
            stack = tracer.stack
            if stack and stack[-1][1] == layer:
                result = fn(*args, **kwargs)
            else:
                idx = len(tracer.start)
                tracer.span_name.append(tracer._name_id(name))
                tracer.parent.append(stack[-1][0] if stack else -1)
                tracer.end.append(0.0)
                stack.append((idx, layer))
                tracer.start.append(clock())
                try:
                    result = fn(*args, **kwargs)
                finally:
                    tracer.end[idx] = clock()
                    stack.pop()
            return result
        return wrapper

    def _counted(self, fn, name):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.counts[name] += 1
            result = fn(*args, **kwargs)
            if name == "numeric.parse_vector" and tracer.stack \
                    and tracer.stack[-1][1] == "scene":
                size = len(result)
                if size == 6:
                    tracer.counts["scene.lines_parsed"] += 1
                elif size == 4:
                    tracer.counts["scene.points_parsed"] += 1
            return result
        return wrapper

    # --- installing ---------------------------------------------------------

    def _wrap_all(self):
        modules = {name: importlib.import_module("gvcam." + name)
                   for name in LAYERS + ("numeric",)}
        wrappers = {}
        for layer in LAYERS:
            mod = modules[layer]
            for attr, fn in vars(mod).items():
                if not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                name = SPAN_NAMES.get((layer, attr))
                if name is None and attr.startswith("_"):
                    continue
                name = name or "%s.%s" % (layer, attr)
                span_layer = name if name in OWN_LAYER else layer
                wrappers[fn] = self._spanned(fn, name, span_layer)
        for attr in COUNTED_HELPERS:
            fn = getattr(modules["numeric"], attr)
            wrappers[fn] = self._counted(fn, "numeric." + attr)
        # every namespace that holds a wrapped function, by any name
        plan = []
        for ns in list(modules.values()) + [importlib.import_module("gvcam")]:
            for attr, value in vars(ns).items():
                if inspect.isfunction(value) and value in wrappers:
                    plan.append((ns, attr, value, wrappers[value]))
        cameras = modules["cameras"]
        for cls in vars(cameras).values():
            if not inspect.isclass(cls) or cls.__module__ != cameras.__name__:
                continue
            for attr, name in CAMERA_METHODS.items():
                fn = vars(cls).get(attr)
                if inspect.isfunction(fn):
                    plan.append((cls, attr, fn,
                                 self._spanned(fn, name, "cameras")))
        plan.append((np.linalg, "svd", np.linalg.svd,
                     self._svd_counter(np.linalg.svd)))
        return plan

    def _svd_counter(self, original):
        tracer = self

        @functools.wraps(original)
        def svd(*args, **kwargs):
            if tracer._in_layer("concurrency"):
                tracer.counts["concurrency.svd"] += 1
            return original(*args, **kwargs)
        return svd

    def install(self):
        if self._installed:
            raise RuntimeError("tracer already installed")
        for owner, attr, _, wrapper in self._plan:
            setattr(owner, attr, wrapper)
        self._installed = True

    def uninstall(self):
        for owner, attr, original, _ in reversed(self._plan):
            setattr(owner, attr, original)
        self._installed = False

    # --- results ------------------------------------------------------------

    def spans(self):
        """The recorded spans as (name, start, end, parent index) tuples."""
        return [(self.names[n], s, e, p) for n, s, e, p in
                zip(self.span_name, self.start, self.end, self.parent)]

    def metrics(self):
        """Per-layer metrics of the recorded pass (without the overhead
        ratio, which needs an untraced pass to compare with)."""
        n = len(self.start)
        dur = np.frombuffer(self.end, dtype=float)[:n] - np.frombuffer(
            self.start, dtype=float)[:n]
        parent = np.frombuffer(self.parent, dtype=np.int32)[:n]
        names = np.frombuffer(self.span_name, dtype=np.int32)[:n]
        child = np.zeros(n)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        self_time = dur - child

        def select(pred):
            ids = [i for i, name in enumerate(self.names) if pred(name)]
            return np.isin(names, ids)

        def calls(name):
            return int(np.count_nonzero(select(lambda s: s == name)))

        def self_s(pred):
            return float(self_time[select(pred)].sum())

        def exact(name):
            return lambda s: s == name

        def layer(prefix):
            return lambda s: s == prefix or s.startswith(prefix + ".")

        c = self.counts
        correspond = dur[select(exact("multiimage.correspond"))] * 1e6
        n_correspond = calls("multiimage.correspond")
        return {
            "cli.self_s": self_s(exact("cli")),
            "cli.emit_s": float(dur[select(exact("cli.emit"))].sum()),
            "scene.load_s": float(dur[select(layer("scene"))].sum()),
            "scene.lines_parsed": c["scene.lines_parsed"],
            "scene.points_parsed": c["scene.points_parsed"],
            "cameras.project.calls": calls("cameras.project"),
            "cameras.project.self_s": self_s(exact("cameras.project")),
            "cameras.residual.calls": calls("cameras.residual"),
            "cameras.residual.self_s": self_s(exact("cameras.residual")),
            "concurrency.common_point.calls":
                calls("concurrency.common_point"),
            "concurrency.common_point.self_s":
                self_s(exact("concurrency.common_point")),
            "concurrency.generators.calls": calls("concurrency.generators"),
            "concurrency.generators.self_s":
                self_s(exact("concurrency.generators")),
            "concurrency.cubics.count": c["concurrency.cubic"],
            "concurrency.svd.count": c["concurrency.svd"],
            "multiimage.correspond.calls": n_correspond,
            "multiimage.correspond.self_s":
                self_s(exact("multiimage.correspond")),
            "multiimage.correspond.durations_us": correspond,
            "plucker.calls": int(np.count_nonzero(select(layer("plucker")))),
            "plucker.self_s": self_s(layer("plucker")),
            "numeric.is_exact.calls": c["numeric.is_exact"],
            "numeric.vec.calls": c["numeric.vec"],
            "numeric.unitize.calls": c["numeric.unitize"],
            "numeric.format_scalar.calls": c["numeric.format_scalar"],
            "catadioptric.surface_points.calls":
                calls("catadioptric.surface_points"),
            "catadioptric.surface_points.self_s":
                self_s(exact("catadioptric.surface_points")),
            "catadioptric.specular.calls": calls("catadioptric.specular"),
            "catadioptric.specular.self_s":
                self_s(exact("catadioptric.specular")),
            "trace.spans": n,
        }
