"""The benchmark tracer binds gvcam functions by name: a renamed or
removed function would silently read 0 in its per-layer metric."""

import importlib
import inspect
import pathlib
import runpy

TRACER = pathlib.Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def test_tracer_span_names_bind_functions():
    tracer = runpy.run_path(str(TRACER))
    for module, name in tracer["SPAN_NAMES"]:
        fn = getattr(importlib.import_module("gvcam." + module), name, None)
        assert inspect.isfunction(fn), "gvcam.%s.%s" % (module, name)


def test_tracer_counted_helpers_bind_functions():
    tracer = runpy.run_path(str(TRACER))
    numeric = importlib.import_module("gvcam.numeric")
    for name in tracer["COUNTED_HELPERS"]:
        fn = getattr(numeric, name, None)
        assert inspect.isfunction(fn), "gvcam.numeric.%s" % name
