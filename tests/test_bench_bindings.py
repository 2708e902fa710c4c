"""The benchmark tracer binds gvcam functions by name: a renamed or
removed function would silently read 0 in its per-layer metric."""

import importlib
import inspect
import json
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


def _projecting_classes():
    cameras = importlib.import_module("gvcam.cameras")
    return [cls for cls in vars(cameras).values()
            if inspect.isclass(cls) and cls.__module__ == cameras.__name__
            and hasattr(cls, "project")]


def test_tracer_camera_methods_bind_functions():
    """The tracer wraps each CAMERA_METHODS name in the class of
    gvcam.cameras that defines it; each projecting camera class must reach
    a plain function of that name there."""
    tracer = runpy.run_path(str(TRACER))
    classes = _projecting_classes()
    assert sum(not cls.__name__.startswith("_") for cls in classes) == 8
    for cls in classes:
        for name in tracer["CAMERA_METHODS"]:
            owner = next(c for c in cls.__mro__ if name in vars(c))
            assert owner in classes, (cls.__name__, name)
            assert inspect.isfunction(vars(owner)[name]), (cls.__name__, name)


def test_traced_project_counts_one_call_per_camera(tmp_path, capsys):
    """gvcam project maps all points through each camera in one
    ``project`` call, which the tracer sees."""
    tracer = runpy.run_path(str(TRACER))["Tracer"]()
    cli = importlib.import_module("gvcam.cli")
    rig = [{"type": "pinhole", "center": [0, 0, 0, 1]},
           {"type": "two_slit", "slits": [[1, 0, 0, 0, 0, 0],
                                          [0, 0, 0, 0, 0, 1]]},
           {"type": "twisted_cubic"}]
    scene = tmp_path / "scene.json"
    scene.write_text(json.dumps({"version": 1, "rig": rig, "points": [
        [1, 2, 3, 1], [0, 0, 0, 1], [2, -1, 1, 1]]}))
    tracer.install()
    try:
        assert cli.main(["project", "--scene", str(scene)]) == 0
    finally:
        tracer.uninstall()
    capsys.readouterr()
    metrics = tracer.metrics()
    assert metrics["cameras.project.calls"] == len(rig)
    assert metrics["scene.points_parsed"] == 0


def test_traced_reflect_sees_the_mirror_kernels(tmp_path, capsys):
    """gvcam reflect imports the catadioptric functions when it runs, so it
    calls the tracer's wrappers: one ``line_surface_points`` and one
    ``specular_pair`` call for all lines.  ``cli.congruence_residual``
    still names the camera function, which bench/selfcheck.py reads."""
    tracer = runpy.run_path(str(TRACER))["Tracer"]()
    cli = importlib.import_module("gvcam.cli")
    cameras = importlib.import_module("gvcam.cameras")
    assert cli.congruence_residual is cameras.congruence_residual
    mirror = tmp_path / "mirror.json"
    mirror.write_text(json.dumps({
        "surface": {"degree": 2, "coeffs": {"2000": -1, "0200": 1,
                                            "0020": 1, "0002": 1}},
        "lines": [[0, 0, 1, 0, 0, 0], [0, 0, 0, 1, 0, 0]]}))
    tracer.install()
    try:
        assert cli.main(["reflect", "--input", str(mirror)]) == 0
    finally:
        tracer.uninstall()
    capsys.readouterr()
    metrics = tracer.metrics()
    assert metrics["catadioptric.surface_points.calls"] == 1
    assert metrics["catadioptric.specular.calls"] == 1
