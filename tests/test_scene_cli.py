"""Tests for scene-file loading and the command-line interface.

CLI commands run in-process through ``gvcam.cli.main`` so exit codes and
emitted reports can be asserted without subprocesses.
"""

import csv
import io
import json
from fractions import Fraction

import numpy as np
import pytest

from conftest import assert_proj_close
from gvcam import cli, multiimage
from gvcam.cameras import Pinhole, TwoSlit
from gvcam.concurrency import MAX_MULTIDEGREE_N, worst_of_stack
from gvcam.errors import DegenerateInput
from gvcam.catadioptric import (MirrorSurface, line_surface_points,
                                specular_pair, tangent_plane)
from gvcam.numeric import (_scaled_rows, as_float, format_scalar, unitize,
                           vec, vector_payload)
from gvcam.plucker import line_from_points, plucker_quadric, points_on_line
from gvcam.scene import (load_observations, load_points, load_scene,
                         mirror_lines, scene_from_dict)

PINHOLE_MATRIX = [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]]   # center e3
PINHOLE_MATRIX_2 = [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1]]  # center e2
TWOSLIT_MATRICES = [[[1, 0, 0, 0], [0, 1, 0, 0]],
                    [[0, 0, 1, 0], [0, 0, 0, 1]]]


def write_json(path, data):
    path.write_text(json.dumps(data))
    return str(path)


def mixed_scene_dict(points):
    """Pinhole + two-slit rig with observations projected per camera."""
    cams = [Pinhole(np.array([0., 0, 0, 1])),
            TwoSlit(np.array([0., 0, 0, 0, 0, 1]),
                    np.array([1., 0, 0, 0, 0, 0]))]
    observations = [[cam.project(np.asarray(x, float)).tolist()
                     for cam in cams] for x in points]
    return {
        "version": 1,
        "rig": [
            {"type": "pinhole", "matrix": PINHOLE_MATRIX},
            {"type": "two_slit", "matrices": TWOSLIT_MATRICES},
        ],
        "points": points,
        "observations": observations,
    }


@pytest.fixture()
def mixed_scene(tmp_path):
    return write_json(tmp_path / "scene.json",
                      mixed_scene_dict([[1, 1, 1, 1], [2, 0, 1, 1]]))


def run_cli(capsys, argv):
    rc = cli.main(argv)
    out = capsys.readouterr().out
    return rc, out


# ---------------------------------------------------------------------------
# scene loading


def test_scene_round_trip(mixed_scene):
    scene = load_scene(mixed_scene)
    assert scene.version == 1
    assert [c.kind for c in scene.cameras] == ["pinhole", "two_slit"]
    assert scene.matrices[0] is not None and len(scene.matrices[0]) == 1
    assert scene.matrices[1] is not None and len(scene.matrices[1]) == 2
    assert len(scene.points) == 2 and len(scene.observations) == 2
    assert scene.descriptors[0]["type"] == "pinhole"
    assert_proj_close(scene.cameras[0].center, np.array([0., 0, 0, 1]), 1e-12)


def test_scene_cross_checks_matrix_against_geometry(tmp_path):
    good = {"version": 1, "rig": [{"type": "pinhole",
                                   "matrix": PINHOLE_MATRIX,
                                   "center": [0, 0, 0, 2]}]}
    scene = scene_from_dict(good)
    assert_proj_close(scene.cameras[0].center, np.array([0., 0, 0, 1]), 1e-12)
    with pytest.raises(DegenerateInput):
        scene_from_dict({"version": 1, "rig": [{"type": "pinhole",
                                                "matrix": PINHOLE_MATRIX,
                                                "center": [0, 0, 1, 0]}]})
    with pytest.raises(DegenerateInput):
        scene_from_dict({"version": 1, "rig": [{
            "type": "two_slit", "matrices": TWOSLIT_MATRICES,
            "slits": [[1, 0, 0, 0, 0, 0], [0, 0, 0, 0, 0, 1]]}]})
    ok = scene_from_dict({"version": 1, "rig": [{
        "type": "two_slit", "matrices": TWOSLIT_MATRICES,
        "slits": [[0, 0, 0, 0, 0, 1], [1, 0, 0, 0, 0, 0]]}]})
    assert ok.cameras[0].kind == "two_slit"


def test_scene_keeps_given_geometry_and_names_a_mismatch():
    """A center or slits given with the matrices are kept as given when
    they match the kernels; a mismatch, also of the second slit alone, is
    named per kind."""
    scene = scene_from_dict({"version": 1, "rig": [
        {"type": "pinhole", "matrix": PINHOLE_MATRIX, "center": [0, 0, 0, 2]},
        {"type": "two_slit", "matrices": TWOSLIT_MATRICES,
         "slits": [[0, 0, 0, 0, 0, 2], [3, 0, 0, 0, 0, 0]]}]})
    assert scene.cameras[0].center.tolist() == [0, 0, 0, 2]
    assert [s.tolist() for s in scene.cameras[1].slits] == [
        [0, 0, 0, 0, 0, 2], [3, 0, 0, 0, 0, 0]]
    assert [len(m) for m in scene.matrices] == [1, 2]
    for entry, message in (
            ({"type": "pinhole", "matrix": PINHOLE_MATRIX,
              "center": [0, 0, 1, 0]},
             "pinhole center does not match the matrix kernel"),
            ({"type": "two_slit", "matrices": TWOSLIT_MATRICES,
              "slits": [[0, 0, 0, 0, 0, 1], [0, 0, 0, 0, 0, 1]]},
             "two-slit slits do not match the matrix kernels")):
        with pytest.raises(DegenerateInput, match=message):
            scene_from_dict({"version": 1, "rig": [entry]})


def test_scene_structural_errors():
    with pytest.raises(DegenerateInput):
        scene_from_dict([1, 2, 3])
    with pytest.raises(DegenerateInput):
        scene_from_dict({"version": 99})
    with pytest.raises(DegenerateInput):
        scene_from_dict({"version": 1, "rig": [{"type": "pinhole",
                                                "matrix": [[1, 0], [0, 1]]}]})


def test_scene_rejects_non_line_observation(tmp_path):
    data = mixed_scene_dict([[1, 1, 1, 1]])
    data["observations"][0][0] = [1, 0, 0, 0, 0, 1]  # violates the quadric
    with pytest.raises(DegenerateInput):
        scene_from_dict(data)


def test_load_points_sources(tmp_path, mixed_scene):
    scene = load_scene(mixed_scene)
    assert len(load_points(None, scene)) == 2
    as_dict = write_json(tmp_path / "pts1.json", {"points": [[1, 2, 3, 4]]})
    assert len(load_points(as_dict, scene)) == 1
    bare = write_json(tmp_path / "pts2.json", [[1, 2, 3, 4], [0, 0, 0, 1]])
    assert len(load_points(bare, scene)) == 2
    empty = {"version": 1, "rig": []}
    with pytest.raises(DegenerateInput):
        load_points(None, scene_from_dict(empty))


def test_load_observations_validation(tmp_path, mixed_scene):
    scene = load_scene(mixed_scene)
    assert len(load_observations(None, scene)) == 2
    short = write_json(tmp_path / "obs.json",
                       {"observations": [[[0, 0, 1, 0, 0, 0]]]})
    with pytest.raises(DegenerateInput):
        load_observations(short, scene)
    with pytest.raises(DegenerateInput):
        load_observations(write_json(tmp_path / "none.json",
                                     {"observations": []}), scene)


# ---------------------------------------------------------------------------
# CLI: project / check / triangulate


def test_cli_project_report(capsys, mixed_scene):
    rc, out = run_cli(capsys, ["project", "--scene", mixed_scene, "--seed", "7"])
    assert rc == 0
    report = json.loads(out)
    assert report["command"] == "project" and report["seed"] == 7
    rows = report["results"]
    assert len(rows) == 4  # 2 points x 2 cameras
    for row in rows:
        assert len(row["line"]) == 6
        assert row["quadric_residual"] <= 1e-10
        assert row["congruence_residual"] <= 1e-10
    for chk in report["tuple_checks"]:
        assert chk["max_generator_residual"] <= 1e-10


@pytest.mark.parametrize("exact", [False, True])
def test_cli_project_tuple_checks_of_points_missing_lines(capsys, tmp_path,
                                                          exact):
    """A point that is focal in some cameras is checked on the tuple of
    its other lines: the worst generator of that tuple alone, bit for bit,
    whichever cameras it misses (first, middle or last, one or two)."""
    rig = [{"type": "pinhole", "center": [1, 0, 0, 0]},
           {"type": "two_slit", "slits": [[1, 0, 0, 0, 0, 0],
                                          [0, 0, 0, 0, 0, 1]]},
           {"type": "pinhole", "center": [0, 0, 1, 0]},
           {"type": "pinhole", "center": [1, 1, 1, 1]},
           {"type": "twisted_cubic",
            "homography": [[1, 0, 0, 0], [1, 1, 0, 0], [0, 0, 1, 0],
                           [0, 0, 1, 1]]},
           {"type": "pinhole", "center": [2, -1, 3, 1]}]
    rng = np.random.default_rng(27)
    points = ([[1, 0, 0, 0], [0, 0, 1, 0], [1, 1, 1, 1], [2, -1, 3, 1],
               [0, 1, 0, 0]]
              + rng.integers(-9, 10, size=(6, 4)).tolist())
    scene = write_json(tmp_path / "scene.json",
                       {"version": 1, "rig": rig, "points": points})
    argv = ["project", "--scene", scene] + ["--exact"] * exact
    rc, out = run_cli(capsys, argv)
    assert rc == 0
    report = json.loads(out)
    lines = {}
    for row in report["results"]:
        if "line" in row:
            lines.setdefault(row["item"], []).append(row["line"])
    sizes = sorted({len(v) for v in lines.values()})
    assert sizes == [len(rig) - 2, len(rig) - 1, len(rig)]
    checks = report["tuple_checks"]
    assert [c["item"] for c in checks] == sorted(lines)
    for check in checks:
        # an exact line is written as strings, a float one as floats
        tuple_ = [vec([Fraction(v) for v in line]) if type(line[0]) is str
                  else np.array(line) for line in lines[check["item"]]]
        # as concurrency._tuple_stack makes it
        stack = (np.array(tuple_, dtype=object)
                 if all(t.dtype == object for t in tuple_)
                 else np.array([as_float(_scaled_rows(t)) for t in tuple_]))
        want = format_scalar(worst_of_stack(stack[None])[1][0])
        assert check["max_generator_residual"] == want, check


def test_cli_project_is_deterministic(capsys, mixed_scene):
    rc1, out1 = run_cli(capsys, ["project", "--scene", mixed_scene])
    rc2, out2 = run_cli(capsys, ["project", "--scene", mixed_scene])
    assert rc1 == rc2 == 0 and out1 == out2
    rc3, out3 = run_cli(capsys, ["project", "--scene", mixed_scene, "--timing"])
    assert rc3 == 0
    assert json.loads(out3)["timing"]["seconds"] >= 0


def test_cli_project_exact_mode(capsys, tmp_path):
    scene = write_json(tmp_path / "exact.json", {
        "version": 1,
        "rig": [{"type": "pinhole", "matrix": PINHOLE_MATRIX},
                {"type": "pinhole", "matrix": PINHOLE_MATRIX_2}],
        "points": [[1, 2, 3, 4], ["1/2", 1, 0, 1]],
    })
    rc, out = run_cli(capsys, ["project", "--scene", scene, "--exact"])
    assert rc == 0
    report = json.loads(out)
    assert report["exact"] is True
    for row in report["results"]:
        assert all(isinstance(v, str) for v in row["line"])
        assert row["quadric_residual"] == 0.0


def test_cli_project_reports_focal_points(capsys, tmp_path):
    data = mixed_scene_dict([[1, 1, 1, 1]])
    data["points"] = [[0, 0, 0, 1], [1, 1, 1, 1]]  # first is the center
    del data["observations"]
    scene = write_json(tmp_path / "focal.json", data)
    rc, out = run_cli(capsys, ["project", "--scene", scene])
    assert rc == 0
    rows = json.loads(out)["results"]
    errors = [r for r in rows if "error" in r]
    assert errors and errors[0]["error"] == "FocalPoint"
    assert any("line" in r for r in rows)


def test_cli_check_accepts_and_rejects(capsys, tmp_path, mixed_scene):
    rc, out = run_cli(capsys, ["check", "--scene", mixed_scene])
    assert rc == 0
    assert all(r["accepted"] for r in json.loads(out)["results"])
    data = mixed_scene_dict([[1, 1, 1, 1], [2, 0, 1, 1]])
    # swap the two cameras' lines in the second tuple
    data["observations"][1] = data["observations"][1][::-1]
    bad = write_json(tmp_path / "swapped.json", data)
    rc, out = run_cli(capsys, ["check", "--scene", bad])
    assert rc == 1
    rows = json.loads(out)["results"]
    assert rows[0]["accepted"] and not rows[1]["accepted"]
    assert rows[1]["violated"].startswith("congruence[")
    assert rows[1]["residual"] > 1e-3


def test_cli_check_exact_names_rational_generator(capsys, tmp_path):
    """In exact mode the worst generator may be a non-integer rational."""
    scene = write_json(tmp_path / "exact_check.json", {
        "version": 1,
        "rig": [{"type": "pinhole", "center": [0, 0, 0, 1]},
                {"type": "pinhole", "center": [1, 0, 0, 1]}],
        # lines through each center that do not meet
        "observations": [[[0, 0, "-1/21", 0, "-2/7", "-5/7"],
                          ["1/2", -3, -6, 0, "-1/2", 3]]],
    })
    rc, out = run_cli(capsys, ["check", "--scene", scene, "--exact"])
    assert rc == 1
    (row,) = json.loads(out)["results"]
    assert row["violated"] == "quadric[0][1]"
    assert row["residual"] == float(Fraction(17, 7))


def test_cli_tolerance_sources(capsys, tmp_path, monkeypatch, mixed_scene):
    monkeypatch.setenv("GVCAM_TOL", "1e-6")
    rc, out = run_cli(capsys, ["check", "--scene", mixed_scene])
    assert rc == 0 and json.loads(out)["tol"] == 1e-6
    # an explicit flag beats the environment
    rc, out = run_cli(capsys, ["check", "--scene", mixed_scene,
                               "--tol", "1e-9"])
    assert rc == 0 and json.loads(out)["tol"] == 1e-9
    data = mixed_scene_dict([[1, 1, 1, 1]])
    data["observations"][0] = data["observations"][0][::-1]
    bad = write_json(tmp_path / "swapped.json", data)
    rc, out = run_cli(capsys, ["check", "--scene", bad, "--tol", "1e-8"])
    assert rc == 1
    monkeypatch.setenv("GVCAM_TOL", "not-a-number")
    assert cli.main(["check", "--scene", mixed_scene]) == 2


@pytest.mark.parametrize("value", ["nan", "-1", "inf", "-inf"])
def test_cli_refuses_a_tolerance_not_finite_and_nonnegative(
        capsys, tmp_path, monkeypatch, mixed_scene, value):
    """A NaN, negative or infinite ``--tol`` or ``GVCAM_TOL`` is a usage
    error that names its source, before any command reads it."""
    mirror = write_json(tmp_path / "mirror.json", {
        "surface": {"degree": 2, "coeffs": {"2000": -1, "0200": 1,
                                            "0020": 1, "0002": 1}},
        "lines": [[0, 0, 1, 0, 0, 0]]})
    monkeypatch.delenv("GVCAM_TOL", raising=False)
    for argv in (["check", "--scene", mixed_scene],
                 ["reflect", "--input", mirror]):
        assert cli.main(argv + ["--tol=" + value]) == 2
        assert json.loads(capsys.readouterr().err) == {
            "error": "DegenerateInput",
            "message": "--tol must be a finite number >= 0, got %r"
                       % float(value)}
        monkeypatch.setenv("GVCAM_TOL", value)
        assert cli.main(argv) == 2
        assert json.loads(capsys.readouterr().err) == {
            "error": "DegenerateInput",
            "message": "GVCAM_TOL must be a finite number >= 0, got %r"
                       % float(value)}
        monkeypatch.delenv("GVCAM_TOL")


def test_cli_tolerance_zero_is_allowed(capsys, monkeypatch, mixed_scene):
    """A tolerance of 0 is read, from the flag and from the environment."""
    monkeypatch.delenv("GVCAM_TOL", raising=False)
    rc, out = run_cli(capsys, ["check", "--scene", mixed_scene, "--tol", "0"])
    assert rc in (0, 1) and json.loads(out)["tol"] == 0.0
    monkeypatch.setenv("GVCAM_TOL", "0")
    rc, out = run_cli(capsys, ["multidegree", "2"])
    assert rc == 0 and json.loads(out)["tol"] == 0.0


def test_cli_triangulate(capsys, tmp_path, mixed_scene):
    rc, out = run_cli(capsys, ["triangulate", "--scene", mixed_scene])
    assert rc == 0
    rows = json.loads(out)["results"]
    assert_proj_close(np.array(rows[0]["point"]), np.array([1., 1, 1, 1]), 1e-8)
    assert_proj_close(np.array(rows[1]["point"]), np.array([2., 0, 1, 1]), 1e-8)
    assert all(r["residual"] <= 1e-10 for r in rows)
    # a repeated line cannot be triangulated: numerical exit code
    data = mixed_scene_dict([[1, 1, 1, 1]])
    line = data["observations"][0][0]
    data["observations"][0] = [line, line]
    dup = write_json(tmp_path / "dup.json", data)
    assert cli.main(["triangulate", "--scene", dup]) == 3
    # a missing observation list is an input error
    data = mixed_scene_dict([[1, 1, 1, 1]])
    del data["observations"]
    assert cli.main(["triangulate", "--scene",
                     write_json(tmp_path / "noobs.json", data)]) == 2


def test_cli_triangulate_matches_per_tuple_calls(capsys, tmp_path):
    """The report of the stacked path is the one assembled from
    multiimage.triangulate on each tuple, byte for byte, in float and in
    exact mode."""
    data = mixed_scene_dict([[1, 1, 1, 1], [2, 0, 1, 1], [1, -3, 2, 7],
                             [5, 1, 0.5, 2]])
    data["observations"][1][0] = line_from_points(      # off the tuple
        [1., 0, 0, 2], [0.5, 1, 3, 1]).tolist()
    scene = write_json(tmp_path / "tri.json", data)
    exact = mixed_scene_dict([[1, 1, 1, 1], [2, 0, 1, 1]])
    exact["observations"] = [[[int(v) for v in p] for p in item]
                             for item in exact["observations"]]
    exact_scene = write_json(tmp_path / "tri_exact.json", exact)
    for path, flags in ((scene, []), (exact_scene, ["--exact"])):
        argv = ["triangulate", "--scene", path, "--seed", "3"] + flags
        rc, out = run_cli(capsys, argv)
        assert rc == 0
        loaded = load_scene(path, exact=bool(flags))
        rows = []
        for k, item in enumerate(load_observations(None, loaded,
                                                   exact=bool(flags))):
            res = multiimage.triangulate(loaded.cameras, list(item))
            rows.append({"item": k, "point": res.point.tolist(),
                         "residual": res.residual})
        expected = {"command": "triangulate", "version": 1, "tol": 1e-8,
                    "exact": bool(flags), "seed": 3, "timing": None,
                    "results": rows}
        assert out == json.dumps(expected, indent=2, sort_keys=True) + "\n"


def _check_error(capsys, argv):
    capsys.readouterr()
    rc = cli.main(argv)
    return rc, json.loads(capsys.readouterr().err)


def test_cli_observation_defects_name_the_item(capsys, tmp_path):
    """Each single defect exits 2 with DegenerateInput naming its item,
    whether the observations come from the scene or from a file."""
    defects = {
        "true": (True, "observations[1][0]"),
        "null": (None, "observations[1][0]"),
        "string": ("x/y", "observations[1][0]"),
        "nan": (float("nan"), "observations[1][0]"),
        "huge": (10 ** 400, "observations[1][0]"),
    }
    cases = {}
    for name, (value, where) in defects.items():
        data = mixed_scene_dict([[1, 1, 1, 1], [2, 0, 1, 1]])
        data["observations"][1][0][2] = value
        cases[name] = (data, where)
    short = mixed_scene_dict([[1, 1, 1, 1], [2, 0, 1, 1]])
    short["observations"][1][1] = short["observations"][1][1][:5]
    cases["five"] = (short, "observations[1][1]")
    ragged = mixed_scene_dict([[1, 1, 1, 1], [2, 0, 1, 1]])
    ragged["observations"][1] = ragged["observations"][1][:1]
    cases["ragged"] = (ragged, "observations[1]")
    off = mixed_scene_dict([[1, 1, 1, 1], [2, 0, 1, 1]])
    off["observations"][1][1] = [1, 0, 0, 0, 0, 1]
    cases["off_quadric"] = (off, "observations[1][1]")
    # its squares overflow: unitized without care, it is a zero row
    huge = mixed_scene_dict([[1, 1, 1, 1], [2, 0, 1, 1]])
    huge["observations"][1][1] = [1e200, 0, 0, 0, 0, 1e200]
    cases["huge_off_quadric"] = (huge, "observations[1][1]")
    # integer coordinates, so that --exact reads them too
    cases["zero"] = ({"version": 1, "rig": [
        {"type": "pinhole", "center": [1, 0, 0, 0]},
        {"type": "pinhole", "center": [0, 1, 0, 0]}],
        "observations": [[[1, 0, 0, 0, 0, 0], [0, 0, 0, 0, 0, 0]]]},
        "observations[0][1]")
    for name, (data, where) in cases.items():
        scene = write_json(tmp_path / (name + ".json"), data)
        obs = write_json(tmp_path / (name + "_obs.json"),
                         {"observations": data.pop("observations")})
        bare = write_json(tmp_path / (name + "_rig.json"), data)
        modes = ([], ["--exact"]) if name == "zero" else ([],)
        for argv in (["check", "--scene", scene],
                     ["check", "--scene", bare, "--observations", obs]):
            for mode in modes:
                rc, err = _check_error(capsys, argv + mode)
                assert rc == 2 and err["error"] == "DegenerateInput", name
                message = err["message"]
                assert message.startswith(where), (name, err)
                assert message[len(where)] in ": ", (name, err)


def test_cli_check_is_free_of_line_scale_at_the_float_range_ends(
        capsys, tmp_path):
    """Observed lines scaled by 2**-700 (about 1e-211, whose squares
    underflow) or 2**700 (about 5e210, whose squares overflow) load as
    lines and give the report of the unscaled scene, bit for bit."""
    reports = []
    for scale in (1.0, 2.0 ** -700, 2.0 ** 700):
        data = mixed_scene_dict([[1, 1, 1, 1], [2, 0, 1, 1]])
        data["observations"] = [[[scale * v for v in line] for line in item]
                                for item in data["observations"]]
        scene = write_json(tmp_path / "scaled.json", data)
        for command in ("check", "triangulate"):
            rc, out = run_cli(capsys, [command, "--scene", scene])
            assert rc == 0, (scale, command)
            reports.append(out)
    assert reports[0::2] == [reports[0]] * 3
    assert reports[1::2] == [reports[1]] * 3
    assert '"point"' in reports[0]


def test_cli_point_defects_name_the_point(capsys, tmp_path):
    """Each point defect exits 2 with DegenerateInput naming its index,
    whether the points come from the scene or from --points; the zero
    vector is no point, in float and in exact mode."""
    defects = {
        "zero": ([0, 0, 0, 0], "is the zero vector, not a point"),
        "short": ([1, 2, 3], "length 4"),
        "true": ([1, True, 0, 1], "booleans"),
        "nan": ([1, float("nan"), 0, 1], "finite"),
        "huge": ([10 ** 400, 1, 0, 1], "float range"),
        "string": ([1, "x/y", 0, 1], "cannot parse rational"),
    }
    rig = mixed_scene_dict([])["rig"]
    for name, (bad, why) in defects.items():
        points = [[1, 2, 3, 1], ["1/2", 1, 1, 1], bad]
        scene = write_json(tmp_path / (name + ".json"),
                           {"version": 1, "rig": rig, "points": points})
        bare = write_json(tmp_path / (name + "_rig.json"),
                          {"version": 1, "rig": rig})
        given = write_json(tmp_path / (name + "_points.json"),
                           {"points": points})
        modes = ([], ["--exact"]) if name == "zero" else ([],)
        for argv in (["project", "--scene", scene],
                     ["project", "--scene", bare, "--points", given]):
            for mode in modes:
                rc, err = _check_error(capsys, argv + mode)
                assert rc == 2 and err["error"] == "DegenerateInput", name
                assert err["message"].startswith("points[2]"), (name, err)
                assert why in err["message"], (name, err)


def test_cli_project_exact_huge_coordinates(capsys, tmp_path):
    """Under --exact, points of 10**400-sized integers project as their
    small multiples do: the focal tests compare with zero exactly and the
    generator residuals are compared exactly, with no float norm."""
    rig = [{"type": "pinhole", "center": [0, 0, 0, 1]},
           {"type": "two_slit", "slits": [[1, 0, 0, 0, 0, 0],
                                          [0, 0, 0, 0, 0, 1]]},
           {"type": "pushbroom", "slit": [1, 0, 0, -2, 0, 0]},
           {"type": "twisted_cubic"}]
    small = [[1, 2, 3, 1], [0, 0, 0, 1], [2, 1, 4, 0], [1, 2, 4, 8]]
    reports = []
    for scale in (1, 10 ** 400):
        points = [[scale * v for v in x] for x in small]
        scene = write_json(tmp_path / "huge.json",
                           {"version": 1, "rig": rig, "points": points})
        rc, out = run_cli(capsys, ["project", "--exact", "--scene", scene])
        assert rc == 0
        reports.append(json.loads(out))
    for report in reports:
        for row in report["results"]:
            row.pop("line", None)
    assert reports[0] == reports[1]
    errors = [(r["item"], r["camera"]) for r in reports[1]["results"]
              if "error" in r]
    # (0:0:0:1) is focal for every camera: the centre, on a slit of the
    # two-slit and of the pushbroom (its slit at infinity), on the curve
    assert errors == [(1, 0), (1, 1), (1, 2), (1, 3), (2, 2), (3, 3)]


def test_cli_project_huge_float_points_on_twisted_cubic(capsys, tmp_path):
    """A float point whose twisted-cubic line, or the fourth power of its
    norm, overflows the float range exits 2 with DegenerateInput naming
    it, with or without a homography; it is not reported as focal."""
    rig = [{"type": "pinhole", "center": [0, 0, 0, 1]},
           {"type": "twisted_cubic"}]
    moved = [rig[0], {"type": "twisted_cubic",
                      "homography": [[1, 0, 0, 0], [1, 1, 0, 0],
                                     [0, 0, 1, 0], [0, 0, 1, 1]]}]
    for k, huge in enumerate(([1e80, 1, 1, 1], [1, 1e60, 1, 1],
                              [1, 1, 1e100, 1])):
        for cams in (rig, moved):
            points = [[1, 2, 3, 1], [2, -1, 1, 1], huge]
            scene = write_json(tmp_path / ("huge%d.json" % k),
                               {"version": 1, "rig": cams, "points": points})
            rc, err = _check_error(capsys, ["project", "--scene", scene])
            assert rc == 2 and err["error"] == "DegenerateInput", huge
            assert err["message"].startswith("points[2]"), (huge, err)
            assert "float range" in err["message"]


def test_cli_project_exact_huge_point_on_moved_twisted_cubic(capsys,
                                                             tmp_path):
    """Under --exact a twisted cubic with a homography projects in floats;
    a 10**200-sized point overflows there and exits 2 naming it, where it
    wrote NaN lines before."""
    rig = [{"type": "pinhole", "center": [0, 0, 0, 1]},
           {"type": "twisted_cubic",
            "homography": [[1, 0, 0, 0], [1, 1, 0, 0], [0, 0, 1, 0],
                           [0, 0, 1, 1]]}]
    scene = write_json(tmp_path / "huge.json", {
        "version": 1, "rig": rig, "points": [[1, 2, 3, 1],
                                             [10 ** 200, 2, 3, 1]]})
    rc, err = _check_error(capsys, ["project", "--exact", "--scene", scene])
    assert rc == 2 and err == {
        "error": "DegenerateInput",
        "message": "points[1] is too large: its projection overflows the "
                   "float range"}


def test_cli_project_huge_float_points_on_pinhole_and_two_slit(capsys,
                                                               tmp_path):
    """A float point whose pinhole or two-slit focal test overflows exits
    2 naming it: it is neither a FocalPoint at the centre nor a NaN line;
    the rig projects its other points as before."""
    pinhole = {"type": "pinhole", "center": [0, 0, 0, 1]}
    rigs = ([pinhole, {"type": "pinhole", "center": [1, 0, 0, 1]}],
            [pinhole, {"type": "two_slit", "slits": [[1, 0, 0, 0, 0, 0],
                                                     [0, 0, 0, 0, 0, 1]]}])
    for k, rig in enumerate(rigs):
        points = [[1, 2, 3, 1], [2, -1, 1, 1]]
        scene = write_json(tmp_path / ("rig%d.json" % k),
                           {"version": 1, "rig": rig, "points": points})
        rc, out = run_cli(capsys, ["project", "--scene", scene])
        assert rc == 0 and "error" not in out
        scene = write_json(tmp_path / ("huge%d.json" % k), {
            "version": 1, "rig": rig, "points": points + [[1e300, 1, 1, 1]]})
        rc, err = _check_error(capsys, ["project", "--scene", scene])
        assert rc == 2 and err["error"] == "DegenerateInput", rig
        assert err["message"].startswith("points[2] is too large"), err


def test_cli_check_exact_names_huge_generators(capsys, tmp_path):
    """A concurrency rejection under --exact whose worst generator is
    beyond the float range is named, with the residual's exact string."""
    centres = [[0, 0, 0, 1], [1, 0, 0, 1], [0, 1, 0, 1]]
    x, y = np.array([1., 2, 3, 1]), np.array([2., -1, 1, 1])
    lines = [[int(v) for v in line_from_points(np.array(c, float), z)]
             for c, z in zip(centres, (x, x, y))]
    lines[0] = [10 ** 400 * v for v in lines[0]]
    scene = write_json(tmp_path / "huge.json", {
        "version": 1, "rig": [{"type": "pinhole", "center": c}
                              for c in centres],
        "observations": [lines]})
    rc, out = run_cli(capsys, ["check", "--exact", "--scene", scene])
    assert rc == 1
    (row,) = json.loads(out)["results"]
    assert row["violated"].startswith("cubic[0][1][2]")
    assert int(row["residual"]) > 10 ** 400


def test_cli_huge_integer_coordinates(capsys, tmp_path):
    """An integer beyond the float range is an input error in float mode
    and an ordinary coordinate under --exact: never a crash."""
    points = mixed_scene_dict([[1, 1, 1, 1]])
    points["points"] = [[10 ** 400, 1, 1, 1]]
    obs = mixed_scene_dict([[1, 1, 1, 1]])
    obs["observations"][0][0][0] = -10 ** 400
    for argv in (["project", "--scene", write_json(tmp_path / "p.json",
                                                   points)],
                 ["check", "--scene", write_json(tmp_path / "o.json", obs)]):
        rc, err = _check_error(capsys, argv)
        assert rc == 2 and err["error"] == "DegenerateInput"
        assert "float range" in err["message"]
    exact = write_json(tmp_path / "e.json", {
        "version": 1,
        "rig": [{"type": "pinhole", "center": [0, 0, 0, 1]},
                {"type": "pinhole", "center": [0, 0, 10 ** 400, 0]}],
        # the line e0 v e1 misses the first centre
        "observations": [[[10 ** 400, 0, 0, 0, 0, 0], [0, 0, 0, 0, 0, 1]]]})
    rc, out = run_cli(capsys, ["check", "--scene", exact, "--exact"])
    assert rc == 1
    (row,) = json.loads(out)["results"]
    assert row["violated"] == "congruence[0]" and row["residual"] == 1.0


def test_cli_rational_spelling_gets_the_float_verdict(capsys, tmp_path):
    """A line spelled with plain numbers, with a rational string, and with
    that string under --exact gets one verdict: its residual does not
    depend on its scale or on how its coordinates are written."""
    rig = [{"type": "pinhole", "center": [1, 0, 0, 0]},
           {"type": "pinhole", "center": [0, 1, 0, 0]}]
    for tiny, flags in ((1e-12, []), ("1/1000000000000", []),
                        ("1/1000000000000", ["--exact"])):
        scene = write_json(tmp_path / "tiny.json", {
            "version": 1, "rig": rig,
            # e2 v e3, scaled by 1e-12, misses the first centre
            "observations": [[[0, 0, 0, 0, 0, tiny], [0, 0, 0, 1, 0, 0]]]})
        rc, out = run_cli(capsys, ["check", "--scene", scene] + flags)
        assert rc == 1, (tiny, flags)
        (row,) = json.loads(out)["results"]
        assert row["violated"] == "congruence[0]", (tiny, flags)
        assert row["residual"] == 1.0, (tiny, flags)


def test_observations_load_as_one_float_stack():
    """Observations load as one (N, n, 6) array: float64 in float mode,
    whether written as plain numbers, rational strings or a mix of the
    two, and Fractions under exact mode."""
    plain = mixed_scene_dict([[1, 1, 1, 1], [2, 0, 1, 1]])
    strings = mixed_scene_dict([[1, 1, 1, 1], [2, 0, 1, 1]])
    strings["observations"] = [[[str(v) for v in p] for p in item]
                               for item in strings["observations"]]
    mixed = mixed_scene_dict([[1, 1, 1, 1], [2, 0, 1, 1]])
    mixed["observations"][0][0] = strings["observations"][0][0]
    for data in (plain, strings, mixed):
        obs = scene_from_dict(data).observations
        assert obs.shape == (2, 2, 6) and obs.dtype == np.float64
        assert obs.tolist() == scene_from_dict(plain).observations.tolist()
    integers = mixed_scene_dict([[1, 1, 1, 1], [2, 0, 1, 1]])
    integers["observations"] = [[[int(v) for v in p] for p in item]
                                for item in integers["observations"]]
    for data in (integers, strings):
        obs = scene_from_dict(data, exact=True).observations
        assert obs.shape == (2, 2, 6) and obs.dtype == object
        assert all(type(v) is Fraction for v in obs.flat)


def test_cli_parser_is_built_once(capsys, mixed_scene):
    """The shared parser gives every call the report of a fresh parser."""
    calls = (["check", "--scene", mixed_scene], ["check", "--bogus"],
             ["project", "--scene", mixed_scene, "--seed", "4"], ["--help"])

    def run(argv):
        capsys.readouterr()
        rc = cli.main(argv)
        out, err = capsys.readouterr()
        return rc, out, err

    shared = [run(argv) for argv in calls]
    assert cli.build_parser() is cli.build_parser()
    fresh = []
    for argv in calls:
        cli.build_parser.cache_clear()
        fresh.append(run(argv))
    assert shared == fresh
    assert [rc for rc, _, _ in shared] == [0, 2, 0, 0]


# ---------------------------------------------------------------------------
# CLI: baselines / tensor / invariant


def test_cli_baselines(capsys, tmp_path):
    two_slit_rig = {"version": 1, "rig": [
        {"type": "two_slit", "slits": [[1, 0, 0, 0, 0, 0],
                                       [0, 0, 0, 0, 0, 1]]},
        {"type": "two_slit", "slits": [[1, 1, 0, 2, -1, -1],
                                       [1, -2, -6, -1, -3, 0]]},
    ]}
    scene = write_json(tmp_path / "slits.json", two_slit_rig)
    rc, out = run_cli(capsys, ["baselines", "--scene", scene])
    assert rc == 0
    report = json.loads(out)
    assert report["count"] == 2
    assert sum(r["multiplicity"] for r in report["results"]) == 2
    pin_rig = {"version": 1, "rig": [
        {"type": "pinhole", "center": [0, 0, 0, 1]},
        {"type": "pinhole", "center": [0, 0, 1, 0]}]}
    scene = write_json(tmp_path / "pins.json", pin_rig)
    rc, out = run_cli(capsys, ["baselines", "--scene", scene])
    assert rc == 0
    report = json.loads(out)
    assert report["count"] == 1
    assert_proj_close(np.array(report["results"][0]["line"]),
                      line_from_points(np.array([0., 0, 0, 1]),
                                       np.array([0., 0, 1, 0])), 1e-9)
    three = {"version": 1, "rig": [{"type": "pinhole", "center": [0, 0, 0, 1]}
                                   ] * 3}
    assert cli.main(["baselines", "--scene",
                     write_json(tmp_path / "three.json", three)]) == 2


def test_cli_tensor_invariant_pipeline(capsys, tmp_path, mixed_scene):
    out_path = tmp_path / "tensor.json"
    rc, _ = run_cli(capsys, ["tensor", "--kind", "mixed", "--scene",
                             mixed_scene, "--out", str(out_path)])
    assert rc == 0
    payload = json.loads(out_path.read_text())
    assert payload["tensor"]["kind"] == "mixed"
    rc, out = run_cli(capsys, ["invariant", "--tensor", str(out_path)])
    assert rc == 0
    row = json.loads(out)["results"][0]
    assert row["degree"] == 6 and row["relative"] <= 1e-8
    # the invariant only applies to the mixed tensor kind
    fm = {"kind": "fundamental", "entries": [[0, 1, 0], [-1, 0, 0], [0, 0, 0]]}
    bad = write_json(tmp_path / "fm.json", fm)
    assert cli.main(["invariant", "--tensor", bad]) == 2
    # a rig without two pinholes cannot build a fundamental matrix
    assert cli.main(["tensor", "--kind", "fundamental",
                     "--scene", mixed_scene]) == 2


def test_cli_tensor_fundamental_exact(capsys, tmp_path):
    scene = write_json(tmp_path / "pins.json", {
        "version": 1,
        "rig": [{"type": "pinhole", "matrix": PINHOLE_MATRIX},
                {"type": "pinhole", "matrix": PINHOLE_MATRIX_2}]})
    rc, out = run_cli(capsys, ["tensor", "--kind", "fundamental",
                               "--scene", scene, "--exact"])
    assert rc == 0
    entries = json.loads(out)["tensor"]["entries"]
    assert entries == [["0", "1", "0"], ["-1", "0", "0"], ["0", "0", "0"]]


def test_cli_tensor_refuses_csv(capsys, tmp_path):
    """A tensor report has no results rows, so CSV would lose the tensor:
    it is refused before --out is opened, with exit code 2."""
    scene = write_json(tmp_path / "pins.json", {
        "version": 1,
        "rig": [{"type": "pinhole", "matrix": PINHOLE_MATRIX},
                {"type": "pinhole", "matrix": PINHOLE_MATRIX_2}]})
    target = tmp_path / "tensor.csv"
    rc, err = _check_error(capsys, ["tensor", "--kind", "fundamental",
                                    "--scene", scene, "--format", "csv",
                                    "--out", str(target)])
    assert rc == 2 and err["error"] == "DegenerateInput"
    assert "CSV" in err["message"] and not target.exists()
    assert capsys.readouterr().out == ""


def test_cli_invariant_from_stdin(capsys, monkeypatch, tmp_path, mixed_scene):
    out_path = tmp_path / "tensor.json"
    run_cli(capsys, ["tensor", "--kind", "mixed", "--scene", mixed_scene,
                     "--out", str(out_path)])
    monkeypatch.setattr("sys.stdin", io.StringIO(out_path.read_text()))
    rc, out = run_cli(capsys, ["invariant"])
    assert rc == 0
    assert json.loads(out)["results"][0]["relative"] <= 1e-8


# ---------------------------------------------------------------------------
# CLI: reflect / multidegree


def test_cli_reflect_plane(capsys, tmp_path):
    payload = {"plane": [1, 1, 0, 0],
               "points": [[1, 0, 0, 0]],
               "lines": [[0, 0, 1, 0, 0, 0]]}
    path = write_json(tmp_path / "plane.json", payload)
    rc, out = run_cli(capsys, ["reflect", "--input", path, "--exact"])
    assert rc == 0
    rows = json.loads(out)["results"]
    assert rows[0]["kind"] == "point" and rows[1]["kind"] == "line"
    from gvcam.catadioptric import reflect_line, reflect_point
    assert_proj_close(np.array([float(v) for v in rows[0]["reflected"]]),
                      reflect_point(np.array([1., 1, 0, 0]),
                                    np.array([1., 0, 0, 0])), 1e-12)
    assert_proj_close(np.array([float(v) for v in rows[1]["reflected"]]),
                      reflect_line(np.array([1., 1, 0, 0]),
                                   np.array([0., 0, 1, 0, 0, 0])), 1e-12)
    both = write_json(tmp_path / "both.json", {"plane": [1, 1, 0, 0],
                                               "surface": {"degree": 2,
                                                           "coeffs": {}}})
    assert cli.main(["reflect", "--input", both]) == 2


def test_cli_reflect_plane_matches_per_vector_calls(capsys, tmp_path):
    """Plane mode reflects its points and lines as stacks, past two writer
    blocks: the report is ``json.dumps`` of the rows that ``reflect_point``
    and ``reflect_line`` give one vector at a time, in float mode and under
    ``--exact``.  An isotropic plane with nothing to reflect is no error."""
    from gvcam.catadioptric import reflect_line, reflect_point
    rng = np.random.default_rng(23)
    n = 2 * cli._BLOCK_ROWS + 3
    inputs = {
        (): {"plane": [0.5, -1.25, 3.0, 0.75],
             "points": rng.standard_normal((n, 4)).tolist(),
             "lines": (rng.standard_normal((n, 6)) * 1e3).tolist()},
        ("--exact",): {"plane": [2, -1, "3/7", 1],
                       "points": rng.integers(-50, 50, (n, 4)).tolist(),
                       "lines": [["%d/%d" % (a, b) for a, b in row] for row in
                                 rng.integers(1, 50, (n, 6, 2)).tolist()]}}
    for flags, payload in inputs.items():
        exact = bool(flags)
        H = vec(payload["plane"], exact)
        rows = [{"kind": kind, "index": i,
                 "reflected": vector_payload(reflect(H, vec(v, exact)))}
                for kind, reflect in (("point", reflect_point),
                                      ("line", reflect_line))
                for i, v in enumerate(payload[kind + "s"])]
        path = write_json(tmp_path / "plane.json", payload)
        rc, out = run_cli(capsys, ["reflect", "--input", path, *flags])
        assert rc == 0
        report = dict(json.loads(out), results=rows)
        assert out == json.dumps(report, indent=2, sort_keys=True) + "\n"
    for payload in ({"plane": [1, 0, 0, 0]},
                    {"plane": [1, 0, 0, 0], "points": [], "lines": []}):
        path = write_json(tmp_path / "isotropic.json", payload)
        rc, out = run_cli(capsys, ["reflect", "--input", path])
        assert rc == 0 and json.loads(out)["results"] == []


def test_cli_reflect_surface(capsys, tmp_path):
    sphere = {"degree": 2, "coeffs": {"2000": -1.0, "0200": 1.0,
                                      "0020": 1.0, "0002": 1.0}}
    secant = line_from_points(np.array([1., -2, 0.1, 0]),
                              np.array([1., 2, -0.1, 0])).tolist()
    missing = line_from_points(np.array([1., 5, 0, 0]),
                               np.array([1., 5, 0, 1])).tolist()
    path = write_json(tmp_path / "surf.json",
                      {"surface": sphere, "lines": [secant, missing]})
    rc, out = run_cli(capsys, ["reflect", "--input", path])
    assert rc == 0
    rows = json.loads(out)["results"]
    contacts = [r for r in rows if r["index"] == 0]
    assert len(contacts) == 2
    for row in contacts:
        assert len(row["contact"]) == 4 and len(row["reflected"]) == 6
    assert [r for r in rows if r["index"] == 1][0]["contacts"] == 0


# The reference ellipsoid x1^2/16 + x2^2/16 + x3^2/25 = x0^2, as the
# documented input form with rational coefficient strings.
ELLIPSOID = {"degree": 2, "coeffs": {"2000": "-1", "0200": "1/16",
                                     "0020": "1/16", "0002": "1/25"}}


def test_cli_reflect_surface_matches_per_line_calls(capsys, tmp_path):
    """One report row per real contact (or one for a missing line), in
    line order, each equal to the per-line library calls; the rare rows'
    restrictions have an exact-zero trailing or leading coefficient, which
    np.roots would strip or which is a root at infinity."""
    interior = [line_from_points([1., 0.5, -0.2, 1.0], [1., 6, 2, -3]),
                line_from_points([1., 0, 0, 0], [1., 1, 2, 3])]
    missing = line_from_points([1., 9, 0, 0], [1., 9, 1, 1])
    trailing = np.array([-3., 1, 1, 4, 4, 0])    # (1,4,0,0) v (1,1,1,1)
    leading = np.array([-27., -24, 15, -12, 48, 36])
    lines = [interior[0], missing, trailing, interior[1], leading]
    S = MirrorSurface.from_payload(ELLIPSOID)
    forms = [S.restrict_to_line(*points_on_line(unitize(L)))
             for L in (trailing, leading)]
    assert forms[0][-1] == 0 and forms[1][0] == 0
    path = write_json(tmp_path / "ellipsoid.json",
                      {"surface": ELLIPSOID,
                       "lines": [L.tolist() for L in lines]})
    rc, out = run_cli(capsys, ["reflect", "--input", path])
    assert rc == 0
    rows = json.loads(out)["results"]
    assert [r["index"] for r in rows] == [0, 0, 1, 2, 2, 3, 3, 4, 4]
    expected = []
    for i, L in enumerate(lines):
        contacts = line_surface_points(S, L)
        if not contacts:
            expected.append({"kind": "specular", "index": i, "contacts": 0})
        for x in contacts:
            expected.append({
                "kind": "specular", "index": i, "contact": x.tolist(),
                "tangent": tangent_plane(S, x, tol=1e-6).tolist(),
                "reflected": specular_pair(S, x, L, tol=1e-6).tolist()})
    assert rows == expected


def test_cli_rejects_non_finite_coordinates(capsys, tmp_path):
    """json reads NaN and Infinity, but they are not coordinates."""
    scene = {"version": 1, "rig": [{"type": "pinhole",
                                    "center": [1, 0, 0, 0]}],
             "points": [[float("nan"), 1, 2, 1]]}
    mirror = {"surface": ELLIPSOID, "lines": [[float("inf"), 1, 0, 0, 0, 1]]}
    for argv in (["project", "--scene",
                  write_json(tmp_path / "nan.json", scene)],
                 ["reflect", "--input",
                  write_json(tmp_path / "inf.json", mirror)]):
        capsys.readouterr()
        assert cli.main(argv) == 2
        assert json.loads(capsys.readouterr().err)["error"] == \
            "DegenerateInput"


def test_cli_reflect_rejects_malformed_lines(capsys, tmp_path):
    good = line_from_points([1., 0, 0, 0], [1., 1, 2, 3]).tolist()
    for bad in ([1, 0, 0, 0, 0], [1, 0, 0, 0, 0, 1]):   # short, off quadric
        path = write_json(tmp_path / "bad.json",
                          {"surface": ELLIPSOID, "lines": [good, good, bad]})
        capsys.readouterr()
        assert cli.main(["reflect", "--input", path]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "DegenerateInput"
        assert err["message"].startswith("lines[2]")


_E0E1 = [1, 0, 0, 0, 0, 0]


@pytest.mark.parametrize("bad, message", [
    ([1, 0, True, 0, 0, 0], "booleans are not coordinates"),
    ([1, 0, None, 0, 0, 0], "cannot parse scalar None"),
    ([1, 0, "x", 0, 0, 0], "cannot parse rational 'x'"),
    ([1, 0, float("nan"), 0, 0, 0], "coordinates must be finite, got nan"),
    ([1, 0, float("inf"), 0, 0, 0], "coordinates must be finite, got inf"),
    ([1, 0, -float("inf"), 0, 0, 0],
     "coordinates must be finite, got -inf"),
    ([1, 0, 10 ** 400, 0, 0, 0],
     "integer coordinate of 1329 bits exceeds the float range"),
    ([1, 0, 0, 0, 0], "expected a vector of length 6, got shape (5,)"),
    ([1, 0, 0, 0, 0, 0, 0], "expected a vector of length 6, got shape (7,)"),
    (5, "a coordinate vector must be a list, got 5"),
])
def test_mirror_line_defects_name_the_line(bad, message):
    """Lines of plain numbers are read in one pass; any other line sends
    the whole list through the line-by-line reader, whose message names
    the line."""
    with pytest.raises(DegenerateInput) as info:
        mirror_lines([_E0E1, bad, _E0E1])
    assert str(info.value) == "lines[1]: " + message
    # the same numbers, rational strings beside plain ones
    np.testing.assert_array_equal(
        mirror_lines([_E0E1, ["1/3", 0, 0, 0, 0, 0]]),
        [_E0E1, [1 / 3, 0, 0, 0, 0, 0]])


def test_cli_reflect_accepts_rounded_lines(capsys, tmp_path):
    """Lines rounded to seven digits miss the Pluecker quadric by more than
    the default tolerance; they are checked at the reflection's 1e-6."""
    lines = [unitize(line_from_points(x, [1., 1, 2, 3]))
             for x in ([1., 0.5, -1, 0.25], [1., -1, 0.5, 2])]
    rounded = [[float("%.7g" % v) for v in p] for p in lines]
    assert all(abs(plucker_quadric(unitize(np.array(p)))) > 1e-8
               for p in rounded)
    path = write_json(tmp_path / "rounded.json",
                      {"surface": ELLIPSOID, "lines": rounded})
    rc, out = run_cli(capsys, ["reflect", "--input", path])
    assert rc == 0
    assert {row["index"] for row in json.loads(out)["results"]} == {0, 1}


def test_cli_multidegree(capsys):
    rc, out = run_cli(capsys, ["multidegree", "4"])
    assert rc == 0
    row = json.loads(out)["results"][0]
    assert row["term_count"] == 16 and row["coefficient_sum"] == 80
    assert row["terms"][0] == "4*t1^3*t2^3*t3^2*t4"
    assert sum(t.startswith("8*") for t in row["terms"]) == 4
    assert cli.main(["multidegree", "1"]) == 2
    # the report grows as n^4: an n past the cap is refused, not computed
    assert cli.main(["multidegree", str(MAX_MULTIDEGREE_N + 1)]) == 2
    assert "n <= %d" % MAX_MULTIDEGREE_N in capsys.readouterr().err


# ---------------------------------------------------------------------------
# CLI: formats and failure plumbing


def test_cli_csv_format(capsys, mixed_scene):
    rc, out = run_cli(capsys, ["project", "--scene", mixed_scene,
                               "--format", "csv"])
    assert rc == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 4
    assert {"item", "camera", "line", "quadric_residual"} <= set(rows[0])
    assert len(json.loads(rows[0]["line"])) == 6


def test_cli_out_file_and_quiet_stdout(capsys, tmp_path, mixed_scene):
    target = tmp_path / "report.json"
    rc, out = run_cli(capsys, ["project", "--scene", mixed_scene,
                               "--out", str(target)])
    assert rc == 0 and out == ""
    assert json.loads(target.read_text())["command"] == "project"


def test_cli_usage_and_io_errors(capsys, tmp_path):
    assert cli.main([]) == 2
    assert cli.main(["no-such-command"]) == 2
    assert cli.main(["project"]) == 2          # missing --scene
    assert cli.main(["--help"]) == 0
    capsys.readouterr()
    assert cli.main(["project", "--scene", str(tmp_path / "missing.json")]) == 2
    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    assert cli.main(["project", "--scene", str(broken)]) == 2
    bad_version = write_json(tmp_path / "v9.json", {"version": 9, "rig": []})
    assert cli.main(["project", "--scene", bad_version]) == 2
    line = [0, 0, 0, 0, 0, 1]
    malformed = {
        "rig_entry": {"version": 1, "rig": [[1, 2]]},
        "three_slits": {"version": 1, "rig": [
            {"type": "two_slit", "slits": [line, line, line]}]},
        "scalar_center": {"version": 1, "rig": [
            {"type": "pinhole", "center": 5}]},
        "scalar_points": {"version": 1, "rig": [
            {"type": "pinhole", "center": [1, 0, 0, 0]}], "points": 3},
        "bad_rational": {"version": 1, "rig": [
            {"type": "pinhole", "center": [1, 0, 0, "x"]}]},
        "coeff_list": {"version": 1, "rig": [], "surfaces": [
            {"degree": 2, "coeffs": [1, 2]}]},
        "missing_center": {"version": 1, "rig": [{"type": "pinhole"}]},
        "scalar_homography": {"version": 1, "rig": [
            {"type": "twisted_cubic", "homography": 5}]},
        "missing_h": {"version": 1, "rig": [
            {"type": "type3", "f": [1, 0, -1], "g": [1, 0, 0, 0]}]},
    }
    for name, data in malformed.items():
        capsys.readouterr()
        assert cli.main(["project", "--scene",
                         write_json(tmp_path / (name + ".json"), data)]) == 2
        assert json.loads(capsys.readouterr().err)["error"] == "DegenerateInput"
    # other commands' inputs: (argv before the file, input, named field)
    rig = [{"type": "pinhole", "center": [1, 0, 0, 0]},
           {"type": "pinhole", "center": [0, 1, 0, 0]}]
    rig_scene = write_json(tmp_path / "rig.json", {"version": 1, "rig": rig})
    sphere = {"degree": 2, "coeffs": {"2000": -1, "0200": 1, "0020": 1,
                                      "0002": 1}}
    big = "%d/3" % 10 ** 400
    cases = [
        (["invariant", "--tensor"], [1], "tensor"),
        (["invariant", "--tensor"], {"kind": "mixed"}, "entries"),
        (["invariant", "--tensor"], {"kind": "mixed", "entries": 3},
         "entries"),
        (["invariant", "--tensor"], {"kind": "mixed",
                                     "entries": [[1, 2], [3]]}, "entries"),
        (["invariant", "--tensor"], {"kind": ["mixed"], "entries": []},
         "tensor kind"),
        (["reflect", "--input"],
         {"surface": dict(sphere, degree="x"), "lines": [line]}, "degree"),
        (["reflect", "--input"],
         {"surface": {"degree": 2, "coeffs": {"ab": 1}}, "lines": [line]},
         "exponent key"),
        (["project", "--scene", rig_scene, "--points"], {"points": 5},
         "points"),
        (["project", "--scene", rig_scene, "--points"], 7, "points"),
        (["reflect", "--input"], {"plane": 5}, "plane"),
        (["reflect", "--input"], {"plane": [0, 1, 0, 0], "points": 3},
         "points"),
        (["check", "--scene"],
         {"version": 1, "rig": rig,
          "observations": [[[0, 0, 0, 0, 0, big], [0, 0, 0, 1, 0, 0]]]},
         "observations[0][0]"),
        (["reflect", "--input"],
         {"surface": sphere, "lines": [[0, 0, 0, 0, 0, big]]}, "lines[0]"),
    ]
    for k, (argv, data, field) in enumerate(cases):
        rc, err = _check_error(
            capsys, argv + [write_json(tmp_path / ("in%d.json" % k), data)])
        assert rc == 2 and err["error"] == "DegenerateInput", (data, err)
        assert field in err["message"], (data, err)


def test_program_exits_4_on_a_bug(capsys, monkeypatch):
    """``cli.run`` passes on the exit code of ``cli.main``; an exception
    that escapes ``main`` (a bug, not a rejected input) exits 4 with its
    traceback on stderr, apart from exit 1 of a rejected check."""
    assert cli.run(["multidegree", "2"]) == 0
    assert cli.run(["no-such-command"]) == 2

    def broken(args):
        raise KeyError("a bug")
    monkeypatch.setitem(cli._COMMANDS, "multidegree", broken)
    capsys.readouterr()
    with pytest.raises(KeyError):
        cli.main(["multidegree", "2"])
    assert cli.run(["multidegree", "2"]) == 4
    err = capsys.readouterr().err
    assert err.startswith("Traceback") and "KeyError: 'a bug'" in err
