"""Malformed scene, points, tensor and ``reflect`` input files against
the CLI: keys dropped, values swapped for ones of another type, values
nested one level too deep or too shallow.  Every case either succeeds
(exit 0, or 1 for a rejected tuple) or exits 2 or 3 with a
:class:`GeometryError` named on stderr; any other exception is a bug and
escapes ``cli.main`` as a traceback."""

import contextlib
import copy
import io
import json
import warnings

import pytest
from hypothesis import given, settings, strategies as st

from gvcam import cli, errors

LINE = [0, 0, 0, 0, 0, 1]
SCENE = {
    "version": 1,
    "rig": [{"type": "pinhole", "center": [0, 0, 0, 1],
             "matrix": [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]]},
            {"type": "pinhole", "center": [1, 0, 0, 1]},
            {"type": "two_slit", "slits": [[1, 0, 0, 0, 0, 0], LINE],
             "matrices": [[[0, 0, 1, 0], [0, 0, 0, 1]],
                          [[1, 0, 0, 0], [0, 1, 0, 0]]]}],
    "points": [[1, 2, 3, 1], ["1/2", 1, 2, 1]],
    # the images of (1:2:3:1), then a tuple rejected by its congruence
    "observations": [
        [[0, 0, -1, 0, -2, -3], [2, 3, 0, 0, -2, -3], [0, -3, -1, -6, -2, 0]],
        [[0, 0, -1, 0, -2, -3], [1, 3, 1, 6, 1, -3], [0, -3, -1, -6, -2, 0]]],
    "surfaces": [{"degree": 2, "coeffs": {"2000": -1, "0200": 1}}],
}
# the other camera kinds, each with the points of SCENE
KINDS_SCENE = {
    "rig": [{"type": "pushbroom", "slit": [1, 0, 0, -2, 0, 0]},
            {"type": "twisted_cubic",
             "homography": [[1, 0, 0, 0], [1, 1, 0, 0], [0, 0, 1, 0],
                            [0, 0, 1, 1]]},
            {"type": "type3", "f": [1, 0, -1], "g": [1, 0.2, 0, 0],
             "h": [0, 0, 0.3, 1]},
            {"type": "type4", "g": [1, 0, 0, 0], "h": [0, 0, 1, 1]}],
    "points": SCENE["points"],
}
POINTS = {"points": [[2, -1, 1, 1]]}
SURFACE = {"surface": {"degree": 2, "coeffs": {"2000": -1, "0200": "1/16",
                                               "0020": "1/16",
                                               "0002": "1/25"}},
           "lines": [[1, 0, 0, 0, 0, 0], [0, 0, 1, 0, 0, 0]]}
PLANE = {"plane": [1, 2, 0, 1], "points": [[1, 0, 0, 0]],
         "lines": [[0, 0, 1, 0, 0, 0]]}
# two pinholes and two two-slits given by their matrices, for every tensor
TENSOR_SCENE = {"version": 1, "rig": [
    SCENE["rig"][0],
    {"type": "pinhole", "matrix": [[1, 0, 0, 0], [0, 1, 0, 0],
                                   [0, 0, 0, 1]]},
    SCENE["rig"][2],
    {"type": "two_slit", "matrices": [[[1, 0, 1, 0], [0, 1, 0, 1]],
                                      [[1, 1, 0, 0], [0, 0, 1, -1]]]}]}
BASELINES_SCENE = {"version": 1, "rig": [
    SCENE["rig"][2], {"type": "two_slit",
                      "slits": [[1, 1, 0, 2, -1, -1], [1, -2, -6, -1, -3, 0]]}]}
TENSOR = {"kind": "mixed", "entries": [[[1, 2], [3, 4]], [[0, 1], [1, 0]],
                                       [[2, -1], [0, "1/3"]]]}

# what a value is swapped for
OTHERS = [None, True, 0, -3, 2.5, 10 ** 400, float("nan"), "x", "1/2", [],
          {}, [1, 2], [[1, 2, 3, 4]], {"a": 1}, {"type": "pinhole"}]


def _paths(value, path=()):
    """The path of every value in a JSON document, the root first."""
    yield path
    items = (value.items() if isinstance(value, dict)
             else enumerate(value) if isinstance(value, list) else ())
    for key, inner in items:
        yield from _paths(inner, path + (key,))


@st.composite
def _mutated(draw, document):
    """``document`` after one to three mutations."""
    doc = copy.deepcopy(document)
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(list(_paths(doc))))
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        value = parent[path[-1]] if path else doc
        how = draw(st.sampled_from(["drop", "swap", "nest", "unnest"]))
        if how == "drop" and path:
            del parent[path[-1]]
            continue
        if how == "swap":
            value = copy.deepcopy(draw(st.sampled_from(OTHERS)))
        elif how == "nest":
            value = [value]
        elif how == "unnest" and isinstance(value, (list, dict)) and value:
            value = next(iter(value.values() if isinstance(value, dict)
                              else value))
        if path:
            parent[path[-1]] = value
        else:
            doc = value
    return doc


GEOMETRY = {name for name, cls in vars(errors).items()
            if isinstance(cls, type) and issubclass(cls, errors.GeometryError)}

# (argv before the input file, the document that is mutated)
CASES = [
    (["project", "--scene"], SCENE),
    (["check", "--scene"], SCENE),
    (["triangulate", "--scene"], SCENE),
    (["project", "--exact", "--scene"], KINDS_SCENE),
    (["project", "--scene"], KINDS_SCENE),
    (["reflect", "--input"], SURFACE),
    (["reflect", "--input"], PLANE),
    (["reflect", "--exact", "--input"], PLANE),
    (["tensor", "--kind", "mixed", "--scene"], TENSOR_SCENE),
    (["tensor", "--kind", "quadrifocal", "--scene"], TENSOR_SCENE),
    (["baselines", "--scene"], BASELINES_SCENE),
    (["invariant", "--tensor"], TENSOR),
    (["invariant", "--exact", "--tensor"], TENSOR),
]


def _run(directory, argv, document):
    path = directory / "input.json"
    path.write_text(json.dumps(document))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings():
        warnings.simplefilter("error")      # NaN arithmetic is a bug too
        code = cli.main(argv + [str(path)])
    err = err.getvalue()
    if code in (0, 1):
        assert err == "", (argv, document, err)
    else:
        assert code in (2, 3), (argv, document, code)
        assert json.loads(err)["error"] in GEOMETRY, (argv, document, err)


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(st.data())
def test_malformed_input_files_exit_cleanly(tmp_path_factory, data):
    argv, document = data.draw(st.sampled_from(CASES))
    _run(tmp_path_factory.mktemp("fuzz"), argv,
         data.draw(_mutated(document)))


@settings(derandomize=True, max_examples=60, deadline=None, database=None)
@given(_mutated(POINTS))
def test_malformed_points_files_exit_cleanly(tmp_path_factory, points):
    directory = tmp_path_factory.mktemp("fuzz")
    points_path = directory / "points.json"
    points_path.write_text(json.dumps(points))
    _run(directory, ["project", "--points", str(points_path), "--scene"],
         SCENE)


SPHERE = {"2000": -1, "0200": 1, "0020": 1, "0002": 1}


@pytest.mark.parametrize("surface, message", [
    ({"degree": 2, "coeffs": {"2000": 0, "0200": 0}},
     "every coefficient of the surface is zero"),
    ({"degree": 2.5, "coeffs": SPHERE},
     "surface 'degree' must be an integer, got 2.5"),
    ({"degree": True, "coeffs": {"1000": 1}},
     "surface 'degree' must be an integer, got True"),
] + [
    ({"degree": d, "coeffs": {"%d,0,0,0" % d: -1, "0,%d,0,0" % d: 1}},
     "a surface needs a degree from 1 to 24")
    for d in (10 ** 400, 10 ** 30, 3000)
] + [
    ({"degree": 2, "coeffs": {"%d,0,0,0" % 10 ** 400: -1, "0200": 1}},
     "a monomial exponent exceeds 24"),
] + [
    # a malformed key is quoted by its first 32 characters
    ({"degree": 2, "coeffs": {key: -1, "0200": 1}},
     "bad exponent key %r" % (key[:32] + "...",))
    for key in ("-" + "9" * 400 + ",0,0,0",     # a huge negative exponent
                "9" * 5000 + ",0,0,0",          # past int()'s digit limit
                "x" * 3000)                     # not a number
])
def test_malformed_surfaces_are_named(tmp_path, surface, message):
    """A surface whose coefficients are all zero, whose degree is not an
    integer or is out of range, with an exponent beyond any degree read, or
    with a malformed exponent key, is refused before any reflection is
    computed, in a message of a bounded length."""
    path = tmp_path / "mirror.json"
    path.write_text(json.dumps({"surface": surface, "lines": [LINE]}))
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        assert cli.main(["reflect", "--input", str(path)]) == 2
    assert json.loads(err.getvalue()) == {"error": "DegenerateInput",
                                          "message": message}
    assert len(message) < 200


def test_whole_number_degree_is_read_as_integer(tmp_path):
    """A surface degree written as a whole float (2.0) is the integer 2."""
    reports = []
    for degree in (2, 2.0):
        path = tmp_path / "mirror.json"
        path.write_text(json.dumps({"surface": {"degree": degree,
                                                "coeffs": SPHERE},
                                    "lines": [[0, 0, 1, 0, 0, 0]]}))
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert cli.main(["reflect", "--input", str(path)]) == 0
        reports.append(out.getvalue())
    assert reports[0] == reports[1]
    assert '"contact"' in reports[0]


# text that json.load cannot read: bytes that are not UTF-8, nesting past
# the recursion limit, an integer past Python's 4,300-digit limit
UNREADABLE = [b'\xff\xfe{"version": 1}', b"[" * 100000,
              b"[" + b"1" * 5000 + b"]"]


@pytest.mark.parametrize("text", UNREADABLE,
                         ids=["not-utf8", "deep-nesting", "long-integer"])
def test_unreadable_json_text_exits_2_naming_the_file(tmp_path, monkeypatch,
                                                      text):
    """Every input flag, and stdin, reports unreadable JSON text as
    DegenerateInput naming its source, in one line, with exit 2."""
    scene = tmp_path / "scene.json"
    scene.write_text(json.dumps(SCENE))
    bad = tmp_path / "bad.json"
    bad.write_bytes(text)
    runs = [(["project", "--scene", bad], bad),
            (["project", "--scene", scene, "--points", bad], bad),
            (["check", "--scene", scene, "--observations", bad], bad),
            (["triangulate", "--scene", scene, "--observations", bad], bad),
            (["reflect", "--input", bad], bad),
            (["invariant", "--tensor", bad], bad),
            (["invariant", "--tensor", "-"], "stdin")]
    for argv, source in runs:
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(text),
                                                          encoding="utf-8"))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main([str(a) for a in argv])
        assert code == 2 and out.getvalue() == "", argv
        lines = err.getvalue().splitlines()
        assert len(lines) == 1, argv
        report = json.loads(lines[0])
        assert report["error"] == "DegenerateInput", argv
        assert report["message"].startswith(
            "%s is not readable JSON: " % source), argv
