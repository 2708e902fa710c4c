"""The streamed JSON report writer of the CLI against ``json.dumps``: the
text must be ``json.dumps(report, indent=2, sort_keys=True) + "\\n"``,
byte for byte, whatever the report holds."""

import json
import os
import pathlib
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gvcam import cli

SRC = pathlib.Path(cli.__file__).resolve().parents[1]


def dumped(report):
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


def written(report):
    return "".join(cli._json_chunks(report))


INF = float("inf")
floats = st.floats() | st.sampled_from(
    [0.0, -0.0, 5e-324, -5e-324, 2.5e-310, 1e-320, 1.7976931348623157e308,
     float("nan"), INF, -INF, 0.1, 1e16, 1e-7])
ints = st.integers() | st.sampled_from([2 ** 64, -2 ** 64 - 1, 3 ** 200])
strings = st.text() | st.sampled_from(
    ["", "1/3", str(Fraction(10 ** 400, 7)), "-7/5", "é", " ",
     "\U0001f600", "a\"b\\c\n\t\x00", "%s %d"])
scalars = (st.none() | st.booleans() | ints | floats | strings
           | floats.map(np.float64))
# keys from a small set, so that rows share templates
keys = st.sampled_from(["item", "line", "residual", "é", "%s", "a\"b", ""])
values = st.recursive(
    scalars,
    lambda inner: (st.lists(inner, max_size=4)
                   | st.tuples(inner, inner)
                   | st.dictionaries(keys | st.text(max_size=3), inner,
                                     max_size=3)
                   | st.dictionaries(st.integers(-3, 3), inner, max_size=3)),
    max_leaves=8)
float_lists = st.lists(floats, min_size=1, max_size=7)
row_values = scalars | float_lists | values
rows = st.dictionaries(keys, row_values, max_size=5) | values
# a list of rows under "results", beside other values and row lists
reports = st.builds(
    lambda results, rest: dict(rest, results=results),
    st.lists(rows, max_size=6),
    st.dictionaries(keys | st.sampled_from(["command", "seed"]),
                    row_values | st.lists(rows, max_size=4), max_size=5))


@settings(derandomize=True, max_examples=250, deadline=None, database=None)
@given(reports)
def test_writer_equals_json_dumps(report):
    assert written(report) == dumped(report)


def test_empty_report_and_keys_that_are_not_strings():
    for report in ({}, {1: [{"a": 1.5}], 2: None},
                   {"results": [{}, {3: 1}, [], (1.5,)]}):
        assert written(report) == dumped(report)


def test_rows_beyond_two_blocks_are_streamed():
    """A row list longer than two blocks comes out in block-sized chunks
    that join to the ``json.dumps`` text."""
    n = 2 * cli._BLOCK_ROWS + 3
    rows = [{"item": k, "line": [k / 7, -0.0, 1e300, 5e-324],
             "residual": float("nan") if k % 97 == 0 else k * 1e-17,
             "note": None if k % 2 else "é", "exact": "%d/3" % k}
            for k in range(n)]
    report = {"command": "project", "results": rows, "tuple_checks": [],
              "extra": rows[:2], "seed": None, "tol": 1e-8}
    chunks = list(cli._json_chunks(report))
    text = "".join(chunks)
    assert text == dumped(report)
    assert max(map(len, chunks)) < len(text) / 2


def _three_camera_scene(tmp_path):
    """A scene of three cameras and _BLOCK_ROWS points, whose ``project``
    report has more than two blocks of rows (about 230 KB)."""
    n = cli._BLOCK_ROWS
    points = [[k + 1, (-1) ** k * k / 3, 2, 1] for k in range(n)]
    scene = tmp_path / "scene.json"
    scene.write_text(json.dumps({
        "version": 1,
        "rig": [{"type": "pinhole", "center": [0, 0, 0, 1]},
                {"type": "two_slit", "slits": [[1, 0, 0, 0, 0, 0],
                                               [0, 0, 0, 0, 0, 1]]},
                {"type": "twisted_cubic"}],
        "points": points}))
    return str(scene)


def test_out_file_and_stdout_get_the_same_bytes(capsys, tmp_path):
    """``--out`` and stdout receive the same text, which re-encodes to
    itself, for a report of more than two blocks of rows."""
    argv = ["project", "--scene", _three_camera_scene(tmp_path)]
    assert cli.main(argv) == 0
    out = capsys.readouterr().out
    target = tmp_path / "report.json"
    assert cli.main(argv + ["--out", str(target)]) == 0
    assert capsys.readouterr().out == ""
    assert target.read_bytes() == out.encode()
    report = json.loads(out)
    assert len(report["results"]) > 2 * cli._BLOCK_ROWS
    assert dumped(report) == out


def test_closed_stdout_exits_141_with_no_error_line(tmp_path):
    """A reader that closes the pipe after the first line of a report
    larger than the pipe's buffer ends ``gvcam`` with exit 141 (128 +
    SIGPIPE) and an empty stderr, not a usage error; an ``--out`` path
    that cannot be opened is still one (exit 2)."""
    scene = _three_camera_scene(tmp_path)
    command = [sys.executable, "-m", "gvcam.cli", "project", "--scene", scene]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    with open(tmp_path / "err", "wb+") as err:
        proc = subprocess.Popen(command, stdout=subprocess.PIPE, stderr=err,
                                stdin=subprocess.DEVNULL, env=env, bufsize=0)
        first = proc.stdout.readline()      # unbuffered: one line only
        proc.stdout.close()
        assert proc.wait(timeout=120) == 141
        err.seek(0)
        assert err.read() == b""
    assert first == b"{\n"
    missing = tmp_path / "no-such-dir" / "report.json"
    out = subprocess.run(command + ["--out", str(missing)], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 2 and out.stdout == ""
    assert json.loads(out.stderr)["error"] == "FileNotFoundError"


# --- column blocks ---------------------------------------------------------

SPECIAL = [float("nan"), INF, -INF, -0.0, 0.0, 5e-324, 1e16, 1e-7, 0.1,
           1.7976931348623157e308, -2.5e-310]
# values of a list column: ints beyond 2^64, exact values as Fraction
# strings, None, floats, strings and nested values
ODD = [2 ** 64, -2 ** 70 - 1, 3 ** 200, "1/3", str(Fraction(10 ** 400, 7)),
       None, True, "é", "%s", 1.5, float("nan"), [1.0, -INF], [], {},
       {"a": [None, "1/2"]}, (1, 2)]
COLUMNS = ["floats", "vectors", "ints", "values", "constant"]


def _column(kind, n, rng):
    """A column of ``kind`` for n rows, drawn with ``rng``."""
    def floats(shape):
        special = np.array(SPECIAL)[rng.integers(len(SPECIAL), size=shape)]
        normal = rng.standard_normal(shape) * 10.0 ** rng.integers(
            -30, 30, size=shape)
        return np.where(rng.random(shape) < 0.3, special, normal)
    if kind == "floats":
        return floats(n)
    if kind == "vectors":
        return floats((n, int(rng.integers(1, 7))))
    if kind == "ints":
        return rng.integers(-2 ** 62, 2 ** 62, size=n)
    if kind == "values":
        return [ODD[k] for k in rng.integers(len(ODD), size=n)]
    # a list would be a column; any other value is a constant
    constants = [v for v in ODD if type(v) is not list]
    return constants[int(rng.integers(len(constants)))]


def _dict_rows(block, n):
    """The rows of a block as dicts."""
    columns = [c.tolist() if isinstance(c, np.ndarray) else
               c if isinstance(c, list) else [c] * n for c in block.values()]
    return [dict(zip(block, row)) for row in zip(*columns)]


@settings(derandomize=True, max_examples=60, deadline=None, database=None)
@given(st.lists(st.dictionaries(keys | st.sampled_from(["contact", "index"]),
                                st.sampled_from(COLUMNS), min_size=1,
                                max_size=5),
                min_size=2, max_size=3),
       st.sampled_from([0, 1, cli._BLOCK_ROWS - 1, cli._BLOCK_ROWS,
                        cli._BLOCK_ROWS + 1, 2 * cli._BLOCK_ROWS - 1,
                        2 * cli._BLOCK_ROWS, 2 * cli._BLOCK_ROWS + 3]),
       st.integers(0, 2 ** 32 - 1))
def test_column_blocks_equal_json_dumps_of_their_rows(layouts, n, seed):
    """Blocks of two or three row kinds, interleaved by an index array
    over about one or two chunks of rows, are written as ``json.dumps``
    writes the same rows as dicts, and read back as those dicts."""
    rng = np.random.default_rng(seed)
    kinds = rng.integers(len(layouts), size=n)
    counts = np.bincount(kinds, minlength=len(layouts))
    blocks = [{key: _column(kind, count, rng) for key, kind in layout.items()}
              for layout, count in zip(layouts, counts)]
    parts = [iter(_dict_rows(block, count))
             for block, count in zip(blocks, counts)]
    rows = [next(parts[k]) for k in kinds]
    report = {"command": "x", "results": cli._Rows(*blocks, kinds=kinds)}
    assert written(report) == dumped(dict(report, results=rows))
    assert json.dumps(list(report["results"])) == json.dumps(rows)


# --- float columns -----------------------------------------------------------

# two NaN payloads besides the default NaN and its negation, so that a float
# column told apart by its bits holds four NaNs
NANS = np.array([0x7FF8000000000001, 0xFFF8000000000000, 0x7FF0000000000002],
                dtype=np.uint64).view(np.float64).tolist()
EDGES = [0.0, -0.0, float("nan"), *NANS, INF, -INF, 5e-324, -5e-324,
         2.2250738585072e-308, -1e-310, 0.1, -0.1, 2.7755575615628914e-17]


def _float_columns(n, rng):
    """Float columns of n rows: the EDGES in a random order, one value
    throughout (a negative zero and a repeating decimal), n distinct
    values, and vectors of width 1 and 6 with non-finite entries."""
    def vectors(k):
        v = rng.standard_normal((n, k)) * 10.0 ** rng.integers(-20, 20,
                                                                (n, k))
        spots = rng.random((n, k)) < 0.2
        v[spots] = np.array(EDGES)[rng.integers(len(EDGES),
                                                 size=spots.sum())]
        return v
    return {"edges": np.array(EDGES)[rng.integers(len(EDGES), size=n)],
            "zeros": np.full(n, -0.0), "same": np.full(n, 1 / 3),
            "distinct": np.arange(n) / 7 + np.pi,
            "width1": vectors(1), "width6": vectors(6)}


@pytest.mark.parametrize("n", [1, 2, cli._BLOCK_ROWS - 1, cli._BLOCK_ROWS,
                               cli._BLOCK_ROWS + 1, 2 * cli._BLOCK_ROWS + 3])
def test_float_columns_equal_json_dumps(n):
    """Float columns of every value class, over one to three chunks of
    rows, are written as ``json.dumps`` writes their rows as dicts; each
    column writer gives each value's (or row's) ``json.dumps`` text."""
    block = _float_columns(n, np.random.default_rng(n))
    block["item"] = np.arange(n)
    report = {"results": cli._Rows(block)}
    assert written(report) == dumped({"results": _dict_rows(block, n)})
    item = "," + cli._ITEM
    for key, column in block.items():
        if column.ndim == 1:
            want = [json.dumps(v) for v in column.tolist()]
            assert cli._numbers(column) == want, key
        else:
            want = [item.join(map(json.dumps, row)) for row in column.tolist()]
            assert cli._vectors(column) == want, key


def test_float_column_keeps_zero_signs_and_nan_payloads_apart():
    """0.0 and -0.0 are written apart however they interleave, and NaNs of
    any payload or sign are each written as NaN."""
    column = np.array([0.0, -0.0, *NANS, -0.0, float("nan"), 0.0, -INF])
    assert cli._numbers(column) == [
        "0.0", "-0.0", "NaN", "NaN", "NaN", "-0.0", "NaN", "0.0",
        "-Infinity"]
