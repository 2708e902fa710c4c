"""The streamed JSON report writer of the CLI against ``json.dumps``: the
text must be ``json.dumps(report, indent=2, sort_keys=True) + "\\n"``,
byte for byte, whatever the report holds."""

import json
from fractions import Fraction

import numpy as np
from hypothesis import given, settings, strategies as st

from gvcam import cli


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


def test_out_file_and_stdout_get_the_same_bytes(capsys, tmp_path):
    """``--out`` and stdout receive the same text, which re-encodes to
    itself, for a report of more than two blocks of rows."""
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
    argv = ["project", "--scene", str(scene)]
    assert cli.main(argv) == 0
    out = capsys.readouterr().out
    target = tmp_path / "report.json"
    assert cli.main(argv + ["--out", str(target)]) == 0
    assert capsys.readouterr().out == ""
    assert target.read_bytes() == out.encode()
    report = json.loads(out)
    assert len(report["results"]) > 2 * cli._BLOCK_ROWS
    assert dumped(report) == out
