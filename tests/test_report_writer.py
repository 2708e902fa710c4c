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
