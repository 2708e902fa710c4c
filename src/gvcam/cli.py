"""Command-line interface: scene files in, JSON/CSV reports out.

Every subcommand is a thin adapter over the library; no numerical logic
lives here.  Each command imports the library modules it uses on first
use, inside its own function, so a process loads only what its command
runs: ``import gvcam.cli`` alone loads ``errors`` and ``numeric``.

Reports are deterministic for a fixed scene and seed: floats are written
in their shortest round-trip form (at most 17 significant digits), keys
are sorted, and timing is omitted unless explicitly requested.  A JSON
report has the bytes that ``json.dumps`` writes with ``indent=2`` and
``sort_keys=True``, streamed to its destination a block of rows at a
time.  The commands whose reports grow with their input
(``project``, ``check``, ``triangulate``, ``reflect``) hand their rows
to the writer as column blocks of result arrays (:class:`_Rows`), not as
a dict per row; the other commands write a few dict rows.

Exit codes: 0 success; 1 a membership/correspondence check rejected;
2 usage, parse, or scene errors, and a ``--tol`` or ``GVCAM_TOL`` that is
NaN, negative or infinite; 3 numerical failure (an ambiguous pencil,
``AmbiguousPencil``); 4 a bug; 141 (128 + SIGPIPE) the reader of stdout
closed it before the whole report was written, with no error line.  Any
other exception is a bug: :func:`main` lets it escape, and the ``gvcam``
entry point (:func:`run`) prints its traceback on stderr and exits 4.
"""

from __future__ import annotations

import argparse
import functools
import io
import json
import os
import re
import sys
import time
from json.encoder import encode_basestring_ascii

import numpy as np

from .errors import (AmbiguousPencil, DegenerateInput, GeometryError,
                     UnsupportedOrder)
from .numeric import DEFAULT_TOL, format_scalar, unitize, vector_payload

__all__ = ["main", "run", "build_parser"]

#: Floor of ``reflect``'s surface tolerance: float contacts miss it by ~1e-9.
MIRROR_TOL = 1e-6


def _tolerance(given) -> float:
    """``--tol`` when given, else ``GVCAM_TOL`` when set, else DEFAULT_TOL;
    a NaN, negative or infinite value is refused, naming its source."""
    if given is not None:
        tol, source = given, "--tol"
    else:
        env = os.environ.get("GVCAM_TOL")
        if env is None:
            return DEFAULT_TOL
        try:
            tol, source = float(env), "GVCAM_TOL"
        except ValueError:
            raise DegenerateInput("GVCAM_TOL must be a float, got %r" % env)
    if not 0 <= tol < float("inf"):             # NaN fails both
        raise DegenerateInput("%s must be a finite number >= 0, got %r"
                              % (source, tol))
    return tol


def __getattr__(name):
    # bench/selfcheck.py reads cli.congruence_residual, a name this module
    # held before each command imported its own modules
    if name == "congruence_residual":
        from .cameras import congruence_residual
        return congruence_residual
    raise AttributeError("module %r has no attribute %r" % (__name__, name))


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and then shared by every
    call in the process."""
    top = argparse.ArgumentParser(
        prog="gvcam",
        description="Line-geometry camera toolkit: project points to "
                    "viewing lines, check correspondences, triangulate, "
                    "compute baselines, multifocal tensors, and reflections.")
    sub = top.add_subparsers(dest="command", required=True)

    def common(p, scene=True):
        if scene:
            p.add_argument("--scene", required=True, help="scene JSON path")
        p.add_argument("--tol", type=float, default=None,
                       help="tolerance (default 1e-8, or GVCAM_TOL)")
        p.add_argument("--exact", action="store_true",
                       help="exact rational arithmetic (integer/'a/b' input)")
        p.add_argument("--seed", type=int, default=None,
                       help="seed echoed into the report")
        p.add_argument("--out", default=None, help="output path (default stdout)")
        p.add_argument("--format", choices=("json", "csv"), default="json")
        p.add_argument("--timing", action="store_true",
                       help="include wall-clock timing (non-deterministic)")

    p = sub.add_parser("project", help="project world points to lines")
    p.add_argument("--points", default=None, help="points JSON path")
    common(p)

    p = sub.add_parser("check", help="accept/reject observed line tuples")
    p.add_argument("--observations", default=None)
    common(p)

    p = sub.add_parser("triangulate", help="least-squares point per tuple")
    p.add_argument("--observations", default=None)
    common(p)

    p = sub.add_parser("baselines", help="common lines of a two-camera rig")
    common(p)

    p = sub.add_parser("tensor", help="multifocal tensor of the rig")
    p.add_argument("--kind", required=True,
                   choices=("fundamental", "quadrifocal", "mixed"))
    common(p)

    p = sub.add_parser("invariant", help="degree-6 invariant of a mixed tensor")
    p.add_argument("--tensor", default="-",
                   help="tensor JSON path ('-' for stdin)")
    common(p, scene=False)

    p = sub.add_parser("reflect", help="plane reflections / specular partners")
    p.add_argument("--input", required=True,
                   help="JSON with 'plane' (+ points/lines) or 'surface' (+ lines)")
    common(p, scene=False)

    p = sub.add_parser("multidegree", help="concurrency-variety multidegree")
    p.add_argument("n", type=int)
    common(p, scene=False)
    return top


# --------------------------------------------------------------------------
# report plumbing

def _report(args, **extra):
    timing = None
    if getattr(args, "timing", False) and hasattr(args, "_t0"):
        timing = {"seconds": time.perf_counter() - args._t0}
    return {
        "command": args.command,
        "version": 1,
        "tol": args.tol,
        "exact": bool(getattr(args, "exact", False)),
        "seed": args.seed,
        "timing": timing,
        **extra,
    }


# rows of a top-level list joined into one chunk of a JSON report
_BLOCK_ROWS = 256

# the encoder whose output _json_chunks reproduces; it writes every value
# that has no fast path
_INDENTED = json.JSONEncoder(indent=2, sort_keys=True)

# the newline and indent of a row of a top-level list, of a value in such a
# row, and of an element of such a value
_ROW, _FIELD, _ITEM = "\n    ", "\n      ", "\n        "

# the |floats| that ``repr`` writes with an exponent and ``orjson``
# positionally, from the first (included) to the second (excluded)
_POSITIONAL = (1e-5, 1e-4)


class _Rows:
    """The rows of a report list as column blocks, which
    :func:`_json_chunks` writes without a dict per row.

    A block is one kind of row: a dict from each of its keys to a column,
    which is

    - a float64 array of one value ``(N,)`` or one vector ``(N, k)`` per
      row, or an integer array ``(N,)``;
    - a list of any JSON values, one per row (another array is read as
      its ``tolist()``);
    - any other value, a constant that every row holds.

    ``kinds`` gives the block of each row, in order; the rows of a block
    come in its own order.  A single block needs no ``kinds``.
    """

    def __init__(self, *blocks, kinds=None):
        if kinds is None:
            (block,) = blocks
            kinds = np.zeros(next(len(c) for c in block.values()
                                  if isinstance(c, (list, np.ndarray))),
                             dtype=np.intp)
        self.blocks, self.kinds = blocks, kinds

    def __len__(self):
        return len(self.kinds)

    def __iter__(self):
        """Each row as a dict, in order (for a CSV report)."""
        counts = np.bincount(self.kinds, minlength=len(self.blocks)).tolist()
        rows = []
        for block, count in zip(self.blocks, counts):
            columns = [c.tolist() if isinstance(c, np.ndarray) else
                       c if isinstance(c, list) else [c] * count
                       for c in block.values()]
            rows.append(iter([dict(zip(block, row))
                              for row in zip(*columns)]).__next__)
        return (rows[k]() for k in self.kinds.tolist())


def _emit(report, args) -> None:
    """Write ``report`` to ``--out`` or stdout: as CSV of its results (a
    report without them is refused), or as JSON streamed in chunks by
    :func:`_json_chunks`.

    Every row is computed before this is called, so a JSON report stops
    part-way only on a value that no JSON encoder accepts (a programming
    error, such as a numpy integer), which leaves the output truncated.
    """
    if args.format == "csv":
        if "results" not in report:
            raise DegenerateInput("a %s report has no results rows to write "
                                  "as CSV; use --format json" % args.command)
        rows = list(report["results"])
        import csv
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=list(dict.fromkeys(
            k for row in rows for k in row)))
        writer.writeheader()
        writer.writerows({k: (json.dumps(v, sort_keys=True)
                              if isinstance(v, (list, dict)) else v)
                          for k, v in row.items()} for row in rows)
        chunks = [buf.getvalue()]
    else:
        chunks = _json_chunks(report)
    if args.out:
        with open(args.out, "w") as fh:
            fh.writelines(chunks)
    else:
        sys.stdout.writelines(chunks)
        sys.stdout.flush()          # a closed pipe raises here, not at exit


def _json_chunks(report):
    """The text that ``json.dumps`` writes for a report dict with
    ``indent=2`` and ``sort_keys=True``, and a newline, as a sequence of
    chunks.

    Each list or :class:`_Rows` value of the report is written
    _BLOCK_ROWS rows per chunk; each row of a list is written by
    :func:`_value`.  A block of :class:`_Rows` is filled into one ``%``
    template of its sorted keys, in which its constants are written once.
    The floats and ints of a slice of an array column (its ``ravel()``,
    joined k to a row for a vector column) are written as ``json`` writes
    them by one ``orjson`` call (:func:`_numbers`), respelt as ``repr``
    spells a float; the few values that ``orjson`` writes otherwise (|x|
    in [1e-5, 1e-4), NaN, an infinity) are written one by one.  The values
    of a list column that :func:`_value` cannot write directly go to the
    ``json`` encoder, each alone.
    """
    if not report or not all(type(k) is str for k in report):
        yield _INDENTED.encode(report) + "\n"
        return
    head, comma = "{", ""
    for key in sorted(report):
        value = report[key]
        head += "%s\n  %s: " % (comma, encode_basestring_ascii(key))
        comma = ","
        if type(value) not in (list, _Rows) or not len(value):
            head += "[]" if type(value) is _Rows else _value(value, "\n  ")
            continue
        yield head + "["
        sep = _ROW
        for texts in _row_texts(value):
            yield sep + ("," + _ROW).join(texts)
            sep = "," + _ROW
        head = "\n  ]"
    yield head + "\n}\n"


def _row_texts(rows):
    """The texts of a list or :class:`_Rows` of rows at indent four,
    _BLOCK_ROWS at a time."""
    if type(rows) is list:
        for start in range(0, len(rows), _BLOCK_ROWS):
            yield [_value(row, _ROW)
                   for row in rows[start:start + _BLOCK_ROWS]]
        return
    writers = [_block_writer(block) for block in rows.blocks]
    done = [0] * len(writers)               # rows written of each block
    for start in range(0, len(rows), _BLOCK_ROWS):
        kinds = rows.kinds[start:start + _BLOCK_ROWS]
        counts = np.bincount(kinds, minlength=len(writers)).tolist()
        texts = []
        for b, count in enumerate(counts):
            texts.append(iter(writers[b](done[b], done[b] + count)).__next__)
            done[b] += count
        yield [texts[k]() for k in kinds.tolist()]


def _block_writer(block):
    """The function that writes rows ``start`` to ``stop`` (exclusive) of a
    block (see :class:`_Rows`) as a list of texts."""
    fields, columns = [], []
    for key in sorted(block):
        column = block[key]
        field = ",%s%s: " % (_FIELD,
                             encode_basestring_ascii(key).replace("%", "%%"))
        array = isinstance(column, np.ndarray)
        floats = array and column.dtype == np.float64
        if array and column.ndim == 1 and (floats or
                                           column.dtype.kind in "iu"):
            columns.append((column, _numbers))
            field += "%s"
        elif floats and column.ndim == 2 and column.shape[1]:
            columns.append((column, _numbers))
            field += "[%s%%s%s]" % (_ITEM, _FIELD)
        elif array or type(column) is list:
            columns.append((column.tolist() if array else column, _values))
            field += "%s"
        else:
            field += _value(column, _FIELD).replace("%", "%%")
        fields.append(field)
    template = "{%s%s}" % ("".join(fields)[1:], _ROW)

    def write(start, stop):
        if stop <= start:
            return []
        if not columns:
            return [template % ()] * (stop - start)
        return [template % row for row in zip(
            *[text(column[start:stop]) for column, text in columns])]
    return write


def _numbers(a):
    """The JSON text of each value of a nonempty 1-d float or int array,
    or of each row of a 2-d float array at the indent of an element of a
    row's value: one ``orjson`` text, with ``repr``'s exponents (``1e+16``,
    ``1e-06``), but for the |floats| in _POSITIONAL and the non-finite
    ones (``0.00001234``, ``null``), which :func:`_value` writes."""
    import orjson                       # here, as its import takes ~3 ms
    flat = a.ravel()                    # C-contiguous, as orjson needs
    texts = re.sub(r"e-(\d)(?=[,\]])", r"e-0\1", orjson.dumps(
        flat, option=orjson.OPT_SERIALIZE_NUMPY).decode().replace(
        "e", "e+").replace("e+-", "e-"))[1:-1].split(",")
    b = np.abs(flat)
    odd = np.flatnonzero((b >= _POSITIONAL[0]) & (b < _POSITIONAL[1])
                         | ~np.isfinite(b))
    for k, v in zip(odd.tolist(), flat[odd].tolist()):
        texts[k] = _value(v, "")
    if a.ndim == 1:
        return texts
    return list(map(("," + _ITEM).join, zip(*[iter(texts)] * a.shape[1])))


def _values(values):
    """The JSON text of each value of a list, at the indent of a value in
    a row."""
    return [_value(v, _FIELD) for v in values]


def _value(v, newline):
    """The JSON text of ``v`` at the indent that ``newline`` carries."""
    kind = type(v)
    if kind is float:
        if v - v == 0:                  # finite
            return float.__repr__(v)
    elif kind is int:
        return int.__repr__(v)
    elif kind is str:
        return encode_basestring_ascii(v)
    elif v is None:
        return "null"
    elif kind is bool:
        return "true" if v else "false"
    return _INDENTED.encode(v).replace("\n", newline)


# --------------------------------------------------------------------------
# commands

def cmd_project(args) -> int:
    from .cameras import congruence_residual
    from .concurrency import worst_of_stack
    from .plucker import line_residual
    from .scene import load_points, load_scene
    scene = load_scene(args.scene, exact=args.exact, tol=args.tol)
    points = load_points(args.points, scene, exact=args.exact)
    n, m = len(points), len(scene.cameras)
    # each point's line in each camera where it has one (ok), in the
    # points' number type, with its residuals; else the error that names
    # why it has none
    lines = np.zeros((n, m, 6), dtype=points.dtype)
    quadric, congruence = np.zeros((n, m)), np.zeros((n, m))
    error, message = np.empty((n, m), object), np.empty((n, m), object)
    ok = np.zeros((n, m), dtype=bool)
    for i, cam in enumerate(scene.cameras):
        try:
            found, focal = cam.project(points)
        except UnsupportedOrder as exc:
            error[:, i], message[:, i] = type(exc).__name__, str(exc)
            continue
        # the rows with a line: all as a slice (a view, no mask writes)
        hit = (np.bincount(list(focal), minlength=n) == 0 if focal
               else slice(None))
        L = lines[hit, i] = found[hit]
        ok[hit, i] = True
        if len(L):
            congruence[hit, i] = congruence_residual(cam, L)
        for j, text in focal.items():
            error[j, i], message[j, i] = "FocalPoint", text
    if ok.any():
        quadric[ok] = line_residual(unitize(lines[ok]))
    line = vector_payload(lines[ok]) if args.exact else lines[ok]
    # a row per point and camera, in that order
    (j, i), (fj, fi) = np.nonzero(ok), np.nonzero(~ok)
    rows = _Rows({"item": j, "camera": i, "line": line,
                  "quadric_residual": quadric[ok],
                  "congruence_residual": congruence[ok]},
                 {"item": fj, "camera": fi, "error": error[~ok].tolist(),
                  "message": message[~ok].tolist()},
                 kinds=(~ok).ravel().astype(np.intp))
    # the worst generator of each tuple of two lines or more; a missing line
    # repeats the one before it (or the first): a copy of the tuple's own
    # generators, operands in order, or 0 (a triple with a repeated line)
    checked, top = ok.sum(axis=1) >= 2, np.zeros(0)
    if checked.any():
        have = ok[checked]
        fill = np.maximum.accumulate(np.where(
            have, np.arange(m), np.argmax(have, axis=1)[:, None]), axis=1)
        top = worst_of_stack(np.take_along_axis(
            lines[checked], fill[..., None], axis=1))[1]
    if args.exact:
        top = [format_scalar(t) for t in top.tolist()]
    checks = _Rows({"item": np.flatnonzero(checked),
                    "max_generator_residual": top})
    _emit(_report(args, results=rows, tuple_checks=checks), args)
    return 0


def cmd_check(args) -> int:
    from .concurrency import worst_of_stack
    from .multiimage import correspond
    from .scene import load_observations, load_scene
    scene = load_scene(args.scene, exact=args.exact, tol=args.tol)
    items = load_observations(args.observations, scene, exact=args.exact,
                              tol=args.tol)
    points, residuals = correspond(scene.cameras, items, tol=args.tol)
    kinds = np.array([x is None for x in points], dtype=np.intp)
    rejected = np.flatnonzero(kinds).tolist()
    # a rejection is named by the first strict maximum of its congruence
    # residuals when that exceeds tol, else by its worst generator
    named = {}
    for k in rejected:
        i = int(np.argmax(residuals[k]))
        if residuals[k][i] > args.tol:
            named[k] = "congruence[%d]" % i, residuals[k][i]
    concurrent = [k for k in rejected if k not in named]
    names, tops = worst_of_stack(items[concurrent])
    named.update(zip(concurrent, zip(names, tops.tolist())))
    found = np.array([x for x in points if x is not None]).reshape(-1, 4)
    violations = [named[k] for k in rejected]
    rows = _Rows({"item": np.flatnonzero(kinds == 0), "accepted": True,
                  "point": (found if found.dtype == np.float64
                            else vector_payload(found)),
                  "violated": None},
                 {"item": np.flatnonzero(kinds), "accepted": False,
                  "point": None, "violated": [name for name, _ in violations],
                  "residual": [format_scalar(r) for _, r in violations]},
                 kinds=kinds)
    _emit(_report(args, results=rows), args)
    return 1 if rejected else 0


def cmd_triangulate(args) -> int:
    from .multiimage import triangulate
    from .scene import load_observations, load_scene
    scene = load_scene(args.scene, exact=args.exact, tol=args.tol)
    items = load_observations(args.observations, scene, exact=args.exact,
                              tol=args.tol)
    res = triangulate(scene.cameras, items, tol=args.tol)
    rows = _Rows({"item": np.arange(len(items)), "point": res.point,
                  "residual": res.residual})
    _emit(_report(args, results=rows), args)
    return 0


def cmd_baselines(args) -> int:
    from .multiimage import baselines_linear
    from .scene import load_scene
    scene = load_scene(args.scene, exact=args.exact, tol=args.tol)
    if len(scene.cameras) != 2:
        raise DegenerateInput("baselines needs a rig of exactly 2 cameras")
    found = baselines_linear(scene.cameras[0], scene.cameras[1], tol=args.tol)
    rows = [{"index": i, "line": vector_payload(t.line), "is_real": t.is_real,
             "multiplicity": t.multiplicity} for i, t in enumerate(found)]
    _emit(_report(args, results=rows,
                  count=sum(t.multiplicity for t in found)), args)
    return 0


def _matrices_by_kind(scene, kind, count):
    out = []
    for cam, mats in zip(scene.cameras, scene.matrices):
        if cam.kind == kind and mats is not None:
            out.append(mats)
            if len(out) == count:
                return out
    raise DegenerateInput(
        "rig needs %d %s camera(s) with matrices for this tensor"
        % (count, kind))


def cmd_tensor(args) -> int:
    from . import tensors
    from .scene import load_scene
    scene = load_scene(args.scene, exact=args.exact, tol=args.tol)
    if args.kind == "fundamental":
        (a,), (b,) = _matrices_by_kind(scene, "pinhole", 2)
        T = tensors.fundamental_matrix(a, b)
    elif args.kind == "quadrifocal":
        (a, b), (c, d) = _matrices_by_kind(scene, "two_slit", 2)
        T = tensors.quadrifocal_tensor(a, b, c, d)
    else:
        (a,) = _matrices_by_kind(scene, "pinhole", 1)[0]
        (b, c) = _matrices_by_kind(scene, "two_slit", 1)[0]
        T = tensors.mixed_epipolar_tensor(a, b, c)
    _emit(_report(args, tensor=tensors.tensor_payload(args.kind, T)), args)
    return 0


def cmd_invariant(args) -> int:
    from . import tensors
    from .scene import load_json
    data = load_json(args.tensor)
    if isinstance(data, dict) and "tensor" in data:  # a cmd_tensor report
        data = data["tensor"]
    kind, T = tensors.tensor_from_payload(data, exact=args.exact)
    if kind != "mixed":
        raise DegenerateInput(
            "the degree-6 invariant applies to mixed 3x2x2 tensors")
    value = tensors.sextic_invariant(T)
    rows = [{"kind": kind, "value": format_scalar(value),
             "relative": format_scalar(tensors.sextic_relative(T)),
             "degree": 6}]
    _emit(_report(args, results=rows), args)
    return 0


def cmd_reflect(args) -> int:
    from .catadioptric import (MirrorSurface, line_surface_points,
                               reflect_line, reflect_point, specular_pair,
                               tangent_plane)
    from .scene import _stack, _vector, load_json, mirror_lines
    data = load_json(args.input)
    if not isinstance(data, dict) or ("plane" in data) == ("surface" in data):
        raise DegenerateInput(
            "reflect input needs exactly one of 'plane' or 'surface'")
    if "plane" in data:
        H = _vector(data["plane"], 4, args.exact, "plane")
        blocks = []
        for kind, length, reflect in (("point", 4, reflect_point),
                                      ("line", 6, reflect_line)):
            key = kind + "s"
            V = _stack(data.get(key, []), length, args.exact, key)
            if len(V):      # an isotropic plane that reflects nothing is fine
                V = reflect(H, V)
            blocks.append({"kind": kind, "index": np.arange(len(V)),
                           "reflected": vector_payload(V) if args.exact else V})
        rows = _Rows(*blocks, kinds=np.repeat(
            [0, 1], [len(b["index"]) for b in blocks]))
    else:
        surf = MirrorSurface.from_payload(data["surface"], exact=args.exact)
        tol = max(args.tol, MIRROR_TOL)
        lines = mirror_lines(data.get("lines", []), tol=tol)
        points, owner = line_surface_points(surf, lines)
        # a row per contact (points come in the order of their lines), or
        # one for a line that meets no contact
        counts = np.bincount(owner, minlength=len(lines))
        rows = _Rows({"kind": "specular",
                      "index": np.flatnonzero(counts == 0), "contacts": 0},
                     {"kind": "specular", "index": owner, "contact": points,
                      "tangent": tangent_plane(surf, points, tol=tol),
                      "reflected": specular_pair(surf, points, lines[owner],
                                                 tol=tol)},
                     kinds=np.repeat(counts > 0,
                                     np.maximum(counts, 1)).astype(np.intp))
    _emit(_report(args, results=rows), args)
    return 0


def cmd_multidegree(args) -> int:
    from .concurrency import multidegree
    poly = multidegree(args.n)
    rows = [{"n": args.n, "terms": poly.term_strings(),
             "coefficient_sum": poly.coefficient_sum,
             "term_count": len(poly.terms)}]
    _emit(_report(args, results=rows), args)
    return 0


_COMMANDS = {
    "project": cmd_project,
    "check": cmd_check,
    "triangulate": cmd_triangulate,
    "baselines": cmd_baselines,
    "tensor": cmd_tensor,
    "invariant": cmd_invariant,
    "reflect": cmd_reflect,
    "multidegree": cmd_multidegree,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        args.tol = _tolerance(args.tol)
        args._t0 = time.perf_counter()
        return _COMMANDS[args.command](args)
    except AmbiguousPencil as exc:
        _fail(exc)
        return 3
    except GeometryError as exc:
        _fail(exc)
        return 2
    except BrokenPipeError:
        # the reader closed stdout: no error line, and the flush at exit
        # goes to devnull (the SIGPIPE note of the Python docs)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except (OSError, json.JSONDecodeError) as exc:
        _fail(exc)
        return 2


def _fail(exc) -> None:
    sys.stderr.write(json.dumps(
        {"error": type(exc).__name__, "message": str(exc)}) + "\n")


def run(argv=None) -> int:
    """The ``gvcam`` program: :func:`main`, with an exception that escapes
    it (a bug) printed as a traceback and exit code 4, so that a crash is
    not read as a rejected check (exit 1)."""
    try:
        return main(argv)
    except Exception:
        import traceback
        traceback.print_exc()
        return 4


if __name__ == "__main__":
    sys.exit(run())
