"""Command-line interface: scene files in, JSON/CSV reports out.

Every subcommand is a thin adapter over the library; no numerical logic
lives here.  Reports are deterministic for a fixed scene and seed: floats
are emitted at 17 significant digits, keys are sorted, and timing is
omitted unless explicitly requested.

Exit codes: 0 success; 1 a membership/correspondence check rejected;
2 usage, parse, or scene errors; 3 numerical failure (ill-conditioned or
ambiguous input).
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import os
import sys
import time

import numpy as np

from . import concurrency, multiimage, tensors
from .cameras import congruence_residual
from .catadioptric import (MirrorSurface, line_surface_points, reflect_line,
                           reflect_point, specular_pair, tangent_plane)
from .errors import (AmbiguousPencil, DegenerateInput, GeometryError,
                     IllConditioned, UnsupportedOrder)
from .numeric import (DEFAULT_TOL, _scaled_rows, as_float, format_scalar,
                      is_exact, unitize_rows, vector_payload)
from .plucker import line_residual, plucker_quadric
from .scene import (_list, _vector, load_json, load_observations,
                    load_points, load_scene, mirror_lines)

__all__ = ["main", "build_parser"]


def _default_tol() -> float:
    env = os.environ.get("GVCAM_TOL")
    if env is None:
        return DEFAULT_TOL
    try:
        return float(env)
    except ValueError:
        raise DegenerateInput("GVCAM_TOL must be a float, got %r" % env)


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
    rep = {
        "command": args.command,
        "version": 1,
        "tol": args.tol,
        "exact": bool(getattr(args, "exact", False)),
        "seed": args.seed,
        "timing": timing,
    }
    rep.update(extra)
    return rep


def _emit(report, args) -> None:
    if args.format == "csv":
        rows = report.get("results", [])
        keys = []
        for row in rows:
            for k in row:
                if k not in keys:
                    keys.append(k)
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=keys)
        writer.writeheader()
        for row in rows:
            writer.writerow({k: (json.dumps(v, sort_keys=True)
                                 if isinstance(v, (list, dict)) else v)
                             for k, v in row.items()})
        text = buf.getvalue()
    else:
        text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# --------------------------------------------------------------------------
# commands

def _quadric_residuals(lines):
    """Distance from the Pluecker quadric of each row of a stack of lines:
    1.0 or 0.0 for exact rows, the unitized |quadric| for float rows."""
    if is_exact(lines):
        return (plucker_quadric(lines.T) != 0).astype(float)
    return line_residual(unitize_rows(lines))


def cmd_project(args) -> int:
    scene = load_scene(args.scene, exact=args.exact, tol=args.tol)
    points = load_points(args.points, scene, exact=args.exact)
    n, m = len(points), len(scene.cameras)
    # each point's line in each camera where it has one (ok), as floats
    # (exact lines scaled by numeric._scaled_rows) and as given
    floats = np.zeros((n, m, 6))
    fractions = np.zeros((n, m, 6), dtype=object)
    ok = np.zeros((n, m), dtype=bool)
    exact = np.zeros(m, dtype=bool)
    columns = []                        # per camera, its row of each point
    for i, cam in enumerate(scene.cameras):
        try:
            lines, focal = cam.project(points)
        except UnsupportedOrder as exc:
            columns.append([{"item": j, "camera": i,
                             "error": type(exc).__name__,
                             "message": str(exc)} for j in range(n)])
            continue
        hit = np.ones(n, dtype=bool)
        hit[list(focal)] = False
        ok[:, i] = hit
        floats[hit, i] = as_float(_scaled_rows(lines[hit]))
        if is_exact(lines):
            exact[i] = True
            fractions[:, i] = lines
        # the residuals of the camera's lines at once
        quadric = congruence = iter(())
        if hit.any():
            quadric = iter(vector_payload(_quadric_residuals(lines[hit])))
            congruence = iter(vector_payload(
                congruence_residual(cam, lines[hit])))
        column = []
        for j, line in enumerate(vector_payload(lines)):
            if j in focal:
                column.append({"item": j, "camera": i, "error": "FocalPoint",
                               "message": focal[j]})
            else:
                column.append({"item": j, "camera": i, "line": line,
                               "quadric_residual": next(quadric),
                               "congruence_residual": next(congruence)})
        columns.append(column)
    rows = [row for item in zip(*columns) for row in item]
    # the generators of the tuples of each size at once, exact when every
    # line of the tuple is (as concurrency._tuple_stack decides)
    sizes = ok.sum(axis=1)
    exact_tuple = ~np.any(ok & ~exact, axis=1)
    checks = []
    for size in sorted(set(sizes[sizes >= 2].tolist())):
        for is_exact_tuple, source in ((False, floats), (True, fractions)):
            chosen = (sizes == size) & (exact_tuple == is_exact_tuple)
            if not chosen.any():
                continue
            reports = concurrency.evaluate_generators(
                source[chosen][ok[chosen]].reshape(-1, size, 6))
            checks += [{"item": j, "max_generator_residual":
                        format_scalar(rep.max_residual)}
                       for j, rep in zip(np.flatnonzero(chosen).tolist(),
                                         reports)]
    checks.sort(key=lambda row: row["item"])
    _emit(_report(args, results=rows, tuple_checks=checks), args)
    return 0


def cmd_check(args) -> int:
    scene = load_scene(args.scene, exact=args.exact, tol=args.tol)
    items = load_observations(args.observations, scene, exact=args.exact,
                              tol=args.tol)
    points, residuals = multiimage.correspond(scene.cameras, items,
                                              tol=args.tol)
    rejected = [k for k, x in enumerate(points) if x is None]
    # a rejection is named by the first strict maximum of its congruence
    # residuals when that exceeds tol, else by its worst generator
    named = {}
    for k in rejected:
        i = int(np.argmax(residuals[k]))
        if residuals[k][i] > args.tol:
            named[k] = "congruence[%d]" % i, residuals[k][i]
    concurrent = [k for k in rejected if k not in named]
    reports = concurrency.evaluate_generators(items[concurrent])
    named.update(zip(concurrent, (rep.worst() for rep in reports)))
    rows = []
    for k, point in enumerate(points):
        if point is not None:
            rows.append({"item": k, "accepted": True,
                         "point": vector_payload(point), "violated": None})
        else:
            name, residual = named[k]
            rows.append({"item": k, "accepted": False, "point": None,
                         "violated": name,
                         "residual": format_scalar(residual)})
    _emit(_report(args, results=rows), args)
    return 1 if rejected else 0


def cmd_triangulate(args) -> int:
    scene = load_scene(args.scene, exact=args.exact, tol=args.tol)
    items = load_observations(args.observations, scene, exact=args.exact,
                              tol=args.tol)
    res = multiimage.triangulate(scene.cameras, items, tol=args.tol)
    rows = [{"item": k, "point": x, "residual": r} for k, (x, r) in
            enumerate(zip(res.point.tolist(), res.residual.tolist()))]
    _emit(_report(args, results=rows), args)
    return 0


def cmd_baselines(args) -> int:
    scene = load_scene(args.scene, exact=args.exact, tol=args.tol)
    if len(scene.cameras) != 2:
        raise DegenerateInput("baselines needs a rig of exactly 2 cameras")
    found = multiimage.baselines_linear(scene.cameras[0], scene.cameras[1],
                                        tol=args.tol)
    rows = []
    for i, t in enumerate(found):
        rows.append({"index": i, "line": vector_payload(t.line),
                     "is_real": t.is_real, "multiplicity": t.multiplicity})
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
    data = load_json(args.input)
    if not isinstance(data, dict) or ("plane" in data) == ("surface" in data):
        raise DegenerateInput(
            "reflect input needs exactly one of 'plane' or 'surface'")
    rows = []
    if "plane" in data:
        H = _vector(data["plane"], 4, args.exact, "plane")
        for kind, length, reflect in (("point", 4, reflect_point),
                                      ("line", 6, reflect_line)):
            key = kind + "s"
            for i, v in enumerate(_list(data.get(key, []), repr(key))):
                v = _vector(v, length, args.exact, "%s[%d]" % (key, i))
                rows.append({"kind": kind, "index": i,
                             "reflected": vector_payload(reflect(H, v))})
    else:
        surf = MirrorSurface.from_payload(data["surface"], exact=args.exact)
        tol = max(args.tol, 1e-6)
        lines = mirror_lines(data.get("lines", []), tol=tol)
        points, owner = line_surface_points(surf, lines)
        contacts = iter(zip(
            points.tolist(), tangent_plane(surf, points, tol=tol).tolist(),
            specular_pair(surf, points, lines[owner], tol=tol).tolist()))
        counts = np.bincount(owner, minlength=len(lines)).tolist()
        for i, count in enumerate(counts):
            if not count:
                rows.append({"kind": "specular", "index": i, "contacts": 0})
            for _ in range(count):
                x, g, r = next(contacts)
                rows.append({"kind": "specular", "index": i, "contact": x,
                             "tangent": g, "reflected": r})
    _emit(_report(args, results=rows), args)
    return 0


def cmd_multidegree(args) -> int:
    poly = concurrency.multidegree(args.n)
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
        args.tol = args.tol if args.tol is not None else _default_tol()
        args._t0 = time.perf_counter()
        return _COMMANDS[args.command](args)
    except (IllConditioned, AmbiguousPencil) as exc:
        _fail(exc)
        return 3
    except GeometryError as exc:
        _fail(exc)
        return 2
    except (OSError, json.JSONDecodeError, KeyError, TypeError) as exc:
        _fail(exc)
        return 2


def _fail(exc) -> None:
    sys.stderr.write(json.dumps(
        {"error": type(exc).__name__, "message": str(exc)}) + "\n")


if __name__ == "__main__":
    sys.exit(main())
