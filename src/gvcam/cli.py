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
from .errors import (AmbiguousPencil, DegenerateInput, FocalPoint,
                     GeometryError, IllConditioned, UnsupportedOrder)
from .numeric import (DEFAULT_TOL, as_float, format_scalar, is_exact,
                      parse_scalar, unitize, vec, vector_payload)
from .plucker import line_residual, plucker_quadric
from .scene import load_json, load_observations, load_points, load_scene

__all__ = ["main", "build_parser"]


def _default_tol() -> float:
    env = os.environ.get("GVCAM_TOL")
    if env is None:
        return DEFAULT_TOL
    try:
        return float(env)
    except ValueError:
        raise DegenerateInput("GVCAM_TOL must be a float, got %r" % env)


def build_parser() -> argparse.ArgumentParser:
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

def _line_payload(p):
    arr = np.asarray(p)
    if np.iscomplexobj(arr):
        return [format_scalar(complex(x)) for x in arr.tolist()]
    return vector_payload(arr)


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

def cmd_project(args) -> int:
    scene = load_scene(args.scene, exact=args.exact, tol=args.tol)
    points = load_points(args.points, scene, exact=args.exact)
    rows, per_point_lines = [], {}
    for j, x in enumerate(points):
        for i, cam in enumerate(scene.cameras):
            try:
                line = cam.project(x)
            except (FocalPoint, UnsupportedOrder) as exc:
                rows.append({"item": j, "camera": i,
                             "error": type(exc).__name__,
                             "message": str(exc)})
                continue
            if is_exact(line):
                quadric = float(plucker_quadric(line) != 0)
            else:
                quadric = line_residual(unitize(as_float(line)))
            rows.append({
                "item": j, "camera": i, "line": _line_payload(line),
                "quadric_residual": format_scalar(quadric),
                "congruence_residual": format_scalar(
                    congruence_residual(cam, line)),
            })
            per_point_lines.setdefault(j, []).append(line)
    checks = []
    for j in sorted(per_point_lines):
        lines = per_point_lines[j]
        if len(lines) >= 2:
            rep = concurrency.evaluate_generators(lines)
            checks.append({"item": j, "max_generator_residual":
                           format_scalar(rep.max_residual)})
    _emit(_report(args, results=rows, tuple_checks=checks), args)
    return 0


def _named_violation(cams, lines, tol):
    """(generator name, residual) of the worst violated constraint."""
    worst = ("", 0.0)
    for i, (cam, p) in enumerate(zip(cams, lines)):
        r = congruence_residual(cam, p)
        if r > max(worst[1], tol):
            worst = ("congruence[%d]" % i, r)
    if worst[0]:
        return worst
    rep = concurrency.evaluate_generators(lines)
    for name, value in rep.payload().items():
        r = abs(complex(value))
        if r > worst[1]:
            worst = (name, r)
    return worst


def cmd_check(args) -> int:
    scene = load_scene(args.scene, exact=args.exact, tol=args.tol)
    items = load_observations(args.observations, scene, exact=args.exact,
                              tol=args.tol)
    rows, any_rejected = [], False
    for k, lines in enumerate(items):
        point = multiimage.correspond(scene.cameras, lines, tol=args.tol)
        if point is not None:
            rows.append({"item": k, "accepted": True,
                         "point": _line_payload(point), "violated": None})
        else:
            any_rejected = True
            name, residual = _named_violation(scene.cameras, lines, args.tol)
            rows.append({"item": k, "accepted": False, "point": None,
                         "violated": name,
                         "residual": format_scalar(residual)})
    _emit(_report(args, results=rows), args)
    return 1 if any_rejected else 0


def cmd_triangulate(args) -> int:
    scene = load_scene(args.scene, exact=args.exact, tol=args.tol)
    items = load_observations(args.observations, scene, exact=args.exact,
                              tol=args.tol)
    rows = []
    for k, lines in enumerate(items):
        res = multiimage.triangulate(scene.cameras, lines, tol=args.tol)
        rows.append({"item": k, "point": _line_payload(res.point),
                     "residual": format_scalar(res.residual)})
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
        rows.append({"index": i, "line": _line_payload(t.line),
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
    if "tensor" in data:  # accept a full cmd_tensor report
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
    if ("plane" in data) == ("surface" in data):
        raise DegenerateInput(
            "reflect input needs exactly one of 'plane' or 'surface'")
    rows = []
    if "plane" in data:
        H = vec([parse_scalar(v, exact=args.exact) for v in data["plane"]])
        for i, y in enumerate(data.get("points", [])):
            yv = vec([parse_scalar(v, exact=args.exact) for v in y])
            rows.append({"kind": "point", "index": i,
                         "reflected": _line_payload(reflect_point(H, yv))})
        for i, p in enumerate(data.get("lines", [])):
            pv = vec([parse_scalar(v, exact=args.exact) for v in p])
            rows.append({"kind": "line", "index": i,
                         "reflected": _line_payload(reflect_line(H, pv))})
    else:
        surf = MirrorSurface.from_payload(data["surface"], exact=args.exact)
        for i, p in enumerate(data.get("lines", [])):
            pv = vec([parse_scalar(v, exact=False) for v in p])
            contacts = line_surface_points(surf, pv)
            if not contacts:
                rows.append({"kind": "specular", "index": i, "contacts": 0})
                continue
            for x in contacts:
                rows.append({
                    "kind": "specular", "index": i,
                    "contact": _line_payload(x),
                    "tangent": _line_payload(tangent_plane(
                        surf, x, tol=max(args.tol, 1e-6))),
                    "reflected": _line_payload(specular_pair(
                        surf, x, pv, tol=max(args.tol, 1e-6))),
                })
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
