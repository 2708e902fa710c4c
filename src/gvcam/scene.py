"""Scene files: JSON descriptions of camera rigs, world points, observed
lines, and mirror surfaces, with validation at load time.

Layout::

    {
      "version": 1,
      "rig": [ {camera descriptor}, ... ],
      "points": [ [x0, x1, x2, x3], ... ],          # optional
      "observations": [ [ [6 numbers], ... ], ... ],  # optional, per item
      "surfaces": [ {"degree": d, "coeffs": {...}}, ... ]  # optional
    }

Camera descriptors are the payloads produced by the camera classes;
pinhole and two-slit cameras may instead (or additionally) carry
photographic matrices (``"matrix"``: 3x4, ``"matrices"``: pair of 2x4),
from which the geometric data is derived and cross-checked.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .cameras import Pinhole, TwoSlit, camera_from_payload
from .catadioptric import MirrorSurface
from .errors import DegenerateInput
from .numeric import (DEFAULT_TOL, as_float, negligible, negligible_each,
                      parse_vector, projective_distance, unitize,
                      unitize_rows, vec)
from .plucker import plucker_quadric
from .tensors import pinhole_center, twoslit_kernels

__all__ = ["Scene", "load_scene", "scene_from_dict", "load_points",
           "load_observations", "load_json", "mirror_lines"]

SCENE_VERSION = 1


def load_json(path):
    if path == "-":
        import sys
        return json.load(sys.stdin)
    with open(path) as fh:
        return json.load(fh)


def _list(value, what):
    if not isinstance(value, list):
        raise DegenerateInput("%s must be a list, got %r" % (what, value))
    return value


def _parse_matrix(rows, shape, exact):
    m = np.array([parse_vector(r, shape[1], exact)
                  for r in _list(rows, "a matrix")])
    if m.shape != shape:
        raise DegenerateInput("expected a %dx%d matrix" % shape)
    return vec(m)


def _camera_with_matrices(data, exact):
    """Build (geometric camera, photographic matrices or None)."""
    if not isinstance(data, dict):
        raise DegenerateInput("a rig entry must be an object, got %r"
                              % (data,))
    for key in ("slits", "matrices"):
        if key in data and len(_list(data[key], repr(key))) != 2:
            raise DegenerateInput("%r must be a pair" % key)
    kind = data.get("type")
    if kind == "pinhole" and "matrix" in data:
        A = _parse_matrix(data["matrix"], (3, 4), exact)
        center = pinhole_center(A)
        if "center" in data:
            given = parse_vector(data["center"], 4, exact)
            if projective_distance(as_float(given), as_float(center)) > 1e-8:
                raise DegenerateInput(
                    "pinhole center does not match the matrix kernel")
            center = given
        return Pinhole(center), (A,)
    if kind == "two_slit" and "matrices" in data:
        A, B = (_parse_matrix(m, (2, 4), exact) for m in data["matrices"])
        k1, k2 = twoslit_kernels(A, B)
        if "slits" in data:
            s1 = parse_vector(data["slits"][0], 6, exact)
            s2 = parse_vector(data["slits"][1], 6, exact)
            if (projective_distance(as_float(s1), as_float(k1)) > 1e-8 or
                    projective_distance(as_float(s2), as_float(k2)) > 1e-8):
                raise DegenerateInput(
                    "two-slit slits do not match the matrix kernels")
            k1, k2 = s1, s2
        return TwoSlit(k1, k2), (A, B)
    return camera_from_payload(data, exact=exact), None


@dataclass(frozen=True)
class Scene:
    version: int
    cameras: tuple
    matrices: tuple          # per camera: tuple of arrays, or None
    points: tuple            # of 4-vectors
    observations: object     # (N, n, 6) float64 array, or tuple of tuples
    surfaces: tuple = ()
    descriptors: tuple = ()  # echo of the input camera payloads


def scene_from_dict(data, exact: bool = False,
                    tol: float = DEFAULT_TOL) -> Scene:
    if not isinstance(data, dict):
        raise DegenerateInput("scene must be a JSON object")
    version = data.get("version", SCENE_VERSION)
    if version != SCENE_VERSION:
        raise DegenerateInput("unsupported scene version %r" % (version,))
    cams, mats, desc = [], [], []
    for entry in _list(data.get("rig", []), "'rig'"):
        cam, m = _camera_with_matrices(entry, exact)
        cams.append(cam)
        mats.append(m)
        desc.append(entry)
    points = tuple(parse_vector(p, 4, exact)
                   for p in _list(data.get("points", []), "'points'"))
    observations = _observations(data.get("observations", []), exact, tol)
    surfaces = tuple(MirrorSurface.from_payload(s, exact=exact)
                     for s in _list(data.get("surfaces", []), "'surfaces'"))
    return Scene(version=version, cameras=tuple(cams), matrices=tuple(mats),
                 points=points, observations=observations, surfaces=surfaces,
                 descriptors=tuple(desc))


def _check_line(line, tol, what):
    """Raise DegenerateInput unless ``line`` lies on the Pluecker quadric,
    within max(tol, 1e-10) after unitizing.  The lines of a float stack
    ((n, 6), (N, n, 6), ...) are checked at once, and the message names
    the first bad one by its indices."""
    eps = max(tol, 1e-10)
    if line.ndim > 1:
        q = plucker_quadric(np.moveaxis(unitize_rows(line), -1, 0))
        bad = np.argwhere(~negligible_each(q, eps=eps))
        if not len(bad):
            return
        what += "".join("[%d]" % i for i in bad[0])
    elif negligible(plucker_quadric(unitize(line)), eps=eps):
        return
    raise DegenerateInput("%s is not a line "
                          "(quadric residual exceeds tolerance)" % what)


def _number_stack(items):
    """``items`` as one (N, n, 6) float64 array when it is a nonempty list
    of equally long lists of 6-vectors whose coordinates are all finite
    plain numbers (int or float, not bool), else None.  The type scan comes
    first: numpy would read true as 1.0, null as NaN and "1.5" as 1.5."""
    if not items or not all(type(item) is list for item in items):
        return None
    try:
        types = set(map(type, chain.from_iterable(chain.from_iterable(items))))
        if not types <= {int, float}:
            return None
        L = np.asarray(items, dtype=np.float64)
    except (TypeError, ValueError, OverflowError):
        return None         # a line that is not a list, ragged, or huge
    if L.ndim != 3 or L.shape[2] != 6 or not np.isfinite(L).all():
        return None
    return L


def _observations(values, exact, tol):
    """Observed line tuples, each line on the Pluecker quadric.

    In float mode, items of plain numbers become one (N, n, 6) float64
    array.  Anything else (exact mode, rational strings, ragged items, any
    defect) is read line by line with :func:`parse_vector` into a tuple of
    tuples, and a defect is named by its indices, ``observations[k][i]``.
    """
    items = _list(values, "'observations'")
    L = None if exact else _number_stack(items)
    if L is not None:
        _check_line(L, tol, "observations")
        return L
    out = []
    for k, item in enumerate(items):
        lines = []
        for i, line in enumerate(_list(item, "observations[%d]" % k)):
            what = "observations[%d][%d]" % (k, i)
            try:
                lines.append(parse_vector(line, 6, exact))
            except DegenerateInput as exc:
                raise DegenerateInput("%s: %s" % (what, exc)) from None
            _check_line(lines[-1], tol, what)
        out.append(tuple(lines))
    return tuple(out)


def mirror_lines(values, tol: float = DEFAULT_TOL):
    """The ``lines`` of a surface-mode ``reflect`` input as one (n, 6)
    float64 stack, each a finite nonzero vector on the Pluecker quadric.
    Each row is read by :func:`parse_vector`, and a defect names the index
    of its line."""
    rows = []
    for i, row in enumerate(_list(values, "'lines'")):
        try:
            rows.append(as_float(parse_vector(row, 6)))
        except DegenerateInput as exc:
            raise DegenerateInput("lines[%d]: %s" % (i, exc)) from None
    L = np.array(rows, dtype=np.float64).reshape(-1, 6)
    bad = np.flatnonzero(~np.all(np.isfinite(L), axis=1))
    if bad.size:
        raise DegenerateInput("lines[%d]: coordinates must be finite"
                              % bad[0])
    _check_line(L, tol, "lines")
    return L


def load_scene(path, exact: bool = False, tol: float = DEFAULT_TOL) -> Scene:
    return scene_from_dict(load_json(path), exact=exact, tol=tol)


def load_points(path, scene: Scene, exact: bool = False):
    """Points from a separate file ({"points": [...]} or a bare list), or
    from the scene itself."""
    if path is None:
        if not scene.points:
            raise DegenerateInput("no points: give --points or put a "
                                  "'points' array in the scene")
        return scene.points
    data = load_json(path)
    if isinstance(data, dict):
        data = data.get("points", [])
    return tuple(parse_vector(p, 4, exact) for p in data)


def load_observations(path, scene: Scene, exact: bool = False,
                      tol: float = DEFAULT_TOL):
    """Observed line tuples from a file or from the scene, as the scene
    holds them (an (N, n, 6) float64 array, or a tuple of tuples); each
    item must carry one line per camera."""
    if path is None:
        items = scene.observations
    else:
        data = load_json(path)
        if isinstance(data, dict):
            data = data.get("observations", [])
        items = _observations(data, exact, tol)
    if not len(items):
        raise DegenerateInput("empty observation list")
    n = len(scene.cameras)
    for k, item in enumerate(items):
        if len(item) != n:
            raise DegenerateInput(
                "observations[%d] has %d lines for %d cameras"
                % (k, len(item), n))
    return items
