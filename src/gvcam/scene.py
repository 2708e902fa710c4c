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

The camera, tensor and mirror modules are imported where a rig entry, a
matrix or a surface is read, so a command loads only the ones its input
needs.
"""

from __future__ import annotations

import json
from collections import namedtuple
from itertools import chain

import numpy as np

from .errors import DegenerateInput
from .numeric import (DEFAULT_TOL, as_float, negligible,
                      parse_vector, projective_distance, unitize, vec)
from .plucker import plucker_quadric

__all__ = ["Scene", "load_scene", "scene_from_dict", "load_points",
           "load_observations", "load_json", "mirror_lines"]

SCENE_VERSION = 1

#: A given center or slit may differ from its float matrix kernel by this.
MATCH_EPS = 1e-8
#: Floor of the quadric test: a float line read from text is off by rounding.
QUADRIC_FLOOR = 1e-10


def load_json(path):
    """The JSON value of the file ``path``, or of stdin for "-"; text that
    is not UTF-8, too deep or has too long an integer is DegenerateInput."""
    try:
        if path == "-":
            import sys
            return json.load(sys.stdin)
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError:
        raise
    except (RecursionError, ValueError) as exc:    # UnicodeDecodeError too
        raise DegenerateInput("%s is not readable JSON: %s" % (
            "stdin" if path == "-" else path, exc)) from None


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
    """Build (geometric camera, photographic matrices or None); a center
    or slits given with the matrices must match their kernels."""
    from .cameras import Pinhole, TwoSlit, camera_from_payload
    if not isinstance(data, dict):
        raise DegenerateInput("a rig entry must be an object, got %r"
                              % (data,))
    for key in ("slits", "matrices"):
        if key in data and len(_list(data[key], repr(key))) != 2:
            raise DegenerateInput("%r must be a pair" % key)
    kind = data.get("type")
    if kind == "pinhole" and "matrix" in data:
        from .tensors import pinhole_center
        mats = (_parse_matrix(data["matrix"], (3, 4), exact),)
        camera, kernels, length = Pinhole, [pinhole_center(*mats)], 4
        given = [data["center"]] if "center" in data else None
        message = "pinhole center does not match the matrix kernel"
    elif kind == "two_slit" and "matrices" in data:
        from .tensors import twoslit_kernels
        mats = tuple(_parse_matrix(m, (2, 4), exact)
                     for m in data["matrices"])
        camera, kernels, length = TwoSlit, twoslit_kernels(*mats), 6
        given = data.get("slits")
        message = "two-slit slits do not match the matrix kernels"
    else:
        return camera_from_payload(data, exact=exact), None
    if given is not None:
        given = [parse_vector(v, length, exact) for v in given]
        if any(projective_distance(as_float(g), as_float(k)) > MATCH_EPS
               for g, k in zip(given, kernels)):
            raise DegenerateInput(message)
        kernels = given
    return camera(*kernels), mats


#: A loaded scene: ``matrices`` per camera (a tuple of arrays, or None),
#: ``points`` (N, 4) and ``observations`` (N, n, 6), float64 or Fractions
#: if exact, and ``descriptors``, the echo of the input camera payloads.
Scene = namedtuple("Scene", "version cameras matrices points observations "
                   "surfaces descriptors", defaults=((), ()))


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
    points = _points(data.get("points", []), exact)
    observations = _observations(data.get("observations", []), exact, tol)
    surfaces = ()
    if "surfaces" in data:
        from .catadioptric import MirrorSurface
        surfaces = tuple(MirrorSurface.from_payload(s, exact=exact)
                         for s in _list(data["surfaces"], "'surfaces'"))
    return Scene(version=version, cameras=tuple(cams), matrices=tuple(mats),
                 points=points, observations=observations, surfaces=surfaces,
                 descriptors=tuple(desc))


def _vector(values, length, exact, what):
    """:func:`parse_vector`, with ``what`` naming the vector in an error."""
    try:
        return parse_vector(values, length, exact)
    except DegenerateInput as exc:
        raise DegenerateInput("%s: %s" % (what, exc)) from None


def _check_line(lines, tol, what):
    """Raise DegenerateInput unless every line of a stack ((n, 6),
    (N, n, 6), ...) is nonzero and lies on the Pluecker quadric: exactly
    for Fractions, within max(tol, QUADRIC_FLOOR) after unitizing for
    floats.  The message names the first bad line by its indices, zero
    lines first."""
    bad = np.argwhere(~np.any(lines != 0, axis=-1))
    why = "is the zero vector, not a line"
    if not len(bad):
        q = plucker_quadric(unitize(lines))
        bad = np.argwhere(~negligible(q, eps=max(tol, QUADRIC_FLOOR), axis=()))
        why = "is not a line (quadric residual exceeds tolerance)"
    if len(bad):
        raise DegenerateInput("%s%s %s" % (
            what, "".join("[%d]" % i for i in bad[0]), why))


def _number_stack(items, ndim, length):
    """``items`` as one float64 array of ``ndim`` dimensions, the last of
    ``length`` (points (N, 4), observations (N, n, 6)), when it is a
    nonempty rectangular nest of lists whose coordinates are all finite
    plain numbers (int or float, not bool), else None.  The type scan comes
    first: numpy would read true as 1.0, null as NaN and "1.5" as 1.5."""
    if not items or not all(type(item) is list for item in items):
        return None
    try:
        coords = chain.from_iterable(items)
        for _ in range(ndim - 2):
            coords = chain.from_iterable(coords)
        if not set(map(type, coords)) <= {int, float}:
            return None
        L = np.asarray(items, dtype=np.float64)
    except (TypeError, ValueError, OverflowError):
        return None         # a vector that is not a list, ragged, or huge
    if L.ndim != ndim or L.shape[-1] != length or not np.isfinite(L).all():
        return None
    return L


def _stack(values, length, exact, what):
    """The vectors of the list ``values`` (named ``what``) as one
    (N, ``length``) array, of float64 or, under ``exact``, of Fractions.

    In float mode, vectors of plain numbers are read in one pass.  Anything
    else (exact mode, rational strings, any defect) is read vector by
    vector with :func:`parse_vector` into the same array, and a defect is
    named by its index, ``what[k]``.
    """
    items = _list(values, repr(what))
    X = None if exact else _number_stack(items, 2, length)
    if X is None:
        X = np.empty((len(items), length),
                     dtype=object if exact else np.float64)
        for k, x in enumerate(items):
            X[k] = _vector(x, length, exact, "%s[%d]" % (what, k))
    return X


def _points(values, exact):
    """World points as one (N, 4) :func:`_stack`, none of them the zero
    vector."""
    X = _stack(values, 4, exact, "points")
    bad = np.flatnonzero(~np.any(X != 0, axis=1))
    if len(bad):
        raise DegenerateInput("points[%d] is the zero vector, not a point"
                              % bad[0])
    return X


def _observations(values, exact, tol):
    """Observed line tuples as one (N, n, 6) array, of float64 or, under
    ``exact``, of Fractions, each line on the Pluecker quadric.

    In float mode, items of plain numbers are read in one pass; else each
    item is read as a :func:`_stack`, and a defect is named by its indices,
    ``observations[k][i]``.
    """
    items = _list(values, "'observations'")
    L = None if exact else _number_stack(items, 3, 6)
    if L is None:
        n = len(_list(items[0], "observations[0]")) if items else 0
        L = np.empty((len(items), n, 6),
                     dtype=object if exact else np.float64)
        for k, item in enumerate(items):
            if len(_list(item, "observations[%d]" % k)) != n:
                raise DegenerateInput(
                    "observations[%d] has %d lines, observations[0] has %d"
                    % (k, len(item), n))
            L[k] = _stack(item, 6, exact, "observations[%d]" % k)
    _check_line(L, tol, "observations")
    return L


def mirror_lines(values, tol: float = DEFAULT_TOL):
    """The ``lines`` of a surface-mode ``reflect`` input as one (n, 6)
    float64 :func:`_stack`, each on the Pluecker quadric."""
    L = _stack(values, 6, False, "lines")
    _check_line(L, tol, "lines")
    return L


def load_scene(path, exact: bool = False, tol: float = DEFAULT_TOL) -> Scene:
    return scene_from_dict(load_json(path), exact=exact, tol=tol)


def load_points(path, scene: Scene, exact: bool = False):
    """Points from a separate file ({"points": [...]} or a bare list), or
    from the scene itself, as one (N, 4) array (see :class:`Scene`)."""
    if path is None:
        if not len(scene.points):
            raise DegenerateInput("no points: give --points or put a "
                                  "'points' array in the scene")
        return scene.points
    data = load_json(path)
    if isinstance(data, dict):
        data = data.get("points", [])
    return _points(data, exact)


def load_observations(path, scene: Scene, exact: bool = False,
                      tol: float = DEFAULT_TOL):
    """Observed line tuples from a file or from the scene, as one
    (N, n, 6) array (see :class:`Scene`); each item must carry one line
    per camera."""
    if path is None:
        items = scene.observations
    else:
        data = load_json(path)
        if isinstance(data, dict):
            data = data.get("observations", [])
        items = _observations(data, exact, tol)
    if not len(items):
        raise DegenerateInput("empty observation list")
    if items.shape[1] != len(scene.cameras):
        raise DegenerateInput("observations have %d lines per item for %d "
                              "cameras" % (items.shape[1], len(scene.cameras)))
    return items
