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
from dataclasses import dataclass, field

import numpy as np

from .cameras import Pinhole, TwoSlit, camera_from_payload
from .catadioptric import MirrorSurface
from .errors import DegenerateInput
from .numeric import (DEFAULT_TOL, as_float, parse_vector,
                      projective_distance, unitize, vec)
from .plucker import line_residual
from .tensors import pinhole_center, twoslit_kernels

__all__ = ["Scene", "load_scene", "scene_from_dict", "load_points",
           "load_observations", "load_json"]

SCENE_VERSION = 1


def load_json(path):
    if path == "-":
        import sys
        return json.load(sys.stdin)
    with open(path) as fh:
        return json.load(fh)


def _parse_matrix(rows, shape, exact):
    m = np.array([parse_vector(r, shape[1], exact) for r in rows])
    if m.shape != shape:
        raise DegenerateInput("expected a %dx%d matrix" % shape)
    return vec(m)


def _camera_with_matrices(data, exact):
    """Build (geometric camera, photographic matrices or None)."""
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
    observations: tuple      # of per-camera line tuples
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
    for entry in data.get("rig", []):
        cam, m = _camera_with_matrices(entry, exact)
        cams.append(cam)
        mats.append(m)
        desc.append(entry)
    points = tuple(parse_vector(p, 4, exact) for p in data.get("points", []))
    observations = tuple(
        tuple(parse_vector(line, 6, exact) for line in item)
        for item in data.get("observations", []))
    for item in observations:
        for line in item:
            _check_line(line, tol)
    surfaces = tuple(MirrorSurface.from_payload(s, exact=exact)
                     for s in data.get("surfaces", []))
    return Scene(version=version, cameras=tuple(cams), matrices=tuple(mats),
                 points=points, observations=observations, surfaces=surfaces,
                 descriptors=tuple(desc))


def _check_line(line, tol):
    from .numeric import is_exact
    if is_exact(line):
        from .plucker import plucker_quadric
        if plucker_quadric(line) != 0:
            raise DegenerateInput("observation is not a line "
                                  "(quadric residual nonzero)")
    elif line_residual(unitize(as_float(line))) > max(tol, 1e-10):
        raise DegenerateInput("observation is not a line "
                              "(quadric residual exceeds tolerance)")


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
    """Observed line tuples from a file or from the scene; each item must
    carry one line per camera."""
    if path is None:
        items = scene.observations
    else:
        data = load_json(path)
        if isinstance(data, dict):
            data = data.get("observations", [])
        items = tuple(tuple(parse_vector(line, 6, exact) for line in item)
                      for item in data)
        for item in items:
            for line in item:
                _check_line(line, tol)
    if not items:
        raise DegenerateInput("empty observation list")
    n = len(scene.cameras)
    for item in items:
        if len(item) != n:
            raise DegenerateInput(
                "observation item has %d lines for %d cameras"
                % (len(item), n))
    return items
