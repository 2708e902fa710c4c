"""Seeded scene generator for the benchmark workloads.

Every input is a function of the seed alone: the same seed gives the same
files, byte for byte.  The generator builds its cameras and observed lines
with :mod:`geom`, never with gvcam, and keeps the ground truth (world
points, planted defects, expected contacts) for the oracle.

Camera placement keeps every focal locus well away from the world points,
which are drawn from the box [-1, 1]^3:

* pinhole centres lie at distance 4 to 6 from the origin;
* every slit passes at distance 3 to 5 from the origin;
* a twisted cubic is the standard curve (u, u^2 + c, u^3), c in [4, 5],
  rotated about the origin, so every point of it is at distance >= 4.

A rig holds at most one pushbroom camera: all pushbroom second slits lie
in the plane at infinity and meet pairwise, which makes two pushbrooms a
focal overlap.

Coordinates are written as Python floats in their shortest round-trip
form (at most 17 significant digits), so gvcam reads back exactly the
values the ground truth holds.
"""

from __future__ import annotations

import json
import os

import numpy as np

import geom

CONGRUENCE, CONCURRENCY, OK = "congruence", "concurrency", "ok"

# The mirror of the README example: x1^2/16 + x2^2/16 + x3^2/25 = x0^2,
# with coefficients kept as rational strings (the documented input form).
ELLIPSOID = {"degree": 2,
             "coeffs": {"2000": "-1", "0200": "1/16", "0020": "1/16",
                        "0002": "1/25"}}
ELLIPSOID_AXES = np.array([4.0, 4.0, 5.0])

NARROW_RIG = ("pinhole", "two_slit", "pushbroom", "twisted_cubic")
WIDE_RIG = ("pushbroom",) + ("pinhole", "two_slit", "twisted_cubic") * 5


def _direction(rng):
    return geom.unit(rng.standard_normal(3))


def _far_point(rng, lo, hi):
    return np.r_[1.0, _direction(rng) * rng.uniform(lo, hi)]


def _box_point(rng):
    return np.r_[1.0, rng.uniform(-1.0, 1.0, 3)]


def _far_slit(rng):
    """Two points of a line passing at distance 3..5 from the origin."""
    a = _far_point(rng, 3.0, 5.0)
    d = rng.standard_normal(3)
    d -= (d @ a[1:]) / (a[1:] @ a[1:]) * a[1:]      # orthogonal to a
    return a, np.r_[1.0, a[1:] + geom.unit(d)]


def _rotation(rng):
    q, r = np.linalg.qr(rng.standard_normal((3, 3)))
    q = q * np.sign(np.diag(r))
    return q if np.linalg.det(q) > 0 else -q


def make_camera(kind, rng):
    """(truth record, gvcam descriptor) for one camera."""
    if kind == "pinhole":
        c = _far_point(rng, 4.0, 6.0)
        return {"type": kind, "center": c}, {"type": kind,
                                              "center": c.tolist()}
    if kind == "two_slit":
        slits = (_far_slit(rng), _far_slit(rng))
        return ({"type": kind, "slit_points": slits},
                {"type": kind, "slits": [geom.join(*s).tolist()
                                         for s in slits]})
    if kind == "pushbroom":
        a, b = _far_slit(rng)
        return ({"type": kind, "slit_points": geom.pushbroom_slits(a, b)},
                {"type": kind, "slit": geom.join(a, b).tolist()})
    if kind == "twisted_cubic":
        R = _rotation(rng)
        H = np.eye(4)
        H[1:, 1:] = R
        H[1:, 0] = R @ np.array([0.0, rng.uniform(4.0, 5.0), 0.0])
        return ({"type": kind, "H": H},
                {"type": kind, "homography": H.tolist()})
    raise ValueError(kind)


def focal_point(cam, rng):
    """A point on the camera's focal locus."""
    if cam["type"] == "pinhole":
        return cam["center"].copy()
    if cam["type"] in ("two_slit", "pushbroom"):
        a, b = cam["slit_points"][0]       # the finite slit
        t = rng.uniform(-1.0, 1.0)
        return a / a[0] * (1 - t) + b / b[0] * t
    p = geom.cubic_point(cam["H"], rng.uniform(-1.0, 1.0))
    return p / p[0]


def _random_line(rng):
    return geom.join(np.r_[1.0, rng.uniform(-3, 3, 3)],
                     np.r_[1.0, rng.uniform(-3, 3, 3)])


def _plant(rng, n, fractions):
    """Exactly round(f * n) items of each planted kind, at seeded
    positions; the rest are OK."""
    kinds = [OK] * n
    order = rng.permutation(n)
    start = 0
    for kind, f in fractions:
        count = int(round(f * n))
        for k in order[start:start + count]:
            kinds[k] = kind
        start += count
    return kinds


def check_workload(rig_kinds, n, seed):
    """Scene for ``gvcam check``: n observed tuples, ~10 % with one line
    outside its congruence, ~10 % with one line imaging another point."""
    rng = np.random.default_rng(seed)
    cams = [make_camera(k, rng) for k in rig_kinds]
    kinds = _plant(rng, n, ((CONGRUENCE, 0.1), (CONCURRENCY, 0.1)))
    truth, observations = [], []
    for kind in kinds:
        x = _box_point(rng)
        lines = [geom.image(c, x) for c, _ in cams]
        j = int(rng.integers(len(cams)))
        if kind == CONGRUENCE:
            lines[j] = _random_line(rng)
        elif kind == CONCURRENCY:
            lines[j] = geom.image(cams[j][0], _box_point(rng))
        truth.append({"kind": kind, "point": x,
                      "camera": None if kind == OK else j})
        observations.append([p.tolist() for p in lines])
    scene = {"version": 1, "rig": [d for _, d in cams],
             "observations": observations}
    return scene, {"cameras": [c for c, _ in cams], "items": truth}


def project_workload(rig_kinds, n, seed):
    """Scene for ``gvcam project``: n world points, ~1 % of them planted on
    one camera's focal locus."""
    rng = np.random.default_rng(seed)
    cams = [make_camera(k, rng) for k in rig_kinds]
    n_focal = max(1, int(round(0.01 * n)))
    focal = dict.fromkeys(rng.choice(n, size=n_focal, replace=False).tolist())
    truth, points = [], []
    for k in range(n):
        if k in focal:
            i = int(rng.integers(len(cams)))
            x = focal_point(cams[i][0], rng)
        else:
            i, x = None, _box_point(rng)
        truth.append({"point": x, "focal_camera": i})
        points.append(x.tolist())
    scene = {"version": 1, "rig": [d for _, d in cams], "points": points}
    return scene, {"cameras": [c for c, _ in cams], "items": truth}


def reflect_workload(n, seed):
    """Input for ``gvcam reflect`` on the ellipsoid mirror: ~80 % of the
    lines pass through an interior point (exactly two contacts), the rest
    join two far points and may miss.  Far lines closer to tangency than
    1e-3 (relative discriminant) are redrawn, because whether they touch
    is not decidable at double precision."""
    rng = np.random.default_rng(seed)
    Q = geom.quadric_matrix(ELLIPSOID["coeffs"])
    truth, lines = [], []
    n_interior = int(round(0.8 * n))
    interior = dict.fromkeys(rng.permutation(n)[:n_interior].tolist())
    for k in range(n):
        while True:
            if k in interior:
                a = np.r_[1.0, _direction(rng) * ELLIPSOID_AXES
                          * rng.uniform(0.0, 0.8)]
                b = np.r_[1.0, rng.uniform(-8, 8, 3)]
            else:
                a, b = _far_point(rng, 6.0, 9.0), _far_point(rng, 6.0, 9.0)
            contacts, disc = geom.line_quadric_points(Q, a, b)
            if k in interior or abs(disc) > 1e-3:
                break
        truth.append({"points": (a, b), "contacts": contacts,
                      "interior": k in interior})
        lines.append(geom.join(a, b).tolist())
    return {"surface": ELLIPSOID, "lines": lines}, {"Q": Q, "items": truth}


class Workload:
    """One benchmark workload: the gvcam command, its generated input, and
    the ground truth the oracle checks the report against."""

    def __init__(self, name, command, flag, build):
        self.name, self.command, self.flag = name, command, flag
        self.build = build

    def generate(self, n, seed, directory):
        """Write the input file; returns (argv for gvcam, truth)."""
        data, truth = self.build(n, seed)
        path = os.path.join(directory, "%s-%d.json" % (self.name, seed))
        with open(path, "w") as fh:
            json.dump(data, fh)
        return [self.command, self.flag, path], truth


WORKLOADS = {
    "check-narrow": Workload(
        "check-narrow", "check", "--scene",
        lambda n, seed: check_workload(NARROW_RIG, n, seed)),
    "check-wide": Workload(
        "check-wide", "check", "--scene",
        lambda n, seed: check_workload(WIDE_RIG, n, seed)),
    "project-narrow": Workload(
        "project-narrow", "project", "--scene",
        lambda n, seed: project_workload(NARROW_RIG, n, seed)),
    "reflect-mirror": Workload(
        "reflect-mirror", "reflect", "--input", reflect_workload),
}
