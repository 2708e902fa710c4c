"""Output oracles: judge every item of a gvcam report against the
generator's ground truth, using only the benchmark's own geometry.

Each ``judge_*`` function takes the report text, the exit code and the
truth record and returns the sorted ids of the items that fail.  A report
that does not parse, or an unexpected exit code, fails every item.
"""

from __future__ import annotations

import json

import numpy as np

import geom
from scenes import CONCURRENCY, CONGRUENCE, OK

# Tolerances fixed in advance: TOL is gvcam's default decision tolerance,
# POINT_TOL the projective distance allowed between a reported and a true
# point (both are well-conditioned by the generator's construction).
TOL = 1e-8
POINT_TOL = 1e-6


def _vector(v):
    return np.array(v, dtype=float)


def _report(text):
    """(result rows, whole report), or (None, None) if it does not parse."""
    try:
        report = json.loads(text)
        return report["results"], report
    except (ValueError, KeyError, TypeError):
        return None, None


def judge_check(text, code, truth):
    items = truth["items"]
    rows, _ = _report(text)
    expected_code = int(any(t["kind"] != OK for t in items))
    if rows is None or code != expected_code or len(rows) != len(items):
        return list(range(len(items)))
    failed = []
    for k, (row, t) in enumerate(zip(rows, items)):
        ok = row.get("item") == k and row.get("accepted") == (t["kind"] == OK)
        if ok and t["kind"] == OK:
            ok = (row.get("violated") is None and
                  geom.proj_distance(_vector(row["point"]), t["point"])
                  <= POINT_TOL)
        elif ok and t["kind"] == CONGRUENCE:
            ok = row.get("violated") == "congruence[%d]" % t["camera"]
        elif ok and t["kind"] == CONCURRENCY:
            ok = str(row.get("violated")).startswith(("quadric[", "cubic["))
        if not ok:
            failed.append(k)
    return failed


def judge_project(text, code, truth):
    items, cams = truth["items"], truth["cameras"]
    rows, report = _report(text)
    if rows is None or code != 0 or len(rows) != len(items) * len(cams):
        return list(range(len(items)))
    checks = {c["item"]: c["max_generator_residual"]
              for c in report.get("tuple_checks", [])}
    failed = []
    for k, t in enumerate(items):
        x = t["point"]
        ok = len(cams) - (t["focal_camera"] is not None) < 2 or (
            k in checks and checks[k] <= TOL)
        for i, cam in enumerate(cams):
            row = rows[k * len(cams) + i]
            if row.get("item") != k or row.get("camera") != i:
                ok = False
            elif i == t["focal_camera"]:
                ok = ok and row.get("error") == "FocalPoint"
            elif "line" not in row:
                ok = False
            else:
                line = _vector(row["line"])
                ok = (ok and geom.point_line_residual(x, line) <= TOL
                      and geom.proj_distance(line, geom.image(cam, x))
                      <= POINT_TOL
                      and row["quadric_residual"] <= TOL
                      and row["congruence_residual"] <= TOL)
        if not ok:
            failed.append(k)
    return failed


def _contact_ok(row, Q, a, b, expected):
    x = _vector(row["contact"])
    xu = geom.unit(x)
    plane = _vector(row["tangent"])
    refl = _vector(row["reflected"])
    q = a if geom.proj_distance(a, x) > geom.proj_distance(b, x) else b
    return (abs(xu @ Q @ xu) <= TOL
            and geom.point_line_residual(x, geom.join(a, b)) <= TOL
            and min(geom.proj_distance(x, e) for e in expected) <= POINT_TOL
            and geom.proj_distance(plane, Q @ x) <= POINT_TOL
            and geom.point_line_residual(x, refl) <= TOL
            and geom.point_line_residual(geom.reflect_across(plane, q), refl)
            <= TOL)


def judge_reflect(text, code, truth):
    items, Q = truth["items"], truth["Q"]
    rows, _ = _report(text)
    if rows is None or code != 0:
        return list(range(len(items)))
    by_index = {}
    for row in rows:
        by_index.setdefault(row.get("index"), []).append(row)
    failed = []
    for k, t in enumerate(items):
        got = by_index.get(k, [])
        expected = t["contacts"]
        if not expected:
            ok = len(got) == 1 and got[0].get("contacts") == 0
        else:
            ok = (len(got) == len(expected)
                  and all("contact" in r and _contact_ok(r, Q, *t["points"],
                                                         expected)
                          for r in got))
            if ok:
                pts = [_vector(r["contact"]) for r in got]
                ok = geom.proj_distance(pts[0], pts[1]) > POINT_TOL
        if not ok:
            failed.append(k)
    return failed


JUDGES = {"check": judge_check, "project": judge_project,
          "reflect": judge_reflect}
