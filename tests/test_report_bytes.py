"""Report bytes of small fixed scenes, pinned by their sha256: a change
that alters any byte of these reports (a rounded digit, a key, the order
of rows) fails here.

The hashes were recorded with the float path of numpy 2.4 and its bundled
OpenBLAS on x86-64.  A LAPACK that rounds the SVD points of ``check`` and
``triangulate`` differently changes their hashes too; record them again
there, from a commit whose reports are known to be right.
"""

import hashlib
import json

import pytest

from gvcam import cli

# pinhole (0:0:0:1), pinhole (1:0:0:1), two-slit e0 v e1 / e2 v e3
RIG = [{"type": "pinhole", "center": [0, 0, 0, 1]},
       {"type": "pinhole", "center": [1, 0, 0, 1]},
       {"type": "two_slit", "slits": [[1, 0, 0, 0, 0, 0],
                                      [0, 0, 0, 0, 0, 1]]}]

OBSERVATIONS = [
    # the images of (1:2:3:1): accepted
    [[0, 0, -1, 0, -2, -3], [2, 3, 0, 0, -2, -3], [0, -3, -1, -6, -2, 0]],
    # camera 1 sees a line that misses its centre: congruence[1]
    [[0, 0, -1, 0, -2, -3], [1, 3, 1, 6, 1, -3], [0, -3, -1, -6, -2, 0]],
    # camera 0 sees (2:-1:1:1), the others (3:1:-2:2): a concurrency
    # rejection
    [[0, 0, -2, 0, 1, -1], [1, -2, -1, 0, -1, 2], [0, 6, -6, 2, -2, 0]],
    # the images of (2:-1:1:1): accepted
    [[0, 0, -2, 0, 1, -1], [-1, 1, -1, 0, 1, -1], [0, -2, -2, 1, 1, 0]],
]

# RIG with a third pinhole at (0:0:1:1)
RIG4 = RIG + [{"type": "pinhole", "center": [0, 0, 1, 1]}]

WIDE_OBSERVATIONS = [
    # cameras 0 and 2 see the line e1 v e3, cameras 1 and 3 the line
    # joining their centres, skew to it: every cubic vanishes, and four
    # equal quadrics name quadric[0][1]
    [[0, 0, 0, 0, -1, 0], [0, 1, 1, 0, 0, -1], [0, 0, 0, 0, -1, 0],
     [0, 1, 1, 0, 0, -1]],
    # camera 0 sees (1:2:3:1), the others (3:1:-2:2): named by a cubic of
    # the triple (0, 2, 3)
    [[0, 0, -1, 0, -2, -3], [1, -2, -1, 0, -1, 2], [0, -6, 6, -2, 2, 0],
     [0, -3, -3, -1, -1, 4]],
    # camera 3 sees (2:-1:1:1), the others (3:1:-2:2): named by a cubic of
    # the triple (1, 2, 3) in float mode, (0, 2, 3) under --exact
    [[0, 0, -3, 0, -1, 2], [1, -2, -1, 0, -1, 2], [0, -6, 6, -2, 2, 0],
     [0, -2, -2, 1, 1, 0]],
    # the images of (2:-1:1:1): accepted
    [[0, 0, -2, 0, 1, -1], [-1, 1, -1, 0, 1, -1], [0, 2, 2, -1, -1, 0],
     [0, -2, -2, 1, 1, 0]],
]

# pinhole (1:1:1:1), two-slit e0 v e1 / e2 v e3, pushbroom on the line
# through (1:0:2:0) and (1:1:2:0), twisted cubic moved by an integer
# homography, and an order-two camera (an UnsupportedOrder row per point)
FOCAL_RIG = [{"type": "pinhole", "center": [1, 1, 1, 1]},
             RIG[2],
             {"type": "pushbroom", "slit": [1, 0, 0, -2, 0, 0]},
             {"type": "twisted_cubic",
              "homography": [[1, 0, 0, 0], [1, 1, 0, 0], [0, 0, 1, 0],
                             [0, 0, 1, 1]]},
             {"type": "panoramic_nc"}]

# a plain point, then one focal point per kind: the pinhole centre, a point
# of the slit e0 v e1, a point of the pushbroom slit, the curve point of
# (s:t) = (1:2)
FOCAL_POINTS = {"points": [[1, 2, 3, 1], [1, 1, 1, 1], [2, 1, 0, 0],
                           [2, 1, 4, 0], [1, 3, 4, 12]]}

EXACT_OBSERVATIONS = [
    # the images of (1:2:3:1), camera 0's at half scale: accepted
    [[0, 0, "-1/2", 0, -1, "-3/2"], [2, 3, 0, 0, -2, -3],
     [0, -3, -1, -6, -2, 0]],
    OBSERVATIONS[2],
]

SCENES = {
    "check": {"version": 1, "rig": RIG, "observations": OBSERVATIONS},
    # the second point is camera 0's centre: a FocalPoint row
    "project": {"version": 1, "rig": RIG,
                "points": [[1, 2, 3, 1], [0, 0, 0, 1], [2, -1, 1, 1]]},
    "check_exact": {"version": 1, "rig": RIG,
                    "observations": EXACT_OBSERVATIONS},
    "check_wide": {"version": 1, "rig": RIG4,
                   "observations": WIDE_OBSERVATIONS},
    # camera 1's centre: tuples of three lines and one of two
    "project_sizes": {"version": 1, "rig": RIG,
                      "points": [[1, 2, 3, 1], [1, 0, 0, 1], [2, -1, 1, 1]]},
    "project_focal": {"version": 1, "rig": FOCAL_RIG},
    # rational strings, rounded to floats or read exactly
    "project_rational": {"version": 1, "rig": RIG,
                         "points": [["1/2", 1, "3/4", 1], [1, "1/3", 2, 1],
                                    ["-7/5", 2, 1, "1/9"]]},
    # the unit sphere; two lines through its centre, one that misses it
    "reflect": {"surface": {"degree": 2, "coeffs": {"2000": -1, "0200": 1,
                                                   "0020": 1, "0002": 1}},
                "lines": [[1, 0, 0, 0, 0, 0], [1, 2, 2, 0, 0, 0],
                          [0, 0, 0, 0, 0, 1]]},
}

# separate --points files of a scene
POINTS = {"project_focal": FOCAL_POINTS}

# name: (argv before the input path, scene, exit code, sha256 of stdout)
REPORTS = {
    "check": (["check", "--scene"], "check", 1,
              "d27e54dec5985a6f16552b0a3659a2ce"
              "af800c314bed2eb641392287fcb63e5a"),
    "triangulate": (["triangulate", "--scene"], "check", 0,
                    "5092b891c41411cee76fac787c8bc919"
                    "1a40ebb5632efbd02300b95fc05e7bb4"),
    "project": (["project", "--scene"], "project", 0,
                "24a28b6cbf9388c2770f1d7ad9772218"
                "d3959f6ff768aa151f5ffabd348b19ee"),
    "check_exact": (["check", "--exact", "--scene"], "check_exact", 1,
                    "a7cf9a0fe47165a2c715e2488bbb9299"
                    "917c259665ac7bd0e95fc9149a610044"),
    "check_wide": (["check", "--scene"], "check_wide", 1,
                   "28e9ac49f5bdff5ab5f59fd0ae1f7132"
                   "01bc97c684a032df7f1b1305875fb158"),
    "check_wide_exact": (["check", "--exact", "--scene"], "check_wide", 1,
                         "65843be4e697b48347efae989139c83d"
                         "b8d2f712ef30cbbae30638d68ad54cac"),
    "project_sizes": (["project", "--scene"], "project_sizes", 0,
                      "072aa4daf5c6a9f3b795232051dd6777"
                      "5ea612c5493821af996c79c73af1fb69"),
    "project_sizes_exact": (["project", "--exact", "--scene"],
                            "project_sizes", 0,
                            "0707b2952cf0b99b276e7a95d7b52c21"
                            "8f301cab64cf14d81e80f3908b1b81fc"),
    "project_focal": (["project", "--scene"], "project_focal", 0,
                      "8d563efa663c8f1717b3fd923d9e5ad0"
                      "51eee5e5d3158efdf58c904271497195"),
    "project_focal_exact": (["project", "--exact", "--scene"],
                            "project_focal", 0,
                            "29495afac6ef033bb3072a7c9d1b98c1"
                            "78dab61e005a5703d405a2eace6adda6"),
    "project_rational": (["project", "--scene"], "project_rational", 0,
                         "c25c0fbc8456aaf05d24917184f03e62"
                         "a3f8dfdc76140f199dad63d91075de23"),
    "project_rational_exact": (["project", "--exact", "--scene"],
                               "project_rational", 0,
                               "78080fe3d94b4b3afe6a26400487ea23"
                               "290f7babe730b828b02833eef4011bd4"),
    "reflect": (["reflect", "--input"], "reflect", 0,
                "236c7b7f7bbdc864d7d30d8a9c5da20c"
                "ba00458003c16574ed3dd8e387e88263"),
}


@pytest.mark.parametrize("name", sorted(REPORTS))
def test_report_bytes_are_pinned(name, capsys, tmp_path, monkeypatch):
    monkeypatch.delenv("GVCAM_TOL", raising=False)
    argv, scene, code, digest = REPORTS[name]
    path = tmp_path / (scene + ".json")
    path.write_text(json.dumps(SCENES[scene]))
    argv = argv + [str(path), "--seed", "5"]
    if scene in POINTS:
        points = tmp_path / (scene + "_points.json")
        points.write_text(json.dumps(POINTS[scene]))
        argv += ["--points", str(points)]
    assert cli.main(argv) == code
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest, out
