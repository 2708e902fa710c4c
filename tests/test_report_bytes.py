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
from fractions import Fraction

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
    # the degree-1 surface x3 = 0; a line crossing it, and one lying in it
    "reflect_degree1": {"surface": {"degree": 1, "coeffs": {"0001": 1}},
                        "lines": [[1, 0, -2, 0, -1, 0],
                                  [1, 0, 0, 0, 0, 0]]},
    # a mirror plane with points and lines
    "reflect_plane": {"plane": [1, 2, 0, 1],
                      "points": [[1, 0, 0, 0], [1, 2, 3, 1]],
                      "lines": [[0, 0, 1, 0, 0, 0], [1, 0, 0, 0, 0, 0]]},
    # two two-slit cameras with two real common lines
    "baselines": {"version": 1, "rig": [
        RIG[2], {"type": "two_slit", "slits": [[1, 1, 0, 2, -1, -1],
                                               [1, -2, -6, -1, -3, 0]]}]},
    # two pinholes and two two-slits given by their matrices
    "tensor": {"version": 1, "rig": [
        {"type": "pinhole", "matrix": [[1, 0, 0, 0], [0, 1, 0, 0],
                                       [0, 0, 1, 0]]},
        {"type": "pinhole", "matrix": [[1, 0, 0, 0], [0, 1, 0, 0],
                                       [0, 0, 0, 1]]},
        {"type": "two_slit", "matrices": [[[1, 0, 0, 0], [0, 1, 0, 0]],
                                          [[0, 0, 1, 0], [0, 0, 0, 1]]]},
        {"type": "two_slit", "matrices": [[[1, 0, 1, 0], [0, 1, 0, 1]],
                                          [[1, 1, 0, 0], [0, 0, 1, -1]]]}]},
    # a mixed 3x2x2 tensor payload
    "invariant": {"kind": "mixed",
                  "entries": [[[1, 2], [3, 4]], [[0, 1], [1, 0]],
                              [[2, -1], [0, "1/3"]]]},
}

# separate --points files of a scene
POINTS = {"project_focal": FOCAL_POINTS}

# name: (argv before the input path, scene (None: no input path), exit
# code, sha256 of stdout)
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
                            "cd4416f2223bf12db46e71e548abe7f0"
                            "c220882a3ef902e96156804e65c90853"),
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
    "reflect_degree1": (["reflect", "--input"], "reflect_degree1", 0,
                        "8a86f1e98c00aba431ad213f8d0d9c4b"
                        "c05d28f539e4c057521342509ebcbda1"),
    "reflect_plane": (["reflect", "--input"], "reflect_plane", 0,
                      "252c28dd6b2a59d8442fa1c3a42e9f9a"
                      "c8e20056666b12fbd314104676d680c3"),
    "reflect_plane_exact": (["reflect", "--exact", "--input"],
                            "reflect_plane", 0,
                            "51d2b559ed68c261fdd38edccbd776bb"
                            "305e53de8933e09f2b00784ae3df981c"),
    "baselines": (["baselines", "--scene"], "baselines", 0,
                  "5bb1749676a4ca4373401a0395ba6991"
                  "d634a8bd1e8718dca23abfb0a1c22934"),
    "tensor_fundamental": (["tensor", "--kind", "fundamental", "--scene"],
                           "tensor", 0,
                           "f49be7c3a842528237752f7a3d61e2a4"
                           "d3cc08fd371cb345dfe17bbab5886f0d"),
    "tensor_quadrifocal": (["tensor", "--kind", "quadrifocal", "--scene"],
                           "tensor", 0,
                           "7ecf693f28470b906d11d767be3a3561"
                           "339ba8341d1aed45e66d91ee568fd673"),
    "tensor_mixed": (["tensor", "--kind", "mixed", "--scene"], "tensor", 0,
                     "68be46e749635a908f92b26a31f0439b"
                     "515f3715e217ce5f3ec19e6396fa788c"),
    "tensor_mixed_exact": (["tensor", "--kind", "mixed", "--exact",
                            "--scene"], "tensor", 0,
                           "b98a0e2c3ba2b2debbbbcb3ac3ab10bf"
                           "ecc0f68fae94680e01c8e01cabeef0b9"),
    "invariant": (["invariant", "--tensor"], "invariant", 0,
                  "978c8b6237d2949a7f5597b92c4801e0"
                  "643c9afbe9f2e419fe87e99eb24a6d05"),
    "invariant_exact": (["invariant", "--exact", "--tensor"], "invariant",
                        0,
                        "098498d21cfb50c28908cdb8b51ea93e"
                        "065d537f4f5bb22a6c657253e9d0889c"),
    "multidegree": (["multidegree", "3"], None, 0,
                    "58d7ebe672da76937b2d482f2d771188"
                    "fc3aedaff5e68a2f283d5c6b66d6c300"),
    "project_csv": (["project", "--format", "csv", "--scene"], "project", 0,
                    "8ef5ace24bfd1ddc8276174ea8b4b778"
                    "a7fcedc0d8d8b4f6541c033ca612f35e"),
}


@pytest.mark.parametrize("name", sorted(REPORTS))
def test_report_bytes_are_pinned(name, capsys, tmp_path, monkeypatch):
    monkeypatch.delenv("GVCAM_TOL", raising=False)
    argv, scene, code, digest = REPORTS[name]
    if scene is not None:
        path = tmp_path / (scene + ".json")
        path.write_text(json.dumps(SCENES[scene]))
        argv = argv + [str(path)]
    argv = argv + ["--seed", "5"]
    if scene in POINTS:
        points = tmp_path / (scene + "_points.json")
        points.write_text(json.dumps(POINTS[scene]))
        argv += ["--points", str(points)]
    assert cli.main(argv) == code
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest, out


def test_project_focal_exact_report_equals_the_float_one(capsys, tmp_path):
    """On the integer project_focal scene, --exact gives the rows of the
    float report: the same errors, and each exact line equal to the float
    line once rounded (every inverse of the scene is exact in floats); each
    of its tuple checks is exactly 0."""
    scene, points = tmp_path / "scene.json", tmp_path / "points.json"
    scene.write_text(json.dumps(SCENES["project_focal"]))
    points.write_text(json.dumps(POINTS["project_focal"]))
    reports = []
    for flags in ([], ["--exact"]):
        assert cli.main(["project", "--scene", str(scene), "--points",
                         str(points)] + flags) == 0
        reports.append(json.loads(capsys.readouterr().out))
    floats, exact = reports
    keys = ("item", "camera", "error", "message")
    assert ([{k: r[k] for k in keys if k in r} for r in exact["results"]]
            == [{k: r[k] for k in keys if k in r}
                for r in floats["results"]])
    assert ([[float(Fraction(v)) for v in r["line"]]
             for r in exact["results"] if "line" in r]
            == [r["line"] for r in floats["results"] if "line" in r])
    assert ([c["item"] for c in exact["tuple_checks"]]
            == [c["item"] for c in floats["tuple_checks"]])
    assert all(c["max_generator_residual"] == 0.0
               for c in exact["tuple_checks"])
