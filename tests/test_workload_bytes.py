"""Report bytes of the benchmark workloads, pinned by their sha256.

The scenes of ``tests/test_report_bytes.py`` hold a few tuples each; the
workloads of ``BENCHMARK.json`` send 100-tuple stacks through the
chunked array passes.  Each is generated at seeds 1 and 2 by
``bench/scenes.py`` with the item count of ``bench/run.py``, which are
only read here.
``triangulate`` is ``gvcam triangulate`` on the check-narrow scene, whose
``residual`` is a float column of all-distinct values.

The hashes were recorded with the float path of numpy 2.4 and its bundled
OpenBLAS on x86-64 (see ``tests/test_report_bytes.py``).
"""

import hashlib
import pathlib
import runpy

import pytest

from gvcam import cli

BENCH = pathlib.Path(__file__).resolve().parents[1] / "bench"

# (workload or triangulate, seed): (exit code, sha256 of stdout)
WORKLOADS = {
    ("check-narrow", 1): (1, "08c27805bc21a3364a7a938f40d73562"
                             "270ee3918b57ca41863ac22841843b8f"),
    ("project-narrow", 1): (0, "9700daead1141409319d004ccd8ceb07"
                               "9c256cdc28b8ebcb44ba8f99da69b216"),
    ("reflect-mirror", 1): (0, "38c742ecced2e243c43ec0bbe955d9bf"
                               "840cd776f1005e139181eea3e0678ddd"),
    ("triangulate", 1): (0, "fe1701bb58c9940fefe86a6d5edddec5"
                            "638be8f774afa59a427549821faac577"),
    ("check-narrow", 2): (1, "c5e3dfcea090bbadffe83f49fcc51531"
                             "747687ddd803b339a42482d840df9f06"),
    ("project-narrow", 2): (0, "4ddb2bfbf9fe4eeda8ba7e411a9e1965"
                               "d828753030ae0a8a84846fef80250492"),
    ("reflect-mirror", 2): (0, "18b4d8a667eb8a16307d0bc617e3157f"
                               "b77f5d9e121e1b1af73e68df5303ec8b"),
    ("triangulate", 2): (0, "147618257a7f981752270b82c1021894"
                            "758a4f3eb0d177519fa013465a487a7f"),
}


@pytest.mark.parametrize("name, seed", sorted(WORKLOADS), ids=[
    name if seed == 1 else "%s-seed%d" % (name, seed)
    for name, seed in sorted(WORKLOADS)])
def test_workload_report_bytes_are_pinned(name, seed, capsys, tmp_path,
                                          monkeypatch):
    monkeypatch.delenv("GVCAM_TOL", raising=False)
    monkeypatch.syspath_prepend(str(BENCH))     # scenes imports geom
    scenes = runpy.run_path(str(BENCH / "scenes.py"))
    items = runpy.run_path(str(BENCH / "run.py"))["ITEMS"]
    workload = "check-narrow" if name == "triangulate" else name
    argv, _ = scenes["WORKLOADS"][workload].generate(items[workload], seed,
                                                     str(tmp_path))
    if name == "triangulate":
        argv[0] = "triangulate"
    code, digest = WORKLOADS[name, seed]
    assert cli.main(argv) == code
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest
