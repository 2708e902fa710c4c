"""Fast self-check of the benchmark at tiny sizes (about half a minute).

Run from the repository root::

    python3 bench/selfcheck.py

It checks that the generator is deterministic, that the oracles pass the
current program and catch corrupted reports, that the tracer restores
every binding it replaced and counts the same on repeated passes, and
that ``run.py`` prints a well-formed result and well-nested spans, and
refuses to run where there is no ``src/gvcam``.  It also prints whether the traced counts
follow the seed algorithm's formulas, which validates the wrappers; a
later change to the concurrency algorithm is expected to move these.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile
from math import comb

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
sys.path.insert(0, os.path.join(ROOT, "src"))

import oracle  # noqa: E402
import scenes  # noqa: E402
from tracer import Tracer  # noqa: E402

SIZES = {"check-narrow": 30, "check-wide": 10, "project-narrow": 100,
         "reflect-mirror": 30}


def run_cli(argv):
    from gvcam import cli
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def corrupt(command, text):
    """Damage item 0 of a report; the oracle must then fail item 0."""
    report = json.loads(text)
    row = report["results"][0]
    if command == "check":
        row["accepted"] = not row["accepted"]
    elif command == "project":
        row["line"] = [v + 1e-3 for v in row["line"]]
    else:
        row["reflected"] = [v + 1e-3 for v in row["reflected"]]
    return json.dumps(report)


def check_oracles(tmp):
    for name, w in scenes.WORKLOADS.items():
        argv, truth = w.generate(SIZES[name], 7, tmp)
        again, _ = w.generate(SIZES[name], 7, tmp + "/again")
        other, _ = w.generate(SIZES[name], 8, tmp + "/other")
        with open(argv[-1]) as a, open(again[-1]) as b, open(other[-1]) as c:
            first = a.read()
            assert first == b.read(), "%s: generator not deterministic" % name
            assert first != c.read(), "%s: seed has no effect" % name
        code, text = run_cli(argv)
        judge = oracle.JUDGES[w.command]
        assert judge(text, code, truth) == [], "%s: oracle rejects" % name
        assert judge(corrupt(w.command, text), code, truth)[:1] == [0], \
            "%s: oracle missed a corrupted item" % name
        assert len(judge(text, 2, truth)) == SIZES[name], \
            "%s: oracle accepted a wrong exit code" % name
        print("ok  oracle and generator: %s" % name)


def traced_counts(tracer, argv):
    tracer.reset()
    tracer.install()
    try:
        run_cli(argv)
    finally:
        tracer.uninstall()
    m = tracer.metrics()
    return {k: v for k, v in m.items() if k.endswith((".calls", ".count"))}


def check_tracer(tmp):
    import numpy as np
    from gvcam import cameras, cli, multiimage
    before = (cli.main, cli.congruence_residual, multiimage.find_common_point,
              cameras.TwoSlit.project, np.linalg.svd)
    tracer = Tracer()
    wide = scenes.WORKLOADS["check-wide"]
    argv, _ = wide.generate(SIZES["check-wide"], 3, tmp)
    first = traced_counts(tracer, argv)
    assert first == traced_counts(tracer, argv), "traced counts differ"
    after = (cli.main, cli.congruence_residual, multiimage.find_common_point,
             cameras.TwoSlit.project, np.linalg.svd)
    assert all(a is b for a, b in zip(before, after)), "binding not restored"
    print("ok  tracer restores bindings and repeats its counts")
    for name in ("check-narrow", "check-wide"):
        argv, truth = scenes.WORKLOADS[name].generate(SIZES[name], 3, tmp)
        kinds = [item["kind"] for item in truth["items"]]
        n = len(truth["cameras"])
        svd = ((1 + comb(n, 3)) * kinds.count(scenes.OK)
               + kinds.count(scenes.CONCURRENCY))
        got = traced_counts(tracer, argv)["concurrency.svd.count"]
        print("%s seed-algorithm count: %s concurrency.svd.count %d, "
              "(1 + C(%d,3)) x accepted + concurrency-rejected = %d" % (
                  "MATCH " if got == svd else "DIFFER", name, got, n, svd))
    proj = scenes.WORKLOADS["project-narrow"]
    argv, truth = proj.generate(SIZES["project-narrow"], 3, tmp)
    focal = sum(i["focal_camera"] is not None for i in truth["items"])
    cubics = 40 * (len(truth["items"]) - focal) + 10 * focal
    got = traced_counts(tracer, argv)["concurrency.cubics.count"]
    print("%s seed-algorithm count: project-narrow concurrency.cubics.count "
          "%d, 40 x plain + 10 x focal-hit points = %d" % (
              "MATCH " if got == cubics else "DIFFER", got, cubics))


def check_spans(path):
    with open(path) as fh:
        spans = [json.loads(line) for line in fh]
    assert spans and spans[0]["name"] == "cli", "no root span"
    for i, span in enumerate(spans):
        assert span["start"] <= span["end"], span
        assert -1 <= span["parent"] < i, span
        if span["parent"] >= 0:
            outer = spans[span["parent"]]
            assert outer["start"] <= span["start"] <= span["end"] \
                <= outer["end"], (outer, span)
    return len(spans)


def check_runner(tmp):
    run = os.path.join(HERE, "run.py")
    spans = os.path.join(tmp, "spans.jsonl")
    for trace in ("0", "1"):
        out = subprocess.run(
            [sys.executable, run, "--workload", "check-narrow", "--seed", "1",
             "--seconds", "1", "--trace", trace,
             "--spans", spans],
            capture_output=True, text=True, timeout=170, check=True)
        result = json.loads(out.stdout.strip().splitlines()[-1])
        assert sorted(result) == ["attempted", "correct", "failed",
                                  "metrics"], result
        assert result["correct"] and result["failed"] == 0, out.stdout
        print("ok  run.py --trace %s: %d metrics" % (trace,
                                                     len(result["metrics"])))
    print("ok  --spans wrote %d nested spans" % check_spans(spans))
    bare = os.path.join(tmp, "bare")
    shutil.copytree(HERE, os.path.join(bare, "bench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "check-narrow",
         "--seed", "1", "--seconds", "1"], cwd=bare, capture_output=True,
        text=True, timeout=170)
    assert out.returncode != 0 and not out.stdout, "ran without src/gvcam"
    print("ok  run.py refuses to run without src/gvcam")


def main():
    tmp = tempfile.mkdtemp(prefix=".bench-", dir=ROOT)
    try:
        os.makedirs(tmp + "/again")
        os.makedirs(tmp + "/other")
        check_oracles(tmp)
        check_tracer(tmp)
        check_runner(tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print("selfcheck passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
