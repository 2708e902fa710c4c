"""gvcam benchmark: seeded scenes through the ``gvcam`` CLI, checked item by
item against the generator's ground truth.

Run from the repository root::

    python3 bench/run.py --workload check-narrow --seed 1 --seconds 40 --trace 0

``--trace 0`` measures the end-to-end metrics with no tracing: set-up time
of a fresh interpreter, wall time of a fresh ``python -m gvcam.cli``
process, its peak resident set, and the throughput of warm in-process
``gvcam.cli.main`` calls.  ``--trace 1`` instead alternates untraced and
traced in-process calls and reports the per-layer metrics of
:mod:`tracer`.  Human-readable lines come first; the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.

Load is a closed loop of one client: one process runs one subprocess or
one call at a time.  Subprocesses get ``PYTHONPATH=src`` because the
package need not be installed.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import numpy as np

import oracle
import scenes

# Items per workload, sized so that one warm call takes 0.1-0.2 s on a
# 2-CPU Xeon.  check-wide cannot be smaller than 10 tuples (one of each
# rejection kind) and its calls take ~0.4 s; it is kept for runs by hand
# but left out of BENCHMARK.json because it was not steady (see below).
ITEMS = {"check-narrow": 150, "check-wide": 10, "project-narrow": 100,
         "reflect-mirror": 120}

# name, unit, and how one run's samples become the reported value.  The
# shared 2-CPU machine this was tuned on switches between two speed
# states (about 1 : 1.8) lasting from under a second to over 30 s, so the
# median of a run lands on whichever state dominated it: over ten seeds
# the quartile spread of run medians was 0.26 to 0.37 of their median
# for wall_s and items_per_s.  The fastest sample of a run (least
# interference) is steadier, the more so the shorter the samples, so
# timings of the program report it, with short warm calls and three of
# them per round; the median, a tail percentile and the sample count are
# printed beside it.  Set-up time reports the median.
END_TO_END = (("setup_s", "s", statistics.median),
              ("wall_s", "s", min),
              ("items_per_s", "items/s", max),
              ("peak_rss_mb", "MiB", statistics.median))
WARM_PER_ROUND = 3
MIN_SAMPLES = 3
SETUP_CODE = ("import time, gvcam.cli, sys; "
              "sys.stdout.write(repr(time.perf_counter()))")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(ITEMS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True,
                   help="measuring time of the run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--spans", default=None,
                   help="with --trace 1: write the last traced pass's spans "
                        "to this file as JSON lines")
    return p.parse_args(argv)


# --- statistics -------------------------------------------------------------

def tail(values):
    """(label, value) of the highest of p50/p75/p90/p95/p99 with at least
    ten samples above it, or None when there are fewer than 20 samples."""
    n = len(values)
    best = None
    for p in (50, 75, 90, 95, 99):
        if n * (100 - p) / 100 >= 10:
            best = ("p%d" % p, float(np.percentile(values, p)))
    return best


def summary_line(name, unit, estimator, values):
    t = tail(values)
    tail_text = "%s=%.6g" % t if t else "no tail percentile (n<20)"
    return "%-14s %-8s %-7s %-12.6g median=%-10.6g %s n=%d" % (
        name, unit, estimator.__name__, estimator(values),
        statistics.median(values), tail_text, len(values))


# --- run facts ----------------------------------------------------------------

def git_commit(root):
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(root))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def run_facts(root, args, n_items):
    return {"commit": git_commit(root), "python": platform.python_version(),
            "numpy": np.__version__, "nproc": os.cpu_count(),
            "cpu": cpu_model(), "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "items": n_items,
            "items_per_workload": ITEMS}


# --- one call of the program ----------------------------------------------------

class Program:
    """The gvcam CLI on one generated input, run in a fresh process or
    in-process, with every output compared to the first one."""

    def __init__(self, root, argv, tmp):
        self.argv = argv
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        self.out = os.path.join(tmp, "report.out")
        self.err = os.path.join(tmp, "report.err")
        from gvcam import cli
        self.cli = cli
        self.reference = None       # (exit code, report text)
        self.mismatches = []        # descriptions of passes that differed

    def _compare(self, how, code, text, stderr=""):
        """True when this pass reproduced the reference report exactly."""
        if self.reference is None:
            self.reference = (code, text)
        same = (code, text) == self.reference and not stderr
        if not same:
            self.mismatches.append("%s: exit %s, sha256 %s, stderr %r" % (
                how, code, digest(text), stderr[-300:]))
        return same

    def warm(self):
        """Seconds for one in-process ``cli.main`` call (load, compute,
        emit) and whether it reproduced the reference report."""
        buf = io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(buf):
            code = self.cli.main(self.argv)
        elapsed = time.perf_counter() - t0
        return elapsed, self._compare("in-process", code, buf.getvalue())

    def fresh(self):
        """(wall seconds, peak RSS in MiB, reproduced?) of one
        ``python -m gvcam.cli`` process."""
        with open(self.out, "w") as out, open(self.err, "w") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, "-m", "gvcam.cli"] + self.argv,
                stdout=out, stderr=err, stdin=subprocess.DEVNULL,
                env=self.env)
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        with open(self.out) as fh:
            text = fh.read()
        with open(self.err) as fh:
            stderr = fh.read()
        same = self._compare("fresh process", proc.returncode, text, stderr)
        return wall, usage.ru_maxrss / 1024.0, same

    def setup(self):
        """Seconds from spawning an interpreter to ``import gvcam.cli``
        finishing (perf_counter is the system-wide monotonic clock)."""
        t0 = time.perf_counter()
        out = subprocess.run([sys.executable, "-c", SETUP_CODE], env=self.env,
                             capture_output=True, text=True, timeout=120,
                             check=True)
        return float(out.stdout) - t0


def digest(text):
    return hashlib.sha256(text.encode()).hexdigest()


# --- the two kinds of run ---------------------------------------------------------

def timed_run(program, seconds, n_items):
    """Rounds of one set-up probe, one fresh process and WARM_PER_ROUND warm
    calls until the time is up; returns (samples by metric, passes,
    reproduced passes)."""
    samples = {name: [] for name, _, _ in END_TO_END}
    passes = same = 0
    deadline = time.perf_counter() + seconds
    while (time.perf_counter() < deadline
           or len(samples["wall_s"]) < MIN_SAMPLES):
        samples["setup_s"].append(program.setup())
        wall, rss, ok = program.fresh()
        samples["wall_s"].append(wall)
        samples["peak_rss_mb"].append(rss)
        passes += 1
        same += ok
        for _ in range(WARM_PER_ROUND):
            elapsed, ok = program.warm()
            samples["items_per_s"].append(n_items / elapsed)
            passes += 1
            same += ok
    return samples, passes, same


def traced_run(program, seconds, spans_path):
    """Alternate untraced and traced in-process calls; returns (metric
    values, per-pass samples, passes, reproduced passes, traced passes
    whose counts differed from the first)."""
    from tracer import Tracer
    tracer = Tracer()
    samples, untraced, traced = {}, [], []
    counts, count_mismatch = None, 0
    passes = same = 0
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or len(traced) < MIN_SAMPLES:
        elapsed, ok = program.warm()
        untraced.append(elapsed)
        tracer.reset()
        tracer.install()
        try:
            elapsed, ok2 = program.warm()
        finally:
            tracer.uninstall()
        traced.append(elapsed)
        passes += 2
        same += ok + ok2
        metrics = tracer.metrics()
        pass_counts = {k: v for k, v in metrics.items()
                       if k.endswith((".calls", ".count", "_parsed"))}
        if counts is None:
            counts = pass_counts
        elif pass_counts != counts:
            count_mismatch += 1
        for k, v in metrics.items():
            samples.setdefault(k, []).append(v)
    if spans_path:
        with open(spans_path, "w") as fh:
            for name, start, end, parent in tracer.spans():
                fh.write(json.dumps({"name": name, "start": start,
                                     "end": end, "parent": parent}) + "\n")
    durations = np.concatenate(
        samples.pop("multiimage.correspond.durations_us"))
    values = {k: float(statistics.median(v)) for k, v in samples.items()}
    values.update(counts)
    for p in (50, 99):
        values["multiimage.correspond.p%d_us" % p] = (
            float(np.percentile(durations, p)) if len(durations) else 0.0)
    values["trace.overhead_ratio"] = (statistics.median(traced)
                                      / statistics.median(untraced))
    samples["trace.overhead_ratio"] = [t / u for t, u in zip(traced,
                                                             untraced)]
    return values, samples, passes, same, count_mismatch


# --- main ---------------------------------------------------------------------------

def main(argv=None):
    args = parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "gvcam", "cli.py")):
        sys.stderr.write("bench/run.py: src/gvcam/cli.py not found; run from "
                         "the root of a gvcam checkout\n")
        return 2
    sys.path.insert(0, os.path.join(root, "src"))
    workload = scenes.WORKLOADS[args.workload]
    n_items = ITEMS[args.workload]
    tmp = tempfile.mkdtemp(prefix=".bench-", dir=root)
    try:
        argv_cli, truth = workload.generate(n_items, args.seed, tmp)
        program = Program(root, argv_cli, tmp)
        program.warm()              # fills caches; sets the reference report
        code, text = program.reference
        failed_ids = oracle.JUDGES[workload.command](text, code, truth)
        if args.trace:
            values, samples, passes, same, count_mismatch = traced_run(
                program, args.seconds, args.spans)
        else:
            samples, passes, same = timed_run(program, args.seconds, n_items)
            values = {name: float(estimator(samples[name]))
                      for name, _, estimator in END_TO_END}
            count_mismatch = 0
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    passes += 1                     # the reference call
    same += 1 - count_mismatch      # a pass with other counts fails whole
    attempted = n_items * passes
    failed = len(failed_ids) * same + n_items * (passes - same)
    facts = run_facts(root, args, n_items)
    facts["report_sha256"] = digest(text)
    facts["exit_code"] = code
    facts["passes"] = passes
    facts["samples"] = {k: len(v) for k, v in samples.items()}
    print("facts " + json.dumps(facts, sort_keys=True))
    if args.trace:
        from tracer import METRICS
        units = dict(METRICS)
        for name, unit in METRICS:
            print("%-38s %-6s %.10g" % (name, unit, values[name]))
        if count_mismatch:
            print("NONDETERMINISTIC counts in %d traced passes"
                  % count_mismatch)
        metrics = {name: {"value": values[name], "unit": units[name]}
                   for name, _ in METRICS}
    else:
        for name, unit, estimator in END_TO_END:
            print(summary_line(name, unit, estimator, samples[name]))
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit, _ in END_TO_END}
    print("%-14s %-8s %.6g (%d of %d items)" % (
        "failed_frac", "ratio", failed / attempted, failed, attempted))
    print("failing items: %s" % (failed_ids or "none"))
    for line in program.mismatches:
        print("report differed from the first pass: " + line)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
