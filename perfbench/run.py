#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark (see perfbench/NOTES.md).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the root of a source checkout. The first call configures and
builds perfbench/ (which compiles the toolchain library from src/) in
Release mode under $CARGO_TARGET_DIR, or .bench_build when that is unset;
later calls rebuild only what changed. The build log goes to stderr.
The xbench program then runs in a scratch directory under the build
directory, which is removed afterwards. Its standard output is passed
through, except that its last line, the result, gets each metric's unit
from BENCHMARK.json, the one list of metric names and units. Traced runs
also leave their spans in <build dir>/spans/<workload>-seed<N>.jsonl.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("compile_gen", "table1_func", "table1_cycle", "serve_sweep")
RUN_TIMEOUT_S = 170


def fail(msg):
    print("run.py: " + msg, file=sys.stderr)
    sys.exit(2)


def build_root():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no toolchain sources at %s/src; run from a source checkout" % ROOT)
    bdir = os.path.join(build_root(), "xbench")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", bdir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", bdir, "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(cmd))
    return os.path.join(bdir, "xbench")


def run_xbench(binary, args):
    """Runs xbench in a fresh scratch directory; returns (code, stdout)."""
    work = os.path.join(build_root(), "work-%d" % os.getpid())
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        proc = subprocess.run([binary] + args, cwd=work, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return proc.returncode, proc.stdout


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def with_units(raw, trace, spec):
    """Turns xbench's {"metrics": {name: value}} into the result line, with
    units from BENCHMARK.json. Per-layer metrics the workload does not
    measure read 0. Raises ValueError on a missing or unknown name."""
    listed = spec["per_layer" if trace else "end_to_end"]
    got = dict(raw["metrics"])
    metrics = {}
    for m in listed:
        if m["name"] not in got and not trace:
            raise ValueError("xbench did not report " + m["name"])
        metrics[m["name"]] = {"value": got.pop(m["name"], 0.0),
                              "unit": m["unit"]}
    if got:
        raise ValueError("metrics not in BENCHMARK.json: " + ", ".join(got))
    return dict(raw, metrics=metrics)


def bench(opts):
    spec = load_spec()
    binary = build()
    args = ["--workload", opts.workload, "--seed", str(opts.seed),
            "--seconds", str(opts.seconds), "--trace", str(opts.trace)]
    if opts.trace:
        spans = os.path.join(build_root(), "spans")
        os.makedirs(spans, exist_ok=True)
        args += ["--spans", os.path.join(
            spans, "%s-seed%d.jsonl" % (opts.workload, opts.seed))]
    code, out = run_xbench(binary, args)
    lines = out.strip().splitlines()
    if code or not lines:
        sys.stdout.write(out)
        fail("xbench failed with exit code %d" % code)
    try:
        result = with_units(json.loads(lines[-1]), opts.trace, spec)
    except ValueError as e:
        print("\n".join(lines[:-1]))
        fail(str(e))
    print("\n".join(lines[:-1]))
    print(json.dumps(result))
    return 0


def self_test():
    """Short mode: every workload once per trace setting, metric names
    against BENCHMARK.json, the tail rule, and a poisoned expectation."""
    spec = load_spec()
    binary = build()
    problems = []

    code, out = run_xbench(binary, ["--check-tail"])
    sys.stdout.write(out)
    if code:
        problems.append("tail rule check failed")

    quick = ["--seconds", "1", "--setup-repeats", "1"]
    measured = set()
    for w in WORKLOADS:
        if w not in [x["name"] for x in spec["workloads"]]:
            problems.append("%s: not in BENCHMARK.json" % w)
        for trace in (0, 1):
            code, out = run_xbench(binary, ["--workload", w, "--seed", "1",
                                            "--trace", str(trace)] + quick)
            label = "%s trace=%d" % (w, trace)
            if code:
                problems.append(label + ": exit code %d" % code)
                continue
            raw = json.loads(out.strip().splitlines()[-1])
            if sorted(raw) != ["attempted", "correct", "failed", "metrics"]:
                problems.append(label + ": result keys %s" % sorted(raw))
            try:
                r = with_units(raw, trace, spec)
            except ValueError as e:
                problems.append("%s: %s" % (label, e))
                continue
            if trace:
                measured.update(raw["metrics"])
            if not r["correct"] or r["failed"] or r["attempted"] < 1:
                problems.append(label + ": %d of %d operations failed"
                                % (r["failed"], r["attempted"]))
            print("%-24s ok: %d operations" % (label, r["attempted"]))
        code, out = run_xbench(binary, ["--workload", w, "--seed", "1",
                                        "--trace", "0", "--corrupt"] + quick)
        r = json.loads(out.strip().splitlines()[-1]) if code == 0 else None
        if r is None or r["correct"] or r["failed"] < 1:
            problems.append(w + ": a corrupted expectation was not counted "
                            "as a failed operation")
        else:
            print("%-24s ok: corruption failed %d of %d operations"
                  % (w + " corrupt", r["failed"], r["attempted"]))
    unmeasured = [m["name"] for m in spec["per_layer"]
                  if m["name"] not in measured]
    if unmeasured:
        problems.append("no workload measures " + ", ".join(unmeasured))

    for p in problems:
        print("FAIL " + p)
    print("self-test: " + ("FAILED" if problems else "passed"))
    return 1 if problems else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    opts = ap.parse_args()
    if opts.self_test:
        return self_test()
    if not opts.workload:
        ap.error("--workload is required")
    return bench(opts)


if __name__ == "__main__":
    sys.exit(main())
