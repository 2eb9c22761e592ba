#!/usr/bin/env python3
"""Build and run the qpsa fleet benchmark.

    python3 perfbench/run.py --workload replay_mixed --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout.  The first run configures and
builds perfbench/ (which compiles the qpsa library from src/) into
.bench_build/perfbench; later runs only rebuild what changed.  The
benchmark binary's report is relayed to stdout; its last line is one JSON
object with the end-to-end metrics (--trace 0) or the per-layer metrics
(--trace 1) named in BENCHMARK.json.  Exits non-zero, printing no result,
when the sources are missing, the build fails, the run fails, or the
printed metrics do not match BENCHMARK.json.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "qpsa_perfbench")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def build():
    for path in ("CMakeLists.txt", os.path.join("src", "qpsa")):
        if not os.path.exists(os.path.join(ROOT, path)):
            fail("qpsa sources not found (%s missing); run from a full checkout" % path)
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs, "--target", "qpsa_perfbench"])
    for cmd in steps:
        try:
            # Build chatter goes to stderr: stdout carries only the report.
            done = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as e:
            fail("build step failed: %s" % e)
        if done.returncode != 0:
            fail("build step failed: %s" % " ".join(cmd))


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    build()
    scratch = os.path.join(ROOT, ".bench_build", "run-%d" % os.getpid())
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--scratch", scratch]
    if args.trace:
        # The latest traced run's spans per workload, kept for inspection.
        traces = os.path.join(ROOT, ".bench_build", "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--spans", os.path.join(traces, "spans-%s.csv" % args.workload)]
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("benchmark exceeded %d s" % RUN_TIMEOUT_S, 1)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    lines = done.stdout.rstrip("\n").split("\n")
    if done.returncode != 0:
        print("\n".join(lines))
        fail("benchmark exited with status %d" % done.returncode, done.returncode)
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        print("\n".join(lines))
        fail("benchmark printed no result line", 1)

    want = expected_metrics(args.trace == 1)
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != want:
        print("\n".join(lines[:-1]))
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        units = sorted(k for k in set(want) & set(got) if want[k] != got[k])
        fail("metrics differ from BENCHMARK.json: missing %s, extra %s, unit mismatch %s"
             % (missing, extra, units), 1)
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
