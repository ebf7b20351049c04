#!/usr/bin/env python3
"""Builds the cilkpp benchmark (Release) and runs one workload.

    python3 perfbench/run.py --workload fib|graph|serve --seed N \
        --seconds S --trace 0|1
    python3 perfbench/run.py --selfcheck

Run from the repository root. The library is compiled from ./src into
.bench_build/perfbench (incremental after the first run); results and span
dumps go to .bench_out/. Build output goes to stderr, so the last line of
stdout is the benchmark's JSON result: the metrics BENCHMARK.json names for
the mode (end-to-end with --trace 0, per-layer with --trace 1).
"""
import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
OUT = os.path.join(ROOT, ".bench_out")


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no cilkpp sources at src/ (run from a repository checkout)")
    jobs = str(max(1, os.cpu_count() or 1))
    cache = os.path.join(BUILD, "CMakeCache.txt")
    if not os.path.isfile(cache):
        r = subprocess.run(["cmake", "-S", os.path.join(ROOT, "perfbench"),
                            "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
                           stdout=sys.stderr, stderr=sys.stderr)
        if r.returncode != 0:
            fail("cmake configure failed")
    r = subprocess.run(["cmake", "--build", BUILD, "-j", jobs,
                        "--target", "perfbench"],
                       stdout=sys.stderr, stderr=sys.stderr)
    if r.returncode != 0:
        fail("build failed")
    return os.path.join(BUILD, "perfbench")


def select(result, trace):
    """The result's metrics that BENCHMARK.json names for this mode, in its
    order and units; fails when one is missing or in another unit."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)["per_layer" if trace else "end_to_end"]
    metrics = {}
    for m in spec:
        got = result["metrics"].get(m["name"])
        if got is None:
            fail("metric %s not measured" % m["name"])
        if got["unit"] != m["unit"]:
            fail("metric %s in %s, BENCHMARK.json says %s" %
                 (m["name"], got["unit"], m["unit"]))
        metrics[m["name"]] = got
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=["fib", "graph", "serve"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--workers", type=int, default=None,
                    help="worker budget below nproc (reference points only)")
    ap.add_argument("--selfcheck", action="store_true")
    args = ap.parse_args()
    if not args.selfcheck and args.workload is None:
        ap.error("--workload is required")

    exe = build()
    if args.selfcheck:
        sys.exit(subprocess.run([exe, "--selfcheck"]).returncode)

    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", OUT]
    if args.workers is not None:
        cmd += ["--workers", str(args.workers)]
    r = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = r.stdout.strip().splitlines()
    for line in lines[:-1]:
        print(line, file=sys.stderr)
    if r.returncode != 0 or not lines:
        fail("benchmark exited with code %d" % r.returncode)
    print(json.dumps(select(json.loads(lines[-1]), args.trace == 1)))


if __name__ == "__main__":
    main()
