#!/usr/bin/env python3
"""Steadiness check: runs each workload once per seed and reports, for every
end-to-end metric and every reference figure of the result files, the median,
the quartiles and the interquartile distance as a share of the median, beside
the metric's bound in BENCHMARK.json.

    python3 perfbench/steady.py --seeds 1-10

Run from the repository root. Runs are sequential (one benchmark process at
a time), so they never compete with each other for cores.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def seeds_of(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    r = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                       stderr=subprocess.DEVNULL, text=True)
    if r.returncode != 0:
        sys.exit("run failed: %s seed %d" % (workload, seed))
    with open(os.path.join(ROOT, ".bench_out",
                           "result-%s-%d-0.json" % (workload, seed))) as f:
        reference = json.load(f)["reference"]
    result = json.loads(r.stdout.strip().splitlines()[-1])
    result["reference"] = reference
    return result


def row(name, vals, bound):
    q1, med, q3 = statistics.quantiles(vals, n=4)
    return "| %s | %.6g | %.6g | %.6g | %.3f | %s |" % (
        name, med, q1, q3, (q3 - q1) / med, bound)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", default="1-10")
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    for w in [w["name"] for w in spec["workloads"]]:
        runs = [run_once(w, s, seconds) for s in seeds_of(args.seeds)]
        print("## %s (%d runs, %d s each)" % (w, len(runs), seconds))
        shares = {r["failed"] / r["attempted"] for r in runs}
        print("correct: %s; failed/attempted: %s" %
              (all(r["correct"] for r in runs), sorted(shares)))
        print("| metric | median | Q1 | Q3 | IQR/median | bound |")
        print("|---|---|---|---|---|---|")
        for name, bound in bounds.items():
            print(row(name, [r["metrics"][name]["value"] for r in runs],
                      "%.2f" % bound))
        for name in runs[0]["reference"]:
            vals = [r["reference"][name]["value"] for r in runs]
            if min(vals) > 0:
                print(row(name, vals, "reference"))
        print()
        sys.stdout.flush()


if __name__ == "__main__":
    main()
