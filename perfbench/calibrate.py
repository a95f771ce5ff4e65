#!/usr/bin/env python3
"""Spread of every end-to-end metric across seeds, raw and normalized.

    python3 perfbench/calibrate.py [--workloads a,b] [--seeds 1-10]
                                   [--seconds 10] [--records-only]
                                   [--overhead]

Runs run.py once per (seed, workload), seeds outermost so host drift
spreads over all workloads, then reads each run's record from
.perfbench/runs/ and prints, per workload and metric, the median and the
spread (distance between the first and third quartile as a share of the
median, from statistics.quantiles(values, n=4)) of the raw and of the
host-normalized values, and which of the two the benchmark reports.
--records-only skips the runs and tabulates the records already there.
This is the table CALIBRATION.md keeps.

--overhead runs the seeds traced instead and prints, per workload and
end-to-end metric, the median of the traced values minus the median of
the untraced records of the same seeds, as a share of the latter: the
tracing overhead.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

WORKLOADS = ["kernel-streams", "dag-compile", "serve-mix"]


def seeds_of(spec):
    if "-" in spec:
        lo, hi = spec.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in spec.split(",")]


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else float("nan"), statistics.median(values)


def run(w, seed, seconds, trace):
    r = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", w, "--seed",
         str(seed), "--seconds", seconds, "--trace", trace],
        stdout=subprocess.PIPE, text=True)
    last = r.stdout.strip().splitlines()[-1] if r.stdout else ""
    print("%s seed %d trace %s: exit %d %s"
          % (w, seed, trace, r.returncode, last[:60]), file=sys.stderr)


def record(w, seed, trace):
    path = os.path.join(".perfbench", "runs",
                        "%s-s%d-t%s.json" % (w, seed, trace))
    with open(path) as f:
        return json.load(f)


def overhead(workloads, seeds):
    print("| workload | metric | untraced median | traced median "
          "| overhead |")
    print("|---|---|---|---|---|")
    for w in workloads:
        plain = [record(w, s, "0") for s in seeds]
        traced = [record(w, s, "1") for s in seeds]
        for name, m in plain[0]["end_to_end"].items():
            a = statistics.median(r["end_to_end"][name]["reported"]
                                  for r in plain)
            b = statistics.median(r["end_to_end"][name]["reported"]
                                  for r in traced)
            print("| %s | %s | %.4g %s | %.4g | %+.1f%% |"
                  % (w, name, a, m["unit"], b, 100 * (b - a) / a))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", default=",".join(WORKLOADS))
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", default="10")
    ap.add_argument("--records-only", action="store_true")
    ap.add_argument("--overhead", action="store_true")
    args = ap.parse_args()
    workloads = args.workloads.split(",")
    seeds = seeds_of(args.seeds)
    trace = "1" if args.overhead else "0"
    if not args.records_only:
        for seed in seeds:
            for w in workloads:
                run(w, seed, args.seconds, trace)
    if args.overhead:
        overhead(workloads, seeds)
        return
    print("| workload | metric | median | raw spread | normalized spread "
          "| reported |")
    print("|---|---|---|---|---|---|")
    for w in workloads:
        recs = [record(w, seed, "0") for seed in seeds]
        for name, m in recs[0]["end_to_end"].items():
            raw = [r["end_to_end"][name]["raw"] for r in recs]
            norm = [r["end_to_end"][name]["normalized"] for r in recs]
            rep = [r["end_to_end"][name]["reported"] for r in recs]
            rs, _ = spread(raw)
            ns = "-" if None in norm else "%.3f" % spread(norm)[0]
            chosen = "normalized" if rep == norm else "raw"
            print("| %s | %s | %.4g %s | %.3f | %s | %s |"
                  % (w, name, statistics.median(rep), m["unit"], rs, ns,
                     chosen))


if __name__ == "__main__":
    main()
