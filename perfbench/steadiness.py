#!/usr/bin/env python3
"""Check that the benchmark's end-to-end metrics are steady across seeds.

Run from the repository root:

    python3 perfbench/steadiness.py --workload misspec --seeds 10
    python3 perfbench/steadiness.py --all --seeds 10 --first-seed 101

For each workload, runs the benchmark once per seed (untraced, at
BENCHMARK.json's run_seconds) and prints, per end-to-end metric, the median
and the spread: the distance between the first and third quartile
(statistics.quantiles(values, n=4)) as a share of the median. A spread must
stay below a third of the metric's bound (setup_s is exempt); the script
exits non-zero when one does not, or when a run fails.
"""

import argparse
import json
import statistics
import subprocess
import sys


def run(workload, seed, seconds):
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.exit("run failed: %s seed %d (exit %d)"
                 % (workload, seed, out.returncode))
    return json.loads(lines[-1])


def main():
    bench = json.load(open("BENCHMARK.json"))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", action="append", default=[])
    ap.add_argument("--all", action="store_true")
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--verbose", action="store_true",
                    help="also print every run's value")
    args = ap.parse_args()
    workloads = ([w["name"] for w in bench["workloads"]] if args.all
                 else args.workload)
    if not workloads:
        ap.error("name a --workload or pass --all")
    steady = True
    for w in workloads:
        values = {m["name"]: [] for m in bench["end_to_end"]}
        for k in range(args.seeds):
            res = run(w, args.first_seed + k, bench["run_seconds"])
            if not res["correct"] or res["failed"]:
                sys.exit("%s: %d of %d operations failed"
                         % (w, res["failed"], res["attempted"]))
            for name in values:
                values[name].append(res["metrics"][name]["value"])
        print("== %s (%d seeds from %d)" % (w, args.seeds, args.first_seed))
        for m in bench["end_to_end"]:
            xs = values[m["name"]]
            med = statistics.median(xs)
            q = statistics.quantiles(xs, n=4)
            spread = (q[2] - q[0]) / med if med else 0.0
            limit = m["bound"] / 3
            ok = m["name"] == "setup_s" or spread <= limit
            steady &= ok
            print("%-24s median %14.6g %-8s spread %6.3f  (limit %.3f) %s"
                  % (m["name"], med, m["unit"], spread, limit,
                     "" if ok else "TOO WIDE"))
            if args.verbose:
                print("    " + " ".join("%.4g" % x for x in xs))
        sys.stdout.flush()
    sys.exit(0 if steady else 1)


if __name__ == "__main__":
    main()
