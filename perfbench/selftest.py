#!/usr/bin/env python3
"""Smoke self-test of the benchmark.

Run from the repository root:

    python3 perfbench/selftest.py

Runs every workload of BENCHMARK.json at tiny size, untraced and traced,
and checks the result line: every end-to-end metric (untraced) or per-layer
metric (traced) is present with its declared unit and a finite value, no
operation failed, and nothing else is reported. Also checks that the
benchmark refuses to run when an environment switch that changes the
measured program is set, and when the VM sources are missing.
"""

import json
import math
import os
import shutil
import subprocess
import sys

ROOT = os.getcwd()
failures = []


def check(cond, msg):
    if not cond:
        failures.append(msg)
        print("FAIL: " + msg)


def run(args, env=None, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py"] + args,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, env=env, cwd=cwd)


def result_line(out):
    lines = out.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None


def main():
    bench = json.load(open("BENCHMARK.json"))
    expected = {0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
                1: {m["name"]: m["unit"] for m in bench["per_layer"]}}
    for w in [w["name"] for w in bench["workloads"]]:
        for trace in (0, 1):
            tag = "%s trace=%d" % (w, trace)
            out = run(["--workload", w, "--seed", "7", "--seconds", "1",
                       "--trace", str(trace), "--tiny"])
            check(out.returncode == 0, "%s exited %d: %s"
                  % (tag, out.returncode, out.stderr[-500:]))
            res = result_line(out)
            if res is None:
                check(False, tag + ": no JSON result line")
                continue
            check(sorted(res) == ["attempted", "correct", "failed",
                                  "metrics"], tag + ": wrong result keys")
            check(res["correct"] is True and res["failed"] == 0
                  and res["attempted"] >= 1,
                  "%s: %d of %d operations failed"
                  % (tag, res["failed"], res["attempted"]))
            got = res["metrics"]
            check(set(got) == set(expected[trace]), "%s: metrics differ: "
                  "missing %s, extra %s" % (
                      tag, sorted(set(expected[trace]) - set(got)),
                      sorted(set(got) - set(expected[trace]))))
            for name, unit in expected[trace].items():
                m = got.get(name)
                if m is None:
                    continue
                check(m.get("unit") == unit,
                      "%s: %s has unit %s, not %s"
                      % (tag, name, m.get("unit"), unit))
                v = m.get("value")
                check(isinstance(v, (int, float)) and math.isfinite(v),
                      "%s: %s is not a finite number" % (tag, name))
            print("ok: " + tag)

    env = dict(os.environ, RJIT_TRACE="1")
    out = run(["--workload", "steady", "--seed", "1", "--seconds", "1",
               "--trace", "0", "--tiny"], env=env)
    check(out.returncode != 0 and result_line(out) is None,
          "runs with RJIT_TRACE set")

    # A checkout holding only BENCHMARK.json and perfbench/ must fail fast.
    bare = os.path.join(ROOT, ".bench_build", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy("BENCHMARK.json", bare)
    shutil.copytree("perfbench", os.path.join(bare, "perfbench"))
    out = run(["--workload", "steady", "--seed", "1", "--seconds", "1",
               "--trace", "0"], cwd=bare)
    check(out.returncode != 0 and result_line(out) is None,
          "runs without the VM sources")
    shutil.rmtree(bare, ignore_errors=True)

    print("selftest: %s" % ("FAILED" if failures else "passed"))
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
