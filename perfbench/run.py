#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload steady --seed 1 --seconds 20 --trace 0

Builds the VM and the benchmark from source into .bench_build/perfbench
(Release), then runs one workload under both tier strategies. Everything
the build and the run print goes to stderr, except the benchmark's own
report: metric lines, then one JSON result object as the last line of
stdout. --trace 1 runs the traced variant, which reports the per-layer
metrics and writes its spans to .bench_build/spans-<workload>-<seed>.json.
"""

import argparse
import os
import subprocess
import sys

BUILD_DIR = os.path.join(".bench_build", "perfbench")
WORKLOADS = ("steady", "misspec", "phases", "server")
# Each one silently changes the measured program.
FORBIDDEN_ENV = ("RJIT_NATIVE_TIER", "RJIT_NATIVE_V2", "RJIT_TRACE")


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def build():
    """Configures (once) and builds the benchmark; returns the binary."""
    if not os.path.isfile(os.path.join("src", "vm", "vm.h")):
        fail("run from the repository root: the VM sources (src/) are missing")
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", "perfbench", "-B", BUILD_DIR,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    jobs = str(max(1, min(os.cpu_count() or 1, 8)))
    subprocess.run(["cmake", "--build", BUILD_DIR, "-j", jobs],
                   stdout=sys.stderr, check=True)
    return os.path.join(BUILD_DIR, "perfbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    ap.add_argument("--tiny", action="store_true",
                    help="smallest run of every phase (self-test)")
    args = ap.parse_args()
    for var in FORBIDDEN_ENV:
        if var in os.environ:
            fail(var + " is set; it changes the measured program")
    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as e:
        fail("build failed: %s" % e, 3)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--spans", os.path.join(
            ".bench_build", "spans-%s-%d.json" % (args.workload, args.seed))]
    if args.tiny:
        cmd.append("--tiny")
    sys.stdout.flush()
    sys.exit(subprocess.run(cmd).returncode)


if __name__ == "__main__":
    main()
