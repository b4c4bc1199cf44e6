#!/usr/bin/env python3
"""Build the certification benchmark and run one workload.

Usage, from the root of the repository:

    python3 certbench/run.py --workload sym --seed 1 --seconds 25 --trace 0
    python3 certbench/run.py --selftest

The first call configures and builds certbench and the dip libraries it
links (Release) under $CARGO_TARGET_DIR/certbench, or .bench_build/certbench
when that variable is unset; later calls only re-check the build. Build
output goes to stderr, so the last line of stdout is the benchmark's JSON
result. A traced run (--trace 1) also writes its spans to
<build dir>/spans-<workload>.txt.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, target, "certbench")


def build(out_dir):
    jobs = str(len(os.sched_getaffinity(0)))
    steps = []
    if not os.path.exists(os.path.join(out_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out_dir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out_dir, "-j", jobs, "--target", "certbench"])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            sys.exit("certbench: build step failed: " + " ".join(step))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and not args.workload:
        parser.error("--workload is required")

    out_dir = build_dir()
    build(out_dir)
    binary = os.path.join(out_dir, "certbench")
    if args.selftest:
        command = [binary, "--selftest"]
    else:
        command = [binary, "--workload", args.workload, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", args.trace]
        if args.trace == "1":
            command += ["--spans", os.path.join(out_dir, "spans-%s.txt" % args.workload)]
    sys.stdout.flush()
    sys.exit(subprocess.run(command).returncode)


if __name__ == "__main__":
    main()
