#!/usr/bin/env python3
"""Check that the certification benchmark repeats.

Runs each workload --runs times (default 10), each run with another seed,
and prints for every end-to-end metric of BENCHMARK.json its median and its
spread: the distance between the first and third quartile as a share of the
median (statistics.quantiles(values, n=4)). A metric whose spread exceeds
its bound is flagged; setup_s is reported but never flagged, as its runs
each hold only a few set-ups. With --sets 2 the runs repeat with fresh seeds
and the second set's median is compared with the first: a move for the
worse beyond the bound is flagged for every metric, setup_s included.
The share of failed requests must be the same in every run.

Usage, from the root of the repository:

    python3 certbench/steady.py [--workload sym ...] [--runs 10] [--sets 2]

Exits 1 when anything is flagged.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds):
    start = time.monotonic()
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    if out.returncode != 0:
        sys.exit("certbench: %s seed %d exited with %d" % (workload, seed, out.returncode))
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        sys.exit("certbench: %s seed %d reported incorrect output" % (workload, seed))
    result["wall_s"] = time.monotonic() - start
    return result


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2, q2


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=names)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, choices=[1, 2], default=1)
    args = parser.parse_args()
    if args.runs < 4:
        parser.error("--runs must be at least 4 for quartiles")

    flagged = False
    seed = 1
    for workload in args.workload or names:
        sets = []
        for _ in range(args.sets):
            runs = []
            for _ in range(args.runs):
                runs.append(run_once(workload, seed, bench["run_seconds"]))
                seed += 1
            sets.append(runs)
        shares = {r["failed"] / r["attempted"] for runs in sets for r in runs}
        walls = [r["wall_s"] for runs in sets for r in runs]
        print("%s: failed share %s over %d runs, %.1f s wall per run" % (
            workload, sorted(shares), len(walls), statistics.mean(walls)))
        if len(shares) != 1:
            flagged = True
            print("  FLAG failed share differs between runs")
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            medians = []
            for k, runs in enumerate(sets):
                rel, med = spread([r["metrics"][name]["value"] for r in runs])
                medians.append(med)
                flag = rel > bound and name != "setup_s"
                flagged = flagged or flag
                print("  set %d %-16s median %12.6g %-4s spread %6.2f%% bound %5.1f%%%s" % (
                    k + 1, name, med, metric["unit"], 100 * rel, 100 * bound,
                    "  FLAG" if flag else ""))
            if len(medians) == 2:
                worse = medians[1] / medians[0] - 1
                if metric["better"] == "higher":
                    worse = -worse
                flag = worse > bound
                flagged = flagged or flag
                print("        %-16s second median worse by %6.2f%%%s" % (
                    name, 100 * worse, "  FLAG" if flag else ""))
    sys.exit(1 if flagged else 0)


if __name__ == "__main__":
    main()
