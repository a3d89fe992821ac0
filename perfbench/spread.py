#!/usr/bin/env python3
"""Run the benchmark on several seeds and report each end-to-end metric's
median and run-to-run spread (interquartile range as a share of the median,
from statistics.quantiles(values, n=4)).

Run from the root of a checkout:

    python3 perfbench/spread.py [--workloads synth,sweep,serve] [--seeds 1-10]
        [--ablate FIELD=VALUE] [--json FILE]

Without --workloads it runs every workload in BENCHMARK.json, with that
file's run_seconds.  A spread at or above the metric's bound is flagged.
"""

import argparse
import json
import statistics
import subprocess
import sys


def seeds_of(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run(workload, seed, seconds, ablate):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    if ablate:
        cmd += ["--ablate", ablate]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workloads")
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--ablate")
    p.add_argument("--json", help="write the summary here")
    args = p.parse_args()
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    summary = {}
    for w in workloads:
        results = [run(w, s, spec["run_seconds"], args.ablate) for s in seeds_of(args.seeds)]
        rows = {}
        print("== %s: correct %s, failed %s" % (
            w, [r["correct"] for r in results], [r["failed"] for r in results]))
        for m in spec["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in results]
            q1, _, q3 = statistics.quantiles(values, n=4)
            med = statistics.median(values)
            spread = (q3 - q1) / med
            flag = "  <-- over bound" if spread >= m["bound"] else ""
            print("  %-14s median %12.6g %-6s spread %.3f (bound %.2f)%s" % (
                m["name"], med, m["unit"], spread, m["bound"], flag))
            rows[m["name"]] = {"median": med, "spread": spread, "values": values}
        summary[w] = rows
    if args.json:
        with open(args.json, "w") as f:
            json.dump(summary, f, indent=1)


if __name__ == "__main__":
    main()
