#!/usr/bin/env python3
"""The repository benchmark: one command for the synth, sweep and serve workloads.

Run from the root of a checkout:

    python3 perfbench/run.py --workload synth|sweep|serve --seed N --seconds S --trace 0|1
        [--ablate FIELD=VALUE] [--trace-out FILE]

It builds the benchmark engine (perfbench/perfbench.exe) and impact_cli from
source into .bench_build/, runs one workload for S seconds on inputs drawn
from seed N, prints every metric it measured with its unit, and ends with
one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

holding the end-to-end metrics listed in BENCHMARK.json (--trace 0) or its
per-layer metrics (--trace 1, a separate traced run).  --ablate overrides
one Driver.options field (eval_cache, delta_reprice, probes, jobs) and
reports in the same schema; ablation runs are outside the gated set.
"""

import argparse
import fnmatch
import json
import os
import signal
import subprocess
import sys

BUILD_DIR = os.path.join(".bench_build", "dune")
ENGINE = os.path.join(BUILD_DIR, "default", "perfbench", "perfbench.exe")
CLI = os.path.join(BUILD_DIR, "default", "bin", "impact_cli.exe")
WORK_DIR = os.path.join(".bench_build", "work")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def parse_args():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--ablate", metavar="FIELD=VALUE")
    p.add_argument("--trace-out", metavar="FILE", help="Chrome trace-event JSON of the spans")
    return p.parse_args()


RECORD = os.path.join("perfbench", "record.json")


def load_spec():
    for needed in ("dune-project", "lib", "bin", "BENCHMARK.json"):
        if not os.path.exists(needed):
            fail("run from the root of a full checkout: %s is missing" % needed)
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    with open(RECORD) as f:
        not_measured = json.load(f)["not_measured"]
    return spec, not_measured


def build():
    os.makedirs(os.path.dirname(BUILD_DIR), exist_ok=True)
    cmd = ["dune", "build", "--root", ".", "--build-dir", os.path.abspath(BUILD_DIR),
           "--profile", "release", "./perfbench/perfbench.exe", "./bin/impact_cli.exe"]
    try:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("build failed: %s" % e)
    if done.returncode != 0:
        fail("build failed (exit %d)" % done.returncode)


def run_engine(args):
    cmd = [ENGINE, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--cli", CLI, "--work-dir", WORK_DIR]
    if args.ablate:
        cmd += ["--ablate", args.ablate]
    if args.trace_out:
        cmd += ["--trace-out", args.trace_out]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail("the %s run did not finish within %d s" % (args.workload, RUN_TIMEOUT_S), code=3)
    if proc.returncode != 0:
        fail("the engine exited with %d" % proc.returncode, code=3)
    lines = out.strip().splitlines()
    if not lines:
        fail("the engine printed no result", code=3)
    return json.loads(lines[-1])


def show(doc, args):
    label = "%s seed %d, %d s%s%s" % (
        args.workload, args.seed, args.seconds, ", traced" if args.trace else "",
        ", ablation " + args.ablate if args.ablate else "")
    print("== perfbench: " + label)
    for name, m in doc["metrics"].items():
        print("  %-34s %16.6g %s" % (name, m["value"], m["unit"]))
    print("  %-34s %16d" % ("attempted", doc["attempted"]))
    print("  %-34s %16d" % ("failed", doc["failed"]))
    for p in doc["problems"]:
        print("  problem: " + p)


def main():
    args = parse_args()
    spec, not_measured = load_spec()
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail("unknown workload %s" % args.workload)
    build()
    doc = run_engine(args)
    show(doc, args)
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    # A traced run reports 0 for a layer record.json lists as not measured
    # on this workload; any other missing metric is an error.
    skipped = not_measured[args.workload] if args.trace else []
    metrics = {}
    for m in wanted:
        got = doc["metrics"].get(m["name"])
        if got is None and any(fnmatch.fnmatchcase(m["name"], p) for p in skipped):
            got = {"value": 0, "unit": m["unit"]}
        if got is None or got["unit"] != m["unit"]:
            fail("metric %s missing or in the wrong unit" % m["name"], code=3)
        metrics[m["name"]] = got
    print(json.dumps({"correct": doc["correct"], "attempted": doc["attempted"],
                      "failed": doc["failed"], "metrics": metrics}))


if __name__ == "__main__":
    main()
