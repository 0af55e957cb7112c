#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics.

Run from the root of a checkout:

    python3 perfbench/spread.py --workload fuzz-z1 --seeds 1-10

Runs perfbench/run.py once per seed (trace off) and prints, per
end-to-end metric, the median of the values and the distance between
their first and third quartiles as a share of the median, next to the
bound BENCHMARK.json fixes for that metric.  --json FILE also appends
every run's result line to FILE.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def seed_list(spec):
    seeds = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        seeds += list(range(int(lo), int(hi or lo) + 1))
    return seeds


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--json", help="append each run's result line here")
    a = ap.parse_args()
    with open("BENCHMARK.json", encoding="utf-8") as f:
        bench = json.load(f)
    values = {m["name"]: [] for m in bench["end_to_end"]}
    for seed in seed_list(a.seeds):
        cmd = bench["command"] + ["--workload", a.workload, "--seed", str(seed),
                                  "--seconds", str(bench["run_seconds"]), "--trace", "0"]
        r = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
        last = r.stdout.strip().splitlines()[-1] if r.stdout.strip() else ""
        if r.returncode != 0 or not last.startswith("{"):
            sys.exit("seed %d: run failed (exit %d)" % (seed, r.returncode))
        result = json.loads(last)
        if a.json:
            with open(a.json, "a", encoding="utf-8") as f:
                f.write(json.dumps({"workload": a.workload, "seed": seed, **result}) + "\n")
        print("seed %d: correct=%s %s" % (seed, result["correct"], " ".join(
            "%s=%.6g" % (k, v["value"]) for k, v in result["metrics"].items())), flush=True)
        for k in values:
            values[k].append(result["metrics"][k]["value"])
    for m in bench["end_to_end"]:
        v = values[m["name"]]
        med = statistics.median(v)
        q = statistics.quantiles(v, n=4) if len(v) > 1 else [med, med, med]
        spread = (q[2] - q[0]) / med if med else float("inf")
        print("%-14s median %-12.6g spread %.3f  bound %.2f  (a third: %.3f)" % (
            m["name"], med, spread, m["bound"], m["bound"] / 3))


if __name__ == "__main__":
    main()
