#!/usr/bin/env python3
"""Smoke test of the benchmark itself, at tiny inputs.

Run from the root of a checkout:

    python3 perfbench/smoke.py

Checks, for every workload and both --trace modes, that the run
succeeds and prints every metric BENCHMARK.json names, with its unit,
both as a "name value unit" line and in the final JSON line; that a
deliberately altered reference report is counted as failed operations
and makes the run exit non-zero; and that a directory holding only the
benchmark files makes it exit non-zero without printing a result.
"""

import json
import os
import shutil
import subprocess
import sys

with open("BENCHMARK.json", encoding="utf-8") as f:
    BENCH = json.load(f)
ERRORS = []


def run(args, cwd="."):
    cmd = BENCH["command"] + args
    r = subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                       text=True, timeout=300)
    return r.returncode, r.stdout.strip().splitlines()


def expect(cond, what):
    print(("ok   " if cond else "FAIL ") + what, flush=True)
    if not cond:
        ERRORS.append(what)


def tiny(workload, trace, *extra):
    return ["--workload", workload, "--seed", "1", "--seconds", "1",
            "--trace", str(trace), "--tiny", *extra]


def check_metrics(workload, trace):
    code, out = run(tiny(workload, trace))
    label = "%s --trace %d" % (workload, trace)
    expect(code == 0 and out and out[-1].startswith("{"), label + ": runs and ends with JSON")
    if not out or not out[-1].startswith("{"):
        return
    result = json.loads(out[-1])
    expect(sorted(result) == ["attempted", "correct", "failed", "metrics"],
           label + ": result keys")
    expect(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
           label + ": correct, nothing failed")
    declared = BENCH["per_layer"] if trace else BENCH["end_to_end"]
    got = result["metrics"]
    expect(sorted(got) == sorted(m["name"] for m in declared),
           label + ": exactly the declared metrics")
    printed = {}
    for line in out[:-1]:
        parts = line.split()
        if len(parts) == 3:
            printed[parts[0]] = parts[2]
    for m in declared:
        name = m["name"]
        ok = (name in got and got[name]["unit"] == m["unit"]
              and isinstance(got[name]["value"], (int, float))
              and printed.get(name) == m["unit"])
        if not ok:
            expect(False, "%s: %s printed with unit %s" % (label, name, m["unit"]))


def main():
    for w in BENCH["workloads"]:
        for trace in (0, 1):
            check_metrics(w["name"], trace)
    for w in ("fuzz-z1", "mc-clock"):
        code, out = run(tiny(w, 0, "--alter-reference"))
        result = json.loads(out[-1]) if out and out[-1].startswith("{") else {}
        frac = [l for l in out if l.startswith("failed_frac ")]
        expect(code != 0 and result.get("failed", 0) > 0 and not result.get("correct", True)
               and frac and float(frac[0].split()[1]) > 0,
               w + ": an altered reference report is counted in failed_frac")
    bare = os.path.join(".bench_out", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy("BENCHMARK.json", bare)
    for p in BENCH["paths"]:
        shutil.copytree(p, os.path.join(bare, p))
    code, out = run(tiny(BENCH["workloads"][0]["name"], 0), cwd=bare)
    expect(code != 0 and not any(l.startswith("{") for l in out),
           "benchmark files alone: non-zero exit, no result")
    shutil.rmtree(bare, ignore_errors=True)
    if ERRORS:
        sys.exit("%d smoke check(s) failed" % len(ERRORS))
    print("smoke: all checks passed")


if __name__ == "__main__":
    main()
