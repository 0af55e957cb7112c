#!/usr/bin/env python3
"""Repository benchmark for ABC campaigns.

Run from the root of a checkout:

    python3 perfbench/run.py --workload fuzz-z1 --seed 1 --seconds 20 --trace 0

Builds perfbench/bench.exe from source with dune (into .bench_build/),
runs one workload, prints every metric as "name value unit", and ends
with one JSON line: {"correct", "attempted", "failed", "metrics"}.
With --trace 1 it prints the per-layer metrics instead, including the
loc.<library> line counts of lib/, and writes the traced run's spans to
.bench_out/<workload>.spans.jsonl.  See perfbench/README.md.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ["fuzz-z1", "fuzz-boundary", "mc-clock", "fuzz-sharded"]
# lib/ directories whose size is reported as loc.<name>
LIBRARIES = [
    "bigint", "byz", "core", "cyclespace", "digraph", "dist", "execgraph",
    "fuzz", "lp", "mc", "mclock", "net", "obs", "pool", "rat", "sim",
]
BUILD_DIR = ".bench_build"
OUT_DIR = ".bench_out"
RUN_TIMEOUT = 170
BUILD_TIMEOUT = 850


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def ocaml_code_lines(text):
    """Lines of OCaml source holding code outside comments.

    Comments nest, and string and character literals are skipped both
    in code and inside comments, as the OCaml lexer does."""
    depth = 0
    counted = set()
    line = 0
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c == "\n":
            line += 1
            i += 1
        elif text.startswith("(*", i):
            depth += 1
            i += 2
        elif depth > 0 and text.startswith("*)", i):
            depth -= 1
            i += 2
        elif c == '"':
            if depth == 0:
                counted.add(line)
            i += 1
            while i < n and text[i] != '"':
                if text[i] == "\\":
                    i += 1
                elif text[i] == "\n":
                    line += 1
                    if depth == 0:
                        counted.add(line)
                i += 1
            i += 1
        elif c == "'" and i + 2 < n and (
                text[i + 2] == "'" or (text[i + 1] == "\\" and "'" in text[i + 2:i + 6])):
            # a character literal such as '"' or '\n' or '\123'
            if depth == 0:
                counted.add(line)
            i = text.index("'", i + 2) + 1
        else:
            if depth == 0 and not c.isspace():
                counted.add(line)
            i += 1
    return len(counted)


def loc_metrics(root):
    metrics = {}
    for lib in LIBRARIES:
        d = os.path.join(root, "lib", lib)
        total = 0
        if os.path.isdir(d):
            for name in sorted(os.listdir(d)):
                if name.endswith((".ml", ".mli")):
                    with open(os.path.join(d, name), encoding="utf-8") as f:
                        total += ocaml_code_lines(f.read())
        metrics["loc." + lib] = {"value": total, "unit": "lines"}
    return metrics


def is_checkout(root):
    return all(os.path.exists(os.path.join(root, p))
               for p in ("dune-project", "lib", "perfbench/dune", "perfbench/bench.ml"))


def build(root):
    cmd = ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR,
           "./perfbench/bench.exe"]
    # no shared dune cache: the build reads and writes inside the checkout only
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        r = subprocess.run(cmd, cwd=root, stdout=sys.stderr, stderr=sys.stderr,
                           env=env, timeout=BUILD_TIMEOUT)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("build failed: %s" % e, 3)
    if r.returncode != 0:
        fail("build failed", 3)
    return os.path.join(root, BUILD_DIR, "default", "perfbench", "bench.exe")


def pinned_digest(workload, seed):
    with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as f:
        ref = json.load(f)
    return ref["digests"].get(str(seed), {}).get(workload)


def run_binary(exe, args, root):
    """Run the benchmark binary in its own process group, so that it and
    every worker it spawns are stopped however the run ends."""
    proc = subprocess.Popen([exe] + args, cwd=root, stdout=subprocess.PIPE,
                            stderr=sys.stderr, start_new_session=True, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail("workload timed out after %d s" % RUN_TIMEOUT, 4)
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    return proc.returncode, out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="tiny inputs, for the smoke test")
    ap.add_argument("--alter-reference", action="store_true",
                    help="perturb the reference report, for the smoke test")
    ap.add_argument("--pin", action="store_true",
                    help="print the report digests of --seed and exit")
    a = ap.parse_args()
    root = os.getcwd()
    if not is_checkout(root):
        fail("run from the root of a repository checkout "
             "(dune-project, lib/ and perfbench/ are needed to build)")
    if a.workload is None and not a.pin:
        fail("--workload is required")
    exe = build(root)
    if a.pin:
        code, out = run_binary(exe, ["--pin", "--seed", str(a.seed)], root)
        print(out, end="")
        sys.exit(code)
    args = ["--workload", a.workload, "--seed", str(a.seed),
            "--seconds", str(a.seconds), "--trace", str(a.trace)]
    digest = None if a.tiny else pinned_digest(a.workload, a.seed)
    if digest:
        args += ["--expect-digest", digest]
    if a.tiny:
        args.append("--tiny")
    if a.alter_reference:
        args.append("--alter-reference")
    if a.trace == 1:
        os.makedirs(os.path.join(root, OUT_DIR), exist_ok=True)
        args += ["--spans", os.path.join(OUT_DIR, a.workload + ".spans.jsonl")]
    code, out = run_binary(exe, args, root)
    lines = [l for l in out.splitlines() if l.strip()]
    if not lines:
        fail("the benchmark binary printed no result (exit %d)" % code, 1)
    result = json.loads(lines[-1])
    if a.trace == 1:
        result["metrics"].update(loc_metrics(root))
    for name, m in result["metrics"].items():
        print("%s %s %s" % (name, repr(m["value"]), m["unit"]))
    print("failed_frac %r (%d of %d operations)" % (
        result["failed"] / result["attempted"] if result["attempted"] else 0.0,
        result["failed"], result["attempted"]))
    print(json.dumps(result))
    sys.exit(code)


if __name__ == "__main__":
    main()
