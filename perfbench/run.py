#!/usr/bin/env python3
"""Build and run the repository benchmark from the root of a source tree.

    python3 perfbench/run.py --workload oracle_stream --seed 1 --seconds 30 --trace 0

Builds perfbench/bench.exe with dune in the release profile (into the
tree's _build), prints one provenance line, then runs the benchmark; its
last line of standard output is the result JSON.  Exits non-zero without a
result when the library sources are missing or the build or run fails.
"""

import argparse
import json
import os
import subprocess
import sys

PROFILE = "release"
RUN_TIMEOUT_S = 170
EXE = os.path.join("_build", "default", "perfbench", "bench.exe")


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def output_of(cmd):
    try:
        return subprocess.run(cmd, capture_output=True, text=True, timeout=30).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return ""


def git_rev(root):
    # Only this tree's own repository counts, not one that encloses it.
    if output_of(["git", "rev-parse", "--show-toplevel"]) != root:
        return "unknown (not a git checkout)"
    rev = output_of(["git", "rev-parse", "--short", "HEAD"])
    return rev + ("+dirty" if output_of(["git", "status", "--porcelain"]) else "")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    os.chdir(root)
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    why = {w["name"]: w["why"] for w in bench["workloads"]}
    if args.workload not in why:
        fail("unknown workload " + args.workload)
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        fail("no library sources next to the benchmark (dune-project, lib/)")

    # No shared dune cache: the build reads and writes only inside the tree.
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--profile", PROFILE, "./perfbench/bench.exe"],
        env=dict(os.environ, DUNE_CACHE="disabled"),
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    if build.returncode != 0:
        sys.stderr.write(build.stdout)
        fail("build failed")

    provenance = {
        "workload": args.workload,
        "why": why[args.workload],
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)),
        "ocaml": output_of(["ocamlfind", "ocamlopt", "-version"]) or "unknown",
        "git_rev": git_rev(root),
        "profile": PROFILE,
    }
    print("# provenance " + json.dumps(provenance), flush=True)

    cmd = [
        EXE,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    try:
        run = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    if run.returncode != 0:
        sys.stderr.write(run.stdout)
        fail("benchmark exited with %d" % run.returncode)
    sys.stdout.write(run.stdout)


if __name__ == "__main__":
    main()
