#!/usr/bin/env python3
"""Paired benchmark runs of a parent revision against the working tree.

    python3 bench/perf_pairs.py --parent HEAD~1 --workload oracle_stream \
        --pairs 10 --seconds 25

Exports the parent revision with `git archive` into a temporary directory,
then runs `python3 perfbench/run.py --trace 0` alternately there and in the
working tree: one pair per seed, a fresh seed for each pair, and the side
that runs first switches from pair to pair, since the host's speed drifts.
For each end-to-end metric BENCHMARK.json declares, it prints both sides'
median and quartiles, the change's relative move of the median, and in how
many pairs the change was better (ties count for neither side). Every
run's result line is kept in a temporary directory, named in the report.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time


def fail(msg):
    print("perf_pairs: " + msg, file=sys.stderr)
    sys.exit(2)


def export(rev, root, dest):
    archive = subprocess.run(
        ["git", "-C", root, "archive", "--format=tar", rev], stdout=subprocess.PIPE
    )
    if archive.returncode != 0:
        fail("git archive %s failed" % rev)
    subprocess.run(["tar", "-x", "-C", dest], input=archive.stdout, check=True)


def run(tree, workload, seed, seconds):
    """One `perfbench/run.py` run in [tree]: its result JSON."""
    cmd = [
        sys.executable, "perfbench/run.py", "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
    ]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        fail("run failed in %s (seed %d)" % (tree, seed))
    return json.loads(lines[-1])


def quartiles(xs):
    if len(xs) < 2:
        return (xs[0], xs[0])
    q = statistics.quantiles(xs, n=4, method="inclusive")
    return (q[0], q[2])


def report(metrics, results):
    header = "%-26s %12s %23s %12s %23s %8s %6s" % (
        "metric", "parent p50", "parent q1..q3", "change p50", "change q1..q3",
        "move", "wins")
    print(header)
    print("-" * len(header))
    pairs = len(results["parent"])
    for m in metrics:
        name, better = m["name"], m["better"]
        side = {
            s: [r["metrics"][name]["value"] for r in results[s]]
            for s in ("parent", "change")
        }
        wins = sum(
            1
            for p, c in zip(side["parent"], side["change"])
            if (c > p if better == "higher" else c < p)
        )
        med = {s: statistics.median(side[s]) for s in side}
        q = {s: quartiles(side[s]) for s in side}
        move = (med["change"] - med["parent"]) / med["parent"] if med["parent"] else 0.0
        print("%-26s %12.4g %11.4g..%-10.4g %12.4g %11.4g..%-10.4g %+7.1f%% %3d/%d" % (
            name, med["parent"], q["parent"][0], q["parent"][1],
            med["change"], q["change"][0], q["change"][1], 100 * move, wins, pairs))
    for s in ("parent", "change"):
        attempted = sum(r["attempted"] for r in results[s])
        failed = sum(r["failed"] for r in results[s])
        print("%s: %d operations attempted, %d failed" % (s, attempted, failed))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--parent", required=True, help="git revision to compare against")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=25)
    ap.add_argument("--seed-base", type=int, default=None,
                    help="first pair's seed (default: drawn from the clock)")
    args = ap.parse_args()

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        metrics = json.load(f)["end_to_end"]
    seed_base = args.seed_base if args.seed_base is not None else int(time.time()) % 100000
    out = tempfile.mkdtemp(prefix="perf-pairs-out-")

    parent = tempfile.mkdtemp(prefix="perf-pairs-parent-")
    try:
        export(args.parent, root, parent)
        trees = {"parent": parent, "change": root}
        results = {"parent": [], "change": []}
        for k in range(args.pairs):
            seed = seed_base + k
            order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
            for side in order:
                r = run(trees[side], args.workload, seed, args.seconds)
                results[side].append(r)
                with open(os.path.join(out, "%s-%d.json" % (side, seed)), "w") as f:
                    json.dump(r, f)
                print("pair %d seed %d %s: sessions_per_s %.4g" % (
                    k + 1, seed, side, r["metrics"]["sessions_per_s"]["value"]),
                    flush=True)
        print("\n%s: %s vs the working tree, %d pairs of %d s, seeds %d..%d; raw results in %s\n" % (
            args.workload, args.parent, args.pairs, args.seconds, seed_base,
            seed_base + args.pairs - 1, out))
        report(metrics, results)
    finally:
        shutil.rmtree(parent, ignore_errors=True)


if __name__ == "__main__":
    main()
