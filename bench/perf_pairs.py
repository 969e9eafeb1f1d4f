#!/usr/bin/env python3
"""Paired benchmark runs of a parent revision against the working tree.

    python3 bench/perf_pairs.py --parent HEAD~1 --workload oracle_stream \
        --pairs 10 --seconds 25

`--workload all` runs every workload BENCHMARK.json declares, in turn, and
prints one table for each: a change that claims a gain on one workload
shows there that the others did not move.

Exports the parent revision with `git archive` into a temporary directory,
then runs `python3 perfbench/run.py --trace 0` alternately there and in the
working tree: one pair per seed, a fresh seed for each pair, and the side
that runs first switches from pair to pair, since the host's speed drifts.
For each end-to-end metric BENCHMARK.json declares, it prints both sides'
median and quartiles, the change's relative move of the median, in how
many pairs the change was better (ties count for neither side), and a
verdict against the metric's `bound`:

    worse       the change's median is worse than the parent's by more
                than the bound;
    unresolved  the parent's interquartile width exceeds the bound, and
                not every change run beats every parent run;
    ok          otherwise.

Each table ends with one line naming every metric that is worse or
unresolved. Every run's result line is kept in a temporary directory,
named in the report.

Before any timed pair, both trees run each requested workload once at
`--seconds 0 --seed 3` (the minimum session count): a change that moves
`honest_kbits_per_session`, `session_rounds.p50`, `session_rounds.max` or
`ok_share` is not a like-for-like comparison, so the script stops there,
printing both values of every metric that differs, and exits 1.

A change meant to move some of those metrics names them with
`--moves METRIC[,METRIC...]`: the seed-3 check then requires each named
metric to be better on the change's side, in the direction BENCHMARK.json
declares, on every requested workload, and every other deterministic metric
to be equal; it stops as above otherwise.
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


# The deterministic end-to-end metrics: equal on both trees at one seed
# unless the change moved what the protocol sends or decides.
DETERMINISTIC = ("honest_kbits_per_session", "session_rounds.p50",
                 "session_rounds.max", "ok_share")


def check_determinism(trees, workloads, moves=(), better=None):
    """Stop unless both trees agree on every DETERMINISTIC metric but those
    in [moves], which must instead be better on the change's side, in the
    direction [better] maps them to ("higher" or "lower")."""
    differ = []
    for workload in workloads:
        got = {side: run(trees[side], workload, 3, 0)["metrics"] for side in trees}
        for name in DETERMINISTIC:
            p, c = (got[side][name]["value"] for side in ("parent", "change"))
            print("%s seed 3 %s: parent %s, change %s" % (workload, name, p, c))
            if name in moves:
                if not (c > p if better[name] == "higher" else c < p):
                    differ.append("%s %s did not move %s (parent %s, change %s)" % (
                        workload, name, better[name], p, c))
            elif p != c:
                differ.append("%s %s (parent %s, change %s)" % (workload, name, p, c))
    if differ:
        print("perf_pairs: at --seconds 0 --seed 3: " + "; ".join(differ), file=sys.stderr)
        sys.exit(1)


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


def relative(x, base):
    """[x] as a share of [base]; a nonzero [x] over a zero base is infinite."""
    if base:
        return x / abs(base)
    return 0.0 if x == 0 else float("inf")


def verdict(better, bound, parent, change):
    """`worse`, `unresolved` or `ok` for one metric's runs (see the module doc)."""
    sign = 1 if better == "higher" else -1
    med_p, med_c = statistics.median(parent), statistics.median(change)
    if relative(sign * (med_p - med_c), med_p) > bound:
        return "worse"
    q1, q3 = quartiles(parent)
    beats_all = (min(change) > max(parent) if better == "higher"
                 else max(change) < min(parent))
    if relative(q3 - q1, med_p) > bound and not beats_all:
        return "unresolved"
    return "ok"


def report(metrics, results):
    header = "%-26s %12s %23s %12s %23s %8s %6s  %s" % (
        "metric", "parent p50", "parent q1..q3", "change p50", "change q1..q3",
        "move", "wins", "verdict")
    print(header)
    print("-" * len(header))
    pairs = len(results["parent"])
    flagged = []
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
        v = verdict(better, m["bound"], side["parent"], side["change"])
        if v != "ok":
            flagged.append("%s %s" % (name, v))
        print("%-26s %12.4g %11.4g..%-10.4g %12.4g %11.4g..%-10.4g %+7.1f%% %3d/%d  %s" % (
            name, med["parent"], q["parent"][0], q["parent"][1],
            med["change"], q["change"][0], q["change"][1], 100 * move, wins, pairs, v))
    for s in ("parent", "change"):
        attempted = sum(r["attempted"] for r in results[s])
        failed = sum(r["failed"] for r in results[s])
        print("%s: %d operations attempted, %d failed" % (s, attempted, failed))
    print("worse or unresolved: %s" % (", ".join(flagged) if flagged else "none"))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--parent", required=True, help="git revision to compare against")
    ap.add_argument("--workload", required=True,
                    help="a workload BENCHMARK.json declares, or 'all'")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=25)
    ap.add_argument("--seed-base", type=int, default=None,
                    help="first pair's seed (default: drawn from the clock)")
    ap.add_argument("--moves", default=None, metavar="METRIC[,METRIC...]",
                    help="the deterministic metrics the change is meant to move")
    args = ap.parse_args()

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        bench = json.load(f)
    metrics = bench["end_to_end"]
    moves = args.moves.split(",") if args.moves else []
    for name in moves:
        if name not in DETERMINISTIC:
            fail("--moves takes some of %s" % ", ".join(DETERMINISTIC))
    better = {m["name"]: m["better"] for m in metrics}
    declared = [w["name"] for w in bench["workloads"]]
    if args.workload == "all":
        workloads = declared
    elif args.workload in declared:
        workloads = [args.workload]
    else:
        fail("unknown workload %s (one of %s, or all)" % (args.workload, ", ".join(declared)))
    seed_base = args.seed_base if args.seed_base is not None else int(time.time()) % 100000
    out = tempfile.mkdtemp(prefix="perf-pairs-out-")

    parent = tempfile.mkdtemp(prefix="perf-pairs-parent-")
    try:
        export(args.parent, root, parent)
        trees = {"parent": parent, "change": root}
        check_determinism(trees, workloads, moves, better)
        for workload in workloads:
            results = {"parent": [], "change": []}
            for k in range(args.pairs):
                seed = seed_base + k
                order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
                for side in order:
                    r = run(trees[side], workload, seed, args.seconds)
                    results[side].append(r)
                    name = "%s-%s-%d.json" % (workload, side, seed)
                    with open(os.path.join(out, name), "w") as f:
                        json.dump(r, f)
                    print("%s pair %d seed %d %s: sessions_per_s %.4g" % (
                        workload, k + 1, seed, side,
                        r["metrics"]["sessions_per_s"]["value"]), flush=True)
            print("\n%s: %s vs the working tree, %d pairs of %d s, seeds %d..%d; raw results in %s\n" % (
                workload, args.parent, args.pairs, args.seconds, seed_base,
                seed_base + args.pairs - 1, out))
            report(metrics, results)
            print(flush=True)
    finally:
        shutil.rmtree(parent, ignore_errors=True)


if __name__ == "__main__":
    main()
