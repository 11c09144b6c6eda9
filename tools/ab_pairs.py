#!/usr/bin/env python3
"""Alternating base/change pairs of the repo benchmark (perfbench).

    python3 tools/ab_pairs.py --workload oltp-palru --seed 1 --pairs 10 \\
        --seconds 20 --claim throughput_mreq_s

Run from anywhere inside a source tree; that tree is the change. The
base (--base REV, default: the merge base of HEAD with main) is
checked out into a temporary git worktree, or taken from an existing
checkout with --base-dir. Both trees run `python3 perfbench/run.py`,
pair by pair, alternating which side goes first so slow host phases
land on both sides. One unrecorded warm-up run per side builds
perfbench and generates the input first.

Printed, for every end-to-end metric of BENCHMARK.json: each run's
value, each side's median and quartiles, and the median ratio
(change / base) against the metric's bound. Host-time metrics (units
Mreq/s, s, MiB) may move within their bound; every other metric is
simulated and must read the same in every run of both sides. For the
--claim metric, the number of pairs the change won and the verdict
by the repo's claim rule: the change wins at least 9 of every 10
pairs, and the medians differ, in the better direction, by more than
the base's interquartile range.

Exit status: 0 when no run failed, no simulated metric differs, no
metric is worse than its bound and the claim (if any) holds; 1
otherwise. Measurement only: no gate runs this script. The temporary
worktree is removed on every exit path.
"""

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile

HOST_UNITS = {"Mreq/s", "s", "MiB"}
CLAIM_WIN_FRACTION = 0.9


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def git(*args, cwd):
    return subprocess.run(["git", *args], cwd=cwd, check=True, text=True,
                          stdout=subprocess.PIPE).stdout.strip()


def run_bench(tree, workload, seed, seconds):
    """One perfbench run; returns (metrics dict or None, failure text)."""
    cmd = [sys.executable, os.path.join(tree, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds)]
    proc = subprocess.run(cmd, cwd=tree, text=True, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode or not lines:
        return None, f"exit {proc.returncode}"
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        return None, "no JSON result line"
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    if not result["correct"] or result["failed"]:
        return metrics, (f"correct={result['correct']} "
                         f"failed={result['failed']} of "
                         f"{result['attempted']}")
    return metrics, None


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[2]


def better(metric, a, b):
    """True if value a is strictly better than value b."""
    return a > b if metric["better"] == "higher" else a < b


def fmt(v):
    return f"{v:.6g}"


def report(spec, runs, claim, pairs):
    """Print the tables; return the number of problems found."""
    problems = 0
    for side in ("base", "change"):
        for i, (metrics, failure) in enumerate(runs[side]):
            if failure:
                print(f"FAILED RUN: {side} pair {i}: {failure}")
                problems += 1
    ok_pairs = [i for i in range(pairs)
                if runs["base"][i][0] is not None and
                runs["change"][i][0] is not None]
    if not ok_pairs:
        print("no pair produced metrics on both sides")
        return problems + 1

    for m in spec["end_to_end"]:
        name = m["name"]
        base = [runs["base"][i][0][name] for i in ok_pairs]
        change = [runs["change"][i][0][name] for i in ok_pairs]
        print(f"\n{name} ({m['unit']}, {m['better']} is better, "
              f"bound {m['bound']})")
        for i, (b, c) in zip(ok_pairs, zip(base, change)):
            print(f"  pair {i:2d}  base {fmt(b):>12}  change {fmt(c):>12}")
        b_med, c_med = statistics.median(base), statistics.median(change)
        b_q1, b_q3 = quartiles(base)
        c_q1, c_q3 = quartiles(change)
        print(f"  base    median {fmt(b_med)}  quartiles "
              f"{fmt(b_q1)} .. {fmt(b_q3)}")
        print(f"  change  median {fmt(c_med)}  quartiles "
              f"{fmt(c_q1)} .. {fmt(c_q3)}")

        if m["unit"] not in HOST_UNITS:
            if len(set(base + change)) > 1:
                print("  SIMULATED METRIC DIFFERS between runs or sides")
                problems += 1
            else:
                print("  simulated: identical in every run")
            continue

        ratio = c_med / b_med if b_med else math.inf
        worse = (ratio < 1 - m["bound"] if m["better"] == "higher"
                 else ratio > 1 + m["bound"])
        wins = sum(better(m, c, b) for b, c in zip(base, change))
        print(f"  median ratio change/base {ratio:.4f}: "
              f"{'WORSE THAN BOUND' if worse else 'within bound'}; "
              f"change better in {wins} of {len(ok_pairs)} pairs")
        problems += worse

        if name == claim:
            iqr = b_q3 - b_q1
            gap = c_med - b_med if m["better"] == "higher" else b_med - c_med
            won_enough = wins >= math.ceil(CLAIM_WIN_FRACTION * pairs)
            holds = won_enough and gap > iqr
            print(f"  CLAIM {name}: change won {wins} of {pairs} pairs; "
                  f"median gap {fmt(gap)} vs base IQR {fmt(iqr)}: "
                  f"{'HOLDS' if holds else 'DOES NOT HOLD'}")
            problems += not holds
    return problems


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--base", help="base revision (default: merge base "
                    "of HEAD with main)")
    ap.add_argument("--base-dir", help="use this existing checkout of the "
                    "base instead of a temporary worktree")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--claim", help="end-to-end metric the change claims "
                    "to improve")
    args = ap.parse_args()
    if args.pairs < 1:
        ap.error("--pairs must be positive")

    here = os.path.dirname(os.path.abspath(__file__))
    change_tree = git("rev-parse", "--show-toplevel", cwd=here)
    with open(os.path.join(change_tree, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.claim and args.claim not in {m["name"]
                                         for m in spec["end_to_end"]}:
        ap.error(f"--claim {args.claim} is not an end-to-end metric of "
                 "BENCHMARK.json")

    # Turn SIGTERM/SIGHUP into SystemExit so the cleanup below runs.
    def on_signal(signum, _frame):
        raise SystemExit(f"ab_pairs: interrupted by signal {signum}")
    for sig in (signal.SIGTERM, signal.SIGHUP):
        signal.signal(sig, on_signal)

    tmp_root = None
    worktree = None
    try:
        if args.base_dir:
            base_tree = os.path.abspath(args.base_dir)
            base_rev = args.base or "(checkout)"
        else:
            base_rev = args.base or git("merge-base", "HEAD", "main",
                                        cwd=change_tree)
            tmp_root = tempfile.mkdtemp(prefix="ab_pairs.")
            worktree = os.path.join(tmp_root, "base")
            git("worktree", "add", "--detach", worktree, base_rev,
                cwd=change_tree)
            base_tree = worktree
        log(f"ab_pairs: base {base_rev} in {base_tree}, change "
            f"{change_tree}; {args.workload} seed {args.seed}, "
            f"{args.pairs} pairs of {args.seconds} s")

        trees = {"base": base_tree, "change": change_tree}
        for side, tree in trees.items():
            log(f"ab_pairs: warm-up (build + input) for {side}")
            _, failure = run_bench(tree, args.workload, args.seed, 1)
            if failure:
                raise SystemExit(f"ab_pairs: {side} warm-up failed: "
                                 f"{failure}")

        runs = {"base": [], "change": []}
        for i in range(args.pairs):
            order = ("base", "change") if i % 2 == 0 else ("change", "base")
            for side in order:
                runs[side].append(run_bench(trees[side], args.workload,
                                            args.seed, args.seconds))
            log(f"ab_pairs: pair {i + 1}/{args.pairs} done "
                f"({order[0]} first)")

        print(f"base {base_rev}  change {change_tree}  workload "
              f"{args.workload}  seed {args.seed}  {args.pairs} pairs of "
              f"{args.seconds} s")
        problems = report(spec, runs, args.claim, args.pairs)
        print(f"\n{problems} problem(s)")
        return 1 if problems else 0
    finally:
        if worktree:
            subprocess.run(["git", "worktree", "remove", "--force",
                            worktree], cwd=change_tree,
                           stdout=subprocess.DEVNULL,
                           stderr=subprocess.DEVNULL)
            subprocess.run(["git", "worktree", "prune"], cwd=change_tree,
                           stdout=subprocess.DEVNULL,
                           stderr=subprocess.DEVNULL)
        if tmp_root:
            shutil.rmtree(tmp_root, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
