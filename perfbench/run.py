#!/usr/bin/env python3
"""PACache end-to-end benchmark: one command, four workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Run from the root of a source tree. The script builds perfbench (the
pacache library from src/ plus the driver in this directory) into
.bench_build/, generates the workload's input from the seed with the
library's streaming generators (cached in .bench_build/inputs by
workload, seed and size, never timed), runs it, and prints the
driver's report followed, as the last line, by one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1
its per-layer metrics (isolated layer replays, written as spans to
.bench_build/out/<workload>-s<seed>.trace.json). --selftest runs every
workload on tiny inputs and checks that every metric is printed with
its unit and that every correctness gate passes.
"""

import argparse
import json
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench")
INPUTS = os.path.join(BUILD, "inputs")
TMP = os.path.join(BUILD, "tmp")
OUT = os.path.join(BUILD, "out")
KEEP_INPUTS = 12  # cached input files kept, most recently used first


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configure (once) and build; the build output goes to stderr."""
    jobs = str(max(1, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            raise SystemExit("perfbench: build failed: " + " ".join(cmd))


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def input_for(workload, seed, tiny):
    """The workload's seeded input, generated on first use."""
    os.makedirs(INPUTS, exist_ok=True)
    size = "tiny" if tiny else "full"
    path = os.path.join(INPUTS, f"{workload}-s{seed}-{size}.pct")
    if not os.path.exists(path):
        cmd = [BINARY, "gen", "--workload", workload, "--seed", str(seed),
               "--out", path] + (["--tiny"] if tiny else [])
        if subprocess.run(cmd, stdout=sys.stderr).returncode:
            raise SystemExit(f"perfbench: cannot generate {path}")
    os.utime(path)
    cached = sorted((os.path.join(INPUTS, n) for n in os.listdir(INPUTS)
                     if n.endswith(".pct")),
                    key=os.path.getmtime, reverse=True)
    for old in cached[KEEP_INPUTS:]:
        os.remove(old)
    return path


def run(workload, seed, seconds, trace, tiny=False):
    """Run one workload; returns (result dict, report lines)."""
    names = [w["name"] for w in spec()["workloads"]]
    if workload not in names:
        raise SystemExit(f"perfbench: unknown workload '{workload}' "
                         f"(have {', '.join(names)})")
    path = input_for(workload, seed, tiny)
    os.makedirs(TMP, exist_ok=True)
    os.makedirs(OUT, exist_ok=True)
    cmd = [BINARY, "run", "--workload", workload, "--input", path,
           "--seconds", str(seconds), "--trace", str(trace),
           "--tmp", TMP] + (["--tiny"] if tiny else [])
    if trace:
        cmd += ["--spans",
                os.path.join(OUT, f"{workload}-s{seed}.trace.json")]
    env = dict(os.environ, TMPDIR=TMP)
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=env)
    lines = proc.stdout.splitlines()
    results = [l for l in lines if l.startswith("RESULT ")]
    if proc.returncode or not results:
        sys.stdout.write(proc.stdout)
        raise SystemExit(f"perfbench: run failed (exit {proc.returncode})")
    report = [l for l in lines if not l.startswith("RESULT ")]
    return json.loads(results[-1][len("RESULT "):]), report


def select_metrics(result, trace):
    """Exactly the metrics BENCHMARK.json names for this mode."""
    wanted = spec()["per_layer" if trace else "end_to_end"]
    got = result["metrics"]
    out = {}
    for m in wanted:
        if m["name"] not in got:
            raise SystemExit(f"perfbench: metric {m['name']} missing")
        if got[m["name"]]["unit"] != m["unit"]:
            raise SystemExit(f"perfbench: metric {m['name']} has unit "
                             f"{got[m['name']]['unit']}, want {m['unit']}")
        out[m["name"]] = got[m["name"]]
    return out


def selftest():
    """Every workload, both modes, on tiny inputs."""
    failures = 0
    for w in spec()["workloads"]:
        for trace in (0, 1):
            result, _ = run(w["name"], 1, 1, trace, tiny=True)
            select_metrics(result, trace)
            ok = result["correct"] and result["failed"] == 0
            failures += not ok
            log(f"selftest {w['name']} trace={trace}: "
                f"{'ok' if ok else 'FAILED'} "
                f"({result['attempted']} runs, "
                f"{len(result['metrics'])} metrics)")
    if failures:
        raise SystemExit(f"perfbench: selftest failed ({failures})")
    log("selftest ok")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    if not os.path.isdir(os.path.join(ROOT, "src")):
        raise SystemExit("perfbench: no pacache sources next to perfbench/")
    build()
    if args.selftest:
        selftest()
        return
    if not args.workload:
        ap.error("--workload is required")
    if args.seed < 0:
        ap.error("--seed must be non-negative")
    result, report = run(args.workload, args.seed, args.seconds, args.trace)
    for line in report:
        print(line)
    metrics = select_metrics(result, args.trace)
    print(json.dumps({"correct": bool(result["correct"]),
                      "attempted": int(result["attempted"]),
                      "failed": int(result["failed"]),
                      "metrics": metrics}), flush=True)


if __name__ == "__main__":
    main()
