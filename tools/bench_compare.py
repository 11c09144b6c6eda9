#!/usr/bin/env python3
"""Gate a BENCH_*.json report against a committed baseline.

Benchmark drivers (bench/bench_report.hh) emit BENCH_<name>.json with
raw timed runs plus derived scalar metrics. The raw wall-clock numbers
are machine-specific, so this gate compares only the *metrics* —
mostly ratios, which are stable across hosts because both sides of
each ratio run interleaved on the same machine (see bench/micro_opg.cc).

A metric whose key starts with "max_" is a CEILING, where lower is
better (e.g. max_peak_rss_mb, or max_opg_lru_ratio, the OPG replay
time over LRU's): it fails when the current value rises above

    baseline * (1 + tolerance), or
    an explicit ceiling given with --max key=value.

Every other metric is a FLOOR, where higher is better (e.g. a
speedup): it fails when the current value drops below

    baseline * (1 - tolerance)        (ratio regression), or
    an explicit floor given with --min key=value.

A metric present in the baseline but missing from the current report
is an error (a silently dropped measurement must not read as a pass).

With --trend PATH, an entry for the current report — git revision,
wall clock, and every metric — is appended to a JSON-array trend file
(created if absent) so regressions that stay inside the gate's
tolerance are still visible as a drift series across commits. The
append happens even when the gate fails, recording the failure point.

Usage:
    bench_compare.py CURRENT.json BASELINE.json \
        [--tolerance 0.25] [--min serve_mrps=1.0] \
        [--max max_opg_lru_ratio=3.75] [--trend BENCH_TREND.json] ...
"""

import argparse
import json
import sys

# Top-level keys that are bookkeeping, not gated metrics.
NON_METRIC_KEYS = {
    "bench",
    "git",
    "jobs",
    "wall_ms",
    "requests",
    "requests_per_sec",
    "runs",
}


def metrics_of(report):
    # Keys prefixed "info_" are informational context (e.g. latency
    # percentiles, which are machine-specific) and never gated.
    return {
        k: v
        for k, v in report.items()
        if k not in NON_METRIC_KEYS and not k.startswith("info_")
        and isinstance(v, (int, float))
    }


def parse_bound(spec):
    key, sep, value = spec.partition("=")
    if not sep or not key:
        raise argparse.ArgumentTypeError(
            f"expected key=value, got {spec!r}")
    try:
        return key, float(value)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            f"{spec!r}: {exc}") from exc


def load(path):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        sys.exit(f"bench_compare: cannot read {path}: {exc}")


def append_trend(path, report):
    """Append this run's metrics to the JSON-array trend file."""
    entries = []
    try:
        with open(path, encoding="utf-8") as fh:
            entries = json.load(fh)
        if not isinstance(entries, list):
            sys.exit(f"bench_compare: {path} is not a JSON array")
    except FileNotFoundError:
        pass
    except (OSError, json.JSONDecodeError) as exc:
        sys.exit(f"bench_compare: cannot read trend {path}: {exc}")
    entry = {
        "bench": report.get("bench"),
        "git": report.get("git"),
        "jobs": report.get("jobs"),
        "wall_ms": report.get("wall_ms"),
    }
    # Gated and informational metrics alike: the trend is for eyes,
    # not gates, and info_ values (e.g. peak RSS per phase) are the
    # first place drift shows up.
    for key, value in report.items():
        if key not in NON_METRIC_KEYS and isinstance(
                value, (int, float)):
            entry[key] = value
    entries.append(entry)
    try:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(entries, fh, indent=1)
            fh.write("\n")
    except OSError as exc:
        sys.exit(f"bench_compare: cannot write trend {path}: {exc}")
    print(f"bench_compare: appended run {len(entries)} to {path}")


def main():
    ap = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("current", help="freshly produced BENCH_*.json")
    ap.add_argument("baseline", help="committed baseline report")
    ap.add_argument(
        "--tolerance", type=float, default=0.25,
        help="allowed fractional drop below the baseline ratio "
             "(default 0.25; benchmark noise on a busy host is "
             "bursty, so the slack is generous — hard floors "
             "belong in --min)")
    ap.add_argument(
        "--min", dest="floors", type=parse_bound, action="append",
        default=[], metavar="KEY=VALUE",
        help="absolute floor for a metric, checked in addition to "
             "the baseline-relative tolerance")
    ap.add_argument(
        "--max", dest="ceilings", type=parse_bound, action="append",
        default=[], metavar="KEY=VALUE",
        help="absolute ceiling for a \"max_\"-prefixed metric, "
             "checked in addition to the baseline-relative tolerance")
    ap.add_argument(
        "--trend", metavar="PATH",
        help="append this run's git revision, wall clock, and "
             "metrics to a JSON-array trend file (created if absent)")
    args = ap.parse_args()

    current = load(args.current)
    baseline = load(args.baseline)
    if args.trend:
        append_trend(args.trend, current)
    if current.get("bench") != baseline.get("bench"):
        sys.exit("bench_compare: reports are from different "
                 f"benchmarks ({current.get('bench')!r} vs "
                 f"{baseline.get('bench')!r})")

    cur = metrics_of(current)
    base = metrics_of(baseline)
    floors = dict(args.floors)
    ceilings = dict(args.ceilings)
    failures = []

    print(f"bench_compare: {current.get('bench')} "
          f"(current {current.get('git', '?')}, "
          f"baseline {baseline.get('git', '?')})")
    for key in sorted(base):
        if key not in cur:
            failures.append(f"{key}: missing from current report")
            continue
        if key.startswith("max_"):
            # Ceiling metric: lower is better (e.g. peak RSS).
            threshold = base[key] * (1.0 + args.tolerance)
            ceiling = ceilings.pop(key, None)
            bound = (threshold if ceiling is None
                     else min(threshold, ceiling))
            ok = cur[key] <= bound
            verdict = "ok" if ok else "FAIL"
            note = "" if ceiling is None else f", ceiling {ceiling:.2f}"
            print(f"  {key}: {cur[key]:.2f} "
                  f"(baseline {base[key]:.2f}, "
                  f"needs <= {bound:.2f}{note}) {verdict}")
            if not ok:
                failures.append(
                    f"{key}: {cur[key]:.2f} > {bound:.2f}")
            continue
        threshold = base[key] * (1.0 - args.tolerance)
        floor = floors.pop(key, None)
        bound = threshold if floor is None else max(threshold, floor)
        ok = cur[key] >= bound
        verdict = "ok" if ok else "FAIL"
        floor_note = "" if floor is None else f", floor {floor:.2f}"
        print(f"  {key}: {cur[key]:.2f} "
              f"(baseline {base[key]:.2f}, "
              f"needs >= {bound:.2f}{floor_note}) {verdict}")
        if not ok:
            failures.append(
                f"{key}: {cur[key]:.2f} < {bound:.2f}")
    for key, floor in floors.items():
        # Floors for metrics absent from the baseline still apply.
        if key not in cur:
            failures.append(f"{key}: missing from current report")
        elif cur[key] < floor:
            failures.append(f"{key}: {cur[key]:.2f} < floor {floor}")
        else:
            print(f"  {key}: {cur[key]:.2f} (floor {floor}) ok")
    for key, ceiling in ceilings.items():
        # Ceilings for metrics absent from the baseline still apply.
        if key not in cur:
            failures.append(f"{key}: missing from current report")
        elif cur[key] > ceiling:
            failures.append(
                f"{key}: {cur[key]:.2f} > ceiling {ceiling}")
        else:
            print(f"  {key}: {cur[key]:.2f} (ceiling {ceiling}) ok")

    if failures:
        print("bench_compare: REGRESSION", file=sys.stderr)
        for f in failures:
            print(f"  {f}", file=sys.stderr)
        return 1
    print("bench_compare: all metrics within tolerance")
    return 0


if __name__ == "__main__":
    sys.exit(main())
