#!/usr/bin/env python3
"""Benchmark regression gate over "BENCH name=value" lines.

The benchmarks (bench_fleet_scale, bench_planner) print machine-readable
summary lines of the form

    BENCH worksite_steps_per_sec=59183

This script compares them against the tracked baseline (BENCH_baseline.json)
and fails when

  * any "*_mismatches" metric is non-zero (parity is a hard invariant), or
  * any "*_exact" metric differs from its baseline in either direction
    (these carry deterministic semantics — planner cache hit rate, radio
    drop counts — from full-length runs, so a behaviour change cannot
    hide inside the perf tolerance), or
  * any other metric fell more than --tolerance (default 30%) below its
    baseline value.

Rates above baseline never fail; run with --update after a deliberate
performance change (or on new reference hardware) to rewrite the baseline
from the captured output. Absolute rates vary between machines, which is
what the generous default tolerance absorbs — the gate catches collapses,
not noise.

Re-blessing convention: capture FULL-LENGTH runs (no --quick), e.g.

    ./build/bench/bench_planner | tee bench_planner.out
    ./build/bench/bench_fleet_scale --threads=0 --sessions 64 | tee bench_fleet.out
    python3 scripts/bench_gate.py --update BENCH_baseline.json \
        bench_planner.out bench_fleet.out

then hand-trim every "*_parallel*" key from BENCH_baseline.json before
committing: parallel rates fold in the runner's core count and thread
scaling, so they are machine-dependent in a way the tolerance cannot
absorb (a 2-core CI runner is not 30% slower than an 8-core dev box —
it is several times slower). Serial rates, ray-cast throughput and the
exact/mismatch counters are what the gate tracks; unknown keys in the
output are printed but never gate, so the parallel rates remain visible
in CI logs without failing them.

Usage:
    bench_gate.py [--update] [--tolerance 0.30] BASELINE OUTPUT...
    (OUTPUT files hold captured benchmark stdout; "-" reads stdin)
"""

import argparse
import json
import re
import sys

BENCH_LINE = re.compile(r"^BENCH\s+([A-Za-z0-9_]+)=(-?[0-9.]+)\s*$")


def parse_bench_lines(paths):
    values = {}
    for path in paths:
        stream = sys.stdin if path == "-" else open(path, encoding="utf-8")
        with stream:
            for line in stream:
                match = BENCH_LINE.match(line.strip())
                if match:
                    values[match.group(1)] = float(match.group(2))
    return values


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("baseline", help="tracked baseline JSON")
    parser.add_argument("outputs", nargs="+", help="benchmark stdout captures")
    parser.add_argument("--update", action="store_true",
                        help="rewrite the baseline from the captured values")
    parser.add_argument("--tolerance", type=float, default=0.30,
                        help="allowed fractional regression (default 0.30)")
    args = parser.parse_args()

    current = parse_bench_lines(args.outputs)
    if not current:
        print("bench_gate: no BENCH lines found in input", file=sys.stderr)
        return 1

    failures = []
    for name, value in sorted(current.items()):
        if name.endswith("_mismatches") and value != 0:
            failures.append(f"{name}={value:g} (parity must be 0)")

    if args.update:
        with open(args.baseline, "w", encoding="utf-8") as f:
            json.dump({k: current[k] for k in sorted(current)}, f, indent=2)
            f.write("\n")
        print(f"bench_gate: baseline {args.baseline} updated "
              f"({len(current)} metrics)")
        return 1 if failures else 0

    try:
        with open(args.baseline, encoding="utf-8") as f:
            baseline = json.load(f)
    except FileNotFoundError:
        print(f"bench_gate: baseline {args.baseline} missing "
              "(run with --update to create it)", file=sys.stderr)
        return 1

    for name, base in sorted(baseline.items()):
        if name.endswith("_mismatches"):
            continue  # gated on the current value above, not on deltas
        if name not in current:
            failures.append(f"{name}: missing from benchmark output")
            continue
        if name.endswith("_exact"):
            # Semantic counter: exact match required, both directions.
            status = "ok" if current[name] == base else "CHANGED"
            print(f"bench_gate: {name}: {current[name]:g} vs baseline "
                  f"{base:g} (exact) {status}")
            if current[name] != base:
                failures.append(
                    f"{name}={current[name]:g} != baseline {base:g} "
                    "(exact-match metric; rerun full-length and --update "
                    "after a deliberate behaviour change)")
            continue
        floor = base * (1.0 - args.tolerance)
        status = "ok" if current[name] >= floor else "REGRESSED"
        print(f"bench_gate: {name}: {current[name]:g} vs baseline {base:g} "
              f"(floor {floor:g}) {status}")
        if current[name] < floor:
            failures.append(
                f"{name}={current[name]:g} fell below {floor:g} "
                f"(baseline {base:g}, tolerance {args.tolerance:.0%})")

    for name in sorted(set(current) - set(baseline)):
        print(f"bench_gate: {name}: {current[name]:g} (no baseline; "
              "add with --update)")

    if failures:
        print("bench_gate: FAIL", file=sys.stderr)
        for failure in failures:
            print(f"  {failure}", file=sys.stderr)
        return 1
    print("bench_gate: all metrics within tolerance")
    return 0


if __name__ == "__main__":
    sys.exit(main())
