#!/usr/bin/env python3
"""Semantic-diff gate over the pinned session export matrix.

Runs the session_export binary over the two pinned sessions (base and
attack: a scripted spoof and replay campaign) and byte-compares each
variant's stdout against its committed golden. The deterministic export
contains every registry counter and flight-recorder event of the full
stack for that session, so ANY behaviour change — sim, sensors, radio,
security, safety — shows up as a byte diff here and fails CI, even when
every invariant-style test still passes. Intentional changes re-bless:

    python3 scripts/export_diff_gate.py --binary build/tools/session_export \
        --matrix --update

which also prints a structured summary of which counters/gauges moved
(old -> new per variant), so the golden diff in review is readable.

Variant goldens live at tests/golden/session_export.json (base) and
tests/golden/session_export.<variant>.json.

Exit codes: 0 = all match (or goldens updated), 1 = mismatch / missing
golden, 2 = usage or binary failure.
"""

import argparse
import difflib
import json
import pathlib
import subprocess
import sys

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
GOLDEN_DIR = REPO_ROOT / "tests" / "golden"
VARIANTS = ("base", "attack")


def golden_for(variant: str) -> pathlib.Path:
    if variant == "base":
        return GOLDEN_DIR / "session_export.json"
    return GOLDEN_DIR / f"session_export.{variant}.json"


def run_variant(binary: str, variant: str):
    """Returns stdout bytes, or None after printing the failure."""
    try:
        proc = subprocess.run([binary, variant], capture_output=True,
                              timeout=600)
    except (OSError, subprocess.TimeoutExpired) as err:
        print(f"export-diff: failed to run {binary} {variant}: {err}",
              file=sys.stderr)
        return None
    if proc.returncode != 0:
        sys.stderr.buffer.write(proc.stderr)
        print(f"export-diff: {binary} {variant} exited {proc.returncode}",
              file=sys.stderr)
        return None
    return proc.stdout


def metric_scalars(blob: bytes) -> dict:
    """Flattens metrics.counters and metrics.gauges to one name->value map;
    empty on parse failure (the byte diff still carries the gate)."""
    try:
        metrics = json.loads(blob)["metrics"]
    except (ValueError, KeyError):
        return {}
    out = {}
    for section in ("counters", "gauges"):
        for name, value in metrics.get(section, {}).items():
            out[name] = value
    return out


def print_counter_moves(variant: str, old: bytes, new: bytes) -> None:
    """Structured re-bless summary: which scalars moved, old -> new."""
    before, after = metric_scalars(old), metric_scalars(new)
    moved = [(name, before.get(name), after.get(name))
             for name in sorted(set(before) | set(after))
             if before.get(name) != after.get(name)]
    if not moved:
        print(f"  [{variant}] no counter/gauge movement "
              "(flight-recorder or histogram change)")
        return
    print(f"  [{variant}] {len(moved)} counter(s)/gauge(s) moved:")
    for name, old_value, new_value in moved:
        print(f"    {name}: {old_value} -> {new_value}")


def check_variant(binary: str, variant: str, golden_path: pathlib.Path,
                  update: bool) -> int:
    current = run_variant(binary, variant)
    if current is None:
        return 2

    if update:
        old = golden_path.read_bytes() if golden_path.exists() else b""
        golden_path.parent.mkdir(parents=True, exist_ok=True)
        golden_path.write_bytes(current)
        print(f"export-diff: blessed {len(current)} bytes -> {golden_path}")
        if old and old != current:
            print_counter_moves(variant, old, current)
        return 0

    if not golden_path.exists():
        print(f"export-diff: golden {golden_path} missing; run with --update",
              file=sys.stderr)
        return 1

    golden = golden_path.read_bytes()
    if golden == current:
        print(f"export-diff: [{variant}] OK "
              f"({len(current)} bytes, byte-identical)")
        return 0

    print(f"export-diff: [{variant}] MISMATCH against committed golden",
          file=sys.stderr)
    diff = difflib.unified_diff(
        golden.decode(errors="replace").splitlines(keepends=True),
        current.decode(errors="replace").splitlines(keepends=True),
        fromfile=str(golden_path),
        tofile=f"session_export {variant} (current build)",
    )
    shown = 0
    for line in diff:
        sys.stderr.write(line)
        shown += 1
        if shown >= 200:
            sys.stderr.write("... (diff truncated)\n")
            break
    print("export-diff: if this change is intentional, re-bless with "
          "--update and commit the golden diff", file=sys.stderr)
    return 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--binary", required=True,
                        help="path to the session_export binary")
    parser.add_argument("--variant", choices=VARIANTS, default="base",
                        help="single variant to gate (default: base)")
    parser.add_argument("--matrix", action="store_true",
                        help="gate every variant in the pinned matrix")
    parser.add_argument("--golden", default=None,
                        help="override the golden path (single-variant only)")
    parser.add_argument("--update", action="store_true",
                        help="rewrite the golden(s) from the current binary "
                             "and summarize counter movement")
    args = parser.parse_args()

    if args.matrix and args.golden:
        print("export-diff: --golden conflicts with --matrix", file=sys.stderr)
        return 2

    variants = VARIANTS if args.matrix else (args.variant,)
    worst = 0
    for variant in variants:
        golden_path = (pathlib.Path(args.golden)
                       if args.golden else golden_for(variant))
        worst = max(worst,
                    check_variant(args.binary, variant, golden_path,
                                  args.update))
    return worst


if __name__ == "__main__":
    sys.exit(main())
