#!/usr/bin/env python3
"""Fleet benchmark entry point.

Builds the harness (and the repository libraries it links) from source,
runs one workload, checks its export digests against the recorded ones,
and prints the harness's result as the last line of standard output:

    python3 fleetbench/run.py --workload campaign|soak --seed N \
        --seconds S --trace 0|1

With --trace 0 it also runs SETUP_RUNS - 1 set-up-only processes, and
reports setup_s as the median set-up time of all of them, each counted
from its own process start.

The build goes to $CARGO_TARGET_DIR when set, else to .bench_build in the
working directory. Build output goes to standard error.
"""
import argparse
import fcntl
import json
import os
import pathlib
import statistics
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
WORKLOADS = ("campaign", "soak")
RUN_TIMEOUT_S = 170  # everything after the build
SETUP_RUNS = 5


def build(build_dir: pathlib.Path) -> pathlib.Path:
    """Configures (once) and builds the harness; returns the binary path."""
    build_dir.mkdir(parents=True, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    with open(build_dir / ".fleetbench.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not (build_dir / "CMakeCache.txt").exists():
            subprocess.run(["cmake", "-S", str(HERE), "-B", str(build_dir),
                            "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                           check=True, stdout=sys.stderr)
        subprocess.run(["cmake", "--build", str(build_dir), "-j", jobs,
                        "--target", "fleetbench"], check=True, stdout=sys.stderr)
    return build_dir / "fleetbench"


def harness(binary: pathlib.Path, args, extra, deadline: float) -> str:
    """Runs the harness once and returns its standard output."""
    proc = subprocess.run(
        [str(binary), "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), *extra],
        stdout=subprocess.PIPE, text=True, timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        raise RuntimeError(f"harness exited with {proc.returncode}")
    return proc.stdout


def field(lines, name: str):
    values = [l.split("=", 1)[1] for l in lines if l.startswith(name + "=")]
    return values[-1] if values else None


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    build_dir = pathlib.Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build")).resolve()
    try:
        binary = build(build_dir)
        recorded = json.loads((HERE / "expected_digests.json").read_text())
        deadline = time.monotonic() + RUN_TIMEOUT_S
        lines = harness(binary, args, ["--trace", str(args.trace)],
                        deadline).strip().splitlines()
        result = json.loads(lines[-1])
        setups = []
        if args.trace == 0:
            setups = [result["metrics"]["setup_s"]["value"]]
            for _ in range(SETUP_RUNS - 1):
                out = harness(binary, args, ["--setup-only", "1"], deadline)
                setups.append(float(field(out.splitlines(), "setup_s")))
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired, OSError,
            RuntimeError, IndexError, KeyError, TypeError, ValueError) as err:
        print(f"fleetbench: {err}", file=sys.stderr)
        return 1

    digest = field(lines, "export_digest")
    canary = field(lines, "canary_digest")
    print(f"export_digest={digest}")
    print(f"canary_digest={canary}")
    if canary != recorded["canary"][args.workload]:
        print(f"fleetbench: canary digest {canary} differs from the recorded "
              f"{recorded['canary'][args.workload]}", file=sys.stderr)
        result["correct"] = False
    want = recorded["runs"].get(args.workload, {}).get(str(args.seconds), {}).get(str(args.seed))
    if want is not None and want != digest:
        print(f"fleetbench: export digest {digest} differs from the recorded {want}",
              file=sys.stderr)
        result["correct"] = False
    if setups:
        result["metrics"]["setup_s"]["value"] = statistics.median(setups)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
