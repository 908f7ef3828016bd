#!/usr/bin/env bash
# Tier-1 verification: full build + test suite, then a sanitizer pass
# (ASan + UBSan) over the subsystems touched by the hot-loop work, then a
# ThreadSanitizer pass over the suites that start threads.
# Usage: scripts/check.sh [--full-asan]   (--full-asan runs every test
# suite under the sanitizers instead of just the hot-loop ones)
set -euo pipefail
cd "$(dirname "$0")/.."

JOBS="$(nproc)"

# Runs a gtest binary under --gtest_filter, failing first when any of the
# filter's ':'-separated patterns selects no test: gtest passes an empty
# selection silently, so a renamed or deleted suite would drop out of the
# gate unnoticed.
run_filtered() {
  local binary="$1" filter="$2" pattern count
  local -a patterns
  IFS=':' read -ra patterns <<< "$filter"
  for pattern in "${patterns[@]}"; do
    count="$("$binary" --gtest_list_tests --gtest_filter="$pattern" | grep -c '^  ' || true)"
    if [[ "$count" -eq 0 ]]; then
      echo "check.sh: filter '$pattern' selects no test in $binary" >&2
      exit 1
    fi
  done
  "$binary" --gtest_filter="$filter"
}

echo "== tier-1: build + ctest =="
cmake -B build -S . >/dev/null
cmake --build build -j "$JOBS"
ctest --test-dir build --output-on-failure -j "$JOBS"

echo "== console smoke: live endpoints + control plane + streaming =="
# Ephemeral ports, a raw-socket /metrics fetch, a pause/step/resume round
# trip over the secure control channel, an SSE flight-recorder stream,
# and a scripted control-plane attack that must trip the console's IDS
# sensor — the end-to-end path a CI regression in the net/ or service/
# layers would break first.
./build/examples/fleet_console --smoke

echo "== static analysis: agrarsec-lint over the committed models =="
# Gate on NEW findings only: everything in the checked-in baseline is
# known backlog; any un-baselined error finding fails the stage.
./build/tools/agrarsec_lint --model=all --baseline=.agrarsec-lint-baseline.json
# The deliberately-defective model must keep tripping the non-zero exit —
# this proves the gate actually gates.
if ./build/tools/agrarsec_lint --model=defective >/dev/null; then
  echo "check.sh: defective model linted clean — the lint gate is broken" >&2
  exit 1
fi

echo "== static analysis: clang-tidy (skips when not installed) =="
./scripts/tidy.sh build

echo "== sanitizers: ASan + UBSan =="
cmake -B build-asan -S . -DAGRARSEC_SANITIZE=ON -DCMAKE_BUILD_TYPE=Debug >/dev/null
if [[ "${1:-}" == "--full-asan" ]]; then
  cmake --build build-asan -j "$JOBS"
  ctest --test-dir build-asan --output-on-failure -j "$JOBS"
else
  # The suites covering the spatial index, radio heap, event bus and
  # worksite compaction paths.
  cmake --build build-asan -j "$JOBS" --target core_test net_test sim_test
  ./build-asan/tests/core_test
  ./build-asan/tests/net_test
  ./build-asan/tests/sim_test
fi

echo "== sanitizers: TSan over the threaded paths =="
# The suites that actually run threads: the thread pool itself, the
# mutex-guarded logger under concurrent writers + sink swaps, the fleet
# service batching whole sessions across the pool (the only level of
# simulation parallelism), and the console's HTTP + control server
# threads snapshotting and pausing against concurrent step_all batches.
# A data race between sessions fails here even though the parity tests
# (which compare outcomes, not interleavings) might still pass. The
# net_test torture suite and the ConsoleStream/ConsoleSensor suites add
# the poll-driven HTTP server under concurrent clients, SSE subscribers
# against a stepping fleet, and the control-plane IDS sensor written by
# the control thread while /ids reads it.
cmake -B build-tsan -S . -DAGRARSEC_TSAN=ON -DCMAKE_BUILD_TYPE=Debug >/dev/null
cmake --build build-tsan -j "$JOBS" --target core_test net_test service_test
run_filtered ./build-tsan/tests/core_test 'ThreadPool*:LogThreadSafety*'
run_filtered ./build-tsan/tests/net_test 'HttpServerTorture*'
run_filtered ./build-tsan/tests/service_test 'FleetServiceParallel*:ConsoleParallel*:ConsoleStream*:ConsoleSensor*'

echo "== all checks passed =="
