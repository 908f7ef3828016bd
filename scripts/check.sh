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
# gate unnoticed. Arguments after the filter go to the binary as they are
# (e.g. --gtest_repeat=N).
run_filtered() {
  local binary="$1" filter="$2" pattern count
  shift 2
  local -a patterns
  IFS=':' read -ra patterns <<< "$filter"
  for pattern in "${patterns[@]}"; do
    count="$("$binary" --gtest_list_tests --gtest_filter="$pattern" | grep -c '^  ' || true)"
    if [[ "$count" -eq 0 ]]; then
      echo "check.sh: filter '$pattern' selects no test in $binary" >&2
      exit 1
    fi
  done
  "$binary" --gtest_filter="$filter" "$@"
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
  # The suites covering the worksite's entity scans and pile compaction,
  # the radio heap, the event bus, the crypto primitives (empty-span
  # inputs included), plus the console's JSON-RPC decoder fed hostile input:
  # nesting past Json::kMaxDepth and integer params out of range (the
  # float-cast-overflow shape). The in-place record path (DESIGN.md §25)
  # adds secure_test, ids_test and integration_test: message and record
  # views point into frame payloads and into each forwarder's reused open
  # scratch, so a view that outlives its bytes shows up here first, and
  # secure_test runs the view decoders' mutation loop. safety_test and
  # sensors_test cover fusion and sensing (DESIGN.md §26): fuse() returns
  # a reference into the fusion's own reused track buffer, so a dangling
  # reference shows up here first, and every sight line sensing resolves
  # runs the squared-distance filter and the crest bound. pki_test and
  # secure_test run seeded single-byte mutation loops over certificates
  # and the signed handshake flights (DESIGN.md §28): every mutant that
  # still decodes reaches chain validation and the sliding-window Ed25519
  # verify, which indexes its tables by digits of attacker-chosen scalars.
  # UBSan findings abort (AGRARSEC_SANITIZE builds with
  # -fno-sanitize-recover), so any one fails this leg. AGRARSEC_SANITIZE
  # also defines _GLIBCXX_ASSERTIONS: a vector index past size() but within
  # capacity reads memory ASan considers valid, and the checked operator[]
  # aborts on it instead. The terrain's band walk (DESIGN.md §29) indexes
  # the obstacle grid's CSR arrays out to margin-sized reaches, which
  # sim_test's margin tests drive past one index cell.
  cmake --build build-asan -j "$JOBS" --target core_test crypto_test net_test sim_test \
    pki_test secure_test ids_test integration_test service_test safety_test sensors_test
  ./build-asan/tests/core_test
  ./build-asan/tests/crypto_test
  ./build-asan/tests/net_test
  ./build-asan/tests/sim_test
  ./build-asan/tests/pki_test
  ./build-asan/tests/secure_test
  ./build-asan/tests/ids_test
  ./build-asan/tests/integration_test
  ./build-asan/tests/safety_test
  ./build-asan/tests/sensors_test
  run_filtered ./build-asan/tests/service_test \
    'ConsoleControl.DeeplyNestedRequestGetsParseErrorAndChannelSurvives:ConsoleControl.NonIntegralOrOutOfRangeIntegersRefused'
fi

echo "== sanitizers: TSan over the threaded paths =="
# The suites that actually run threads: the thread pool itself, the fleet
# service batching sessions across the pool in one-second slices (the only
# level of simulation parallelism) and building sessions outside its lock while
# another thread steps and reads the fleet, and the console's HTTP + control server
# threads snapshotting and pausing against concurrent step_all batches.
# A data race between sessions fails here even though the parity tests
# (which compare outcomes, not interleavings) might still pass. The
# net_test torture suite and the ConsoleStream/ConsoleSensor suites add
# the poll-driven HTTP server under concurrent clients, SSE subscribers
# against a stepping fleet, and the control-plane IDS sensor written by
# the control thread while /ids reads it. Ed25519Concurrency runs alone in
# its process, and each of its threads verifies and derives an X25519
# public key before its first keypair, so both lazily built static tables
# (B's odd multiples for verify, the base-point table for keys and
# signatures) are first used by four threads at once. The pool's shards
# claim indices from each other's home ranges (DESIGN.md §27), so which
# claims race differs from run to run: its suite runs 25 times over. Since
# DESIGN.md §32 a session also changes shards within a batch, at slice
# boundaries, ordered only by the pool's per-index claim flag: the pool
# suite's plain per-index counter and FleetServiceParallel's 8 sessions x
# 40 steps (four slices each) at threads 2 and 8 cross those handoffs. A
# session's first step enrols its drone, runs its handshakes and builds its
# planner grid (DESIGN.md §31), so FleetServiceParallel's 8-session runs at
# threads 2 and 8 run that PKI, crypto and grid work on several shards at
# once.
cmake -B build-tsan -S . -DAGRARSEC_TSAN=ON -DCMAKE_BUILD_TYPE=Debug >/dev/null
cmake --build build-tsan -j "$JOBS" --target core_test crypto_test net_test service_test
run_filtered ./build-tsan/tests/core_test 'ThreadPool*' --gtest_repeat=25
run_filtered ./build-tsan/tests/crypto_test 'Ed25519Concurrency*'
run_filtered ./build-tsan/tests/net_test 'HttpServerTorture*'
run_filtered ./build-tsan/tests/service_test \
  'FleetServiceParallel*:FleetServiceCreate*:ConsoleParallel*:ConsoleStream*:ConsoleSensor*'

echo "== all checks passed =="
