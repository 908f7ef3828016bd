// FleetService contract (DESIGN.md §12): sessions are self-contained, so
// a given (config, seed) yields a bit-identical trajectory and telemetry
// export no matter how many other sessions run, how batches interleave,
// or the service thread count. The FleetServiceParallel and
// FleetServiceCreate suites are also the TSan targets for concurrent
// session stepping and creation (scripts/check.sh).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <map>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "service/fleet_service.h"

namespace agrarsec::service {
namespace {

/// Small-but-real session: full stack (radio, PKI, IDS, safety) over a
/// thinner stand so a test steps in milliseconds, with workers near the
/// forwarder lanes so separation/perception paths actually run.
integration::SecuredWorksiteConfig session_config(std::uint64_t seed) {
  integration::SecuredWorksiteConfig config;
  config.seed = seed;
  config.worksite.forest.trees_per_hectare = 120;
  config.worksite.forest.boulders_per_hectare = 20;
  config.worksite.harvester_output_m3_per_min = 20.0;
  config.worksite.load_time = 10 * core::kSecond;
  return config;
}

void add_workers(integration::SecuredWorksite& site) {
  for (int i = 0; i < 2; ++i) {
    site.worksite().add_worker("worker-" + std::to_string(i),
                               {75.0 + 10.0 * i, 60}, {80, 80});
  }
}

constexpr std::uint64_t kFleetSeed = 99;
constexpr int kSteps = 40;

struct SessionExport {
  std::string deterministic_json;
  std::string flight_jsonl;
};

/// Runs `session_count` keyed sessions for kSteps on `threads` shards and
/// returns each session's deterministic export + raw flight JSONL by key.
std::map<std::uint64_t, SessionExport> run_fleet(std::size_t threads,
                                                 std::size_t session_count) {
  FleetServiceConfig config;
  config.threads = threads;
  config.fleet_seed = kFleetSeed;
  FleetService fleet{config};

  std::map<std::uint64_t, SessionId> ids;
  for (std::uint64_t key = 0; key < session_count; ++key) {
    const std::uint64_t seed = FleetService::derive_session_seed(kFleetSeed, key);
    ids[key] = fleet.create_session_keyed(session_config(seed), key);
    add_workers(*fleet.session(ids[key]));
  }
  fleet.step_all(kSteps);

  std::map<std::uint64_t, SessionExport> exports;
  for (const auto& [key, id] : ids) {
    exports[key] = {fleet.session_deterministic_json(id),
                    fleet.session(id)->telemetry().recorder().to_jsonl()};
  }
  return exports;
}

// The headline guarantee, gated in CI: per-session exports are
// byte-identical across sessions ∈ {1, 8} × threads ∈ {1, 2, 8}. The
// 8-session × multi-thread runs double as the TSan workload.
TEST(FleetServiceParallel, PerSessionDeterminismAcrossFleetSizeAndThreads) {
  // Reference: each key alone in a single-threaded service.
  std::map<std::uint64_t, SessionExport> reference;
  for (std::uint64_t key = 0; key < 8; ++key) {
    FleetServiceConfig config;
    config.fleet_seed = kFleetSeed;
    FleetService solo{config};
    const SessionId id =
        solo.create_session_keyed(session_config(0), key);  // seed derived
    add_workers(*solo.session(id));
    solo.step_all(kSteps);
    reference[key] = {solo.session_deterministic_json(id),
                      solo.session(id)->telemetry().recorder().to_jsonl()};
    ASSERT_FALSE(reference[key].deterministic_json.empty());
  }
  // Distinct keys must be genuinely distinct sessions.
  EXPECT_NE(reference[0].deterministic_json, reference[1].deterministic_json);

  for (const std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    const auto fleet = run_fleet(threads, 8);
    ASSERT_EQ(fleet.size(), 8u);
    for (const auto& [key, exp] : fleet) {
      SCOPED_TRACE("session key=" + std::to_string(key));
      EXPECT_EQ(exp.deterministic_json, reference[key].deterministic_json);
      EXPECT_EQ(exp.flight_jsonl, reference[key].flight_jsonl);
    }
  }
}

// Batch interleaving (several step_all calls of varying length) must land
// on the same per-session bytes as one long batch.
TEST(FleetServiceParallel, BatchInterleavingIsUnobservable) {
  const auto one_batch = run_fleet(2, 4);

  FleetServiceConfig config;
  config.threads = 8;
  config.fleet_seed = kFleetSeed;
  FleetService fleet{config};
  std::map<std::uint64_t, SessionId> ids;
  for (std::uint64_t key = 0; key < 4; ++key) {
    const std::uint64_t seed = FleetService::derive_session_seed(kFleetSeed, key);
    ids[key] = fleet.create_session_keyed(session_config(seed), key);
    add_workers(*fleet.session(ids[key]));
  }
  fleet.step_all(1);
  fleet.step_all(25);
  fleet.step_all(kSteps - 26);
  for (const auto& [key, id] : ids) {
    SCOPED_TRACE("session key=" + std::to_string(key));
    EXPECT_EQ(fleet.session_deterministic_json(id),
              one_batch.at(key).deterministic_json);
  }
}

// Runs at threads = 8 too: fleet.session_steps is added once after each
// batch's parallel_for, so the counter must match the per-session totals
// whichever shards stepped the sessions.
TEST(FleetService, LifecycleCountsAndQueries) {
  for (const std::size_t threads : {std::size_t{1}, std::size_t{8}}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    FleetServiceConfig config;
    config.threads = threads;
    FleetService fleet{config};
    EXPECT_EQ(fleet.session_count(), 0u);
    EXPECT_EQ(fleet.session(7), nullptr);
    EXPECT_FALSE(fleet.destroy_session(7));
    fleet.step_all(5);  // no sessions: a no-op, not a crash

    const SessionId a = fleet.create_session(session_config(1));
    const SessionId b = fleet.create_session(session_config(2));
    EXPECT_NE(a, b);
    EXPECT_EQ(fleet.session_count(), 2u);
    EXPECT_EQ(fleet.session_ids(), (std::vector<SessionId>{a, b}));

    fleet.step_all(3);
    EXPECT_TRUE(fleet.step_session(a, 2));
    EXPECT_EQ(fleet.session_steps(a), 5u);
    EXPECT_EQ(fleet.session_steps(b), 3u);
    EXPECT_EQ(fleet.total_session_steps(), 8u);

    // Destroyed sessions keep counting toward the lifetime total; their id
    // is never reused.
    EXPECT_TRUE(fleet.destroy_session(a));
    EXPECT_EQ(fleet.session(a), nullptr);
    EXPECT_EQ(fleet.session_count(), 1u);
    EXPECT_EQ(fleet.total_session_steps(), 8u);
    const SessionId c = fleet.create_session(session_config(3));
    EXPECT_NE(c, a);

    const obs::Registry& reg = fleet.telemetry().registry();
    EXPECT_EQ(reg.find_counter("fleet.sessions_created")->value(), 3u);
    EXPECT_EQ(reg.find_counter("fleet.sessions_destroyed")->value(), 1u);
    EXPECT_EQ(reg.find_counter("fleet.session_steps")->value(), 8u);

    // 23 steps run as slices of 10, 10 and 3 (DESIGN.md §32); the counts
    // must agree across the slice boundaries.
    fleet.step_all(23);
    EXPECT_EQ(fleet.session_steps(b), 26u);
    EXPECT_EQ(fleet.session_steps(c), 23u);
    EXPECT_EQ(fleet.total_session_steps(), 54u);
    EXPECT_EQ(reg.find_counter("fleet.session_steps")->value(), 54u);
  }
}

// A session that throws mid-batch keeps the slices it finished and skips
// the rest; the others step the whole batch. The counter must still agree
// with the per-session totals after the rethrow.
TEST(FleetService, ThrowingBatchCountsTheStepsThatRan) {
  for (const std::size_t threads : {std::size_t{1}, std::size_t{8}}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    FleetServiceConfig config;
    config.threads = threads;
    FleetService fleet{config};
    const SessionId a = fleet.create_session(session_config(1));
    const SessionId b = fleet.create_session(session_config(2));
    bool thrown = false;
    fleet.session(b)->worksite().bus().subscribe("worksite/pile", [&thrown](const core::Event&) {
      if (!thrown) {
        thrown = true;
        throw std::runtime_error("pile handler");
      }
    });
    EXPECT_THROW(fleet.step_all(400), std::runtime_error);
    ASSERT_TRUE(thrown);
    EXPECT_EQ(fleet.session_steps(a), 400u);
    EXPECT_LT(fleet.session_steps(b), 400u);
    EXPECT_EQ(fleet.session_steps(b) % 10, 0u);
    EXPECT_EQ(fleet.total_session_steps(),
              fleet.session_steps(a) + fleet.session_steps(b));
    EXPECT_EQ(fleet.telemetry().registry().find_counter("fleet.session_steps")->value(),
              fleet.total_session_steps());
  }
}

// A serial fleet (threads = 1, the default) steps each batch on the
// calling thread as shard 0. That is still busy time, and /utilization
// must report it instead of 0 ns for a fleet that is stepping.
TEST(FleetService, SerialFleetReportsShardBusyTime) {
  FleetService fleet{FleetServiceConfig{}};
  ASSERT_EQ(fleet.shard_count(), 1u);
  fleet.create_session(session_config(1));
  fleet.step_all(3);

  const obs::Tracer& tracer = fleet.telemetry().tracer();
  ASSERT_EQ(tracer.shard_count(), 1u);
  EXPECT_GT(tracer.shard_busy_ns(0), 0u);
  EXPECT_EQ(fleet.utilization_json().find("\"busy_ns\":0}"), std::string::npos)
      << fleet.utilization_json();
}

// Sessions are built outside the service lock: creates on one thread
// overlap step_all batches and session_ids reads on another. Ids stay
// unique and ascending, and every session's export equals a solo run of
// its key stepped as many times.
TEST(FleetServiceCreate, CreateOverlapsSteppingAndReads) {
  constexpr std::uint64_t kSessions = 4;
  FleetServiceConfig config;
  config.threads = 2;
  config.fleet_seed = kFleetSeed;
  FleetService fleet{config};

  std::atomic<bool> done{false};
  std::vector<SessionId> created;
  std::thread creator([&] {
    for (std::uint64_t key = 0; key < kSessions; ++key) {
      created.push_back(fleet.create_session_keyed(session_config(0), key));
    }
    done.store(true);
  });
  bool ascending = true;
  std::size_t seen = 0;
  while (!done.load()) {
    fleet.step_all(1);
    const std::vector<SessionId> ids = fleet.session_ids();
    ascending = ascending && std::is_sorted(ids.begin(), ids.end()) && ids.size() >= seen;
    seen = ids.size();
    std::this_thread::yield();
  }
  creator.join();
  EXPECT_TRUE(ascending);
  ASSERT_EQ(created.size(), kSessions);
  EXPECT_EQ(fleet.session_ids(), created);

  for (std::uint64_t key = 0; key < kSessions; ++key) {
    SCOPED_TRACE("session key=" + std::to_string(key));
    FleetServiceConfig solo_config;
    solo_config.fleet_seed = kFleetSeed;
    FleetService solo{solo_config};
    const SessionId id = solo.create_session_keyed(session_config(0), key);
    solo.step_all(fleet.session_steps(created[key]));
    EXPECT_EQ(fleet.session_deterministic_json(created[key]),
              solo.session_deterministic_json(id));
  }
}

TEST(FleetServiceCreate, ThrowingConstructorConsumesNoId) {
  FleetService fleet;
  const SessionId first = fleet.create_session(session_config(1));
  integration::SecuredWorksiteConfig bad = session_config(2);
  bad.worksite.forest.trees_per_hectare = -1.0;  // Rng::poisson rejects it
  EXPECT_THROW(fleet.create_session(bad), std::invalid_argument);
  EXPECT_EQ(fleet.session_count(), 1u);
  EXPECT_EQ(fleet.create_session(session_config(3)), first + 1);
  EXPECT_EQ(fleet.telemetry().registry().find_counter("fleet.sessions_created")->value(),
            2u);
}

std::size_t count_of(const std::string& text, const std::string& needle) {
  std::size_t n = 0;
  for (std::size_t at = text.find(needle); at != std::string::npos;
       at = text.find(needle, at + needle.size())) {
    ++n;
  }
  return n;
}

// Handshakes run in a session's first step (DESIGN.md §31), but the
// service's export and flight reads establish the links first, so a
// never-stepped session shows them as it did when construction ran them.
TEST(FleetServiceCreate, NeverSteppedSessionExportsItsHandshakes) {
  FleetServiceConfig config;
  config.fleet_seed = kFleetSeed;
  FleetService fleet{config};
  integration::SecuredWorksiteConfig session = session_config(0);
  session.forwarder_count = 4;
  const SessionId exported = fleet.create_session_keyed(session, 0);
  const SessionId read = fleet.create_session_keyed(session, 1);
  EXPECT_EQ(fleet.session(exported)->telemetry().recorder().total_recorded(), 0u);

  EXPECT_EQ(count_of(fleet.session_deterministic_json(exported), "handshake-ok"), 4u);
  EXPECT_EQ(count_of(fleet.flight_since_json(read, 0), "handshake-ok"), 4u);
  EXPECT_EQ(fleet.session_steps(exported), 0u);
  EXPECT_EQ(fleet.session_steps(read), 0u);
}

TEST(FleetService, DerivedSeedsAreStableAndDistinct) {
  const std::uint64_t s0 = FleetService::derive_session_seed(kFleetSeed, 0);
  EXPECT_EQ(s0, FleetService::derive_session_seed(kFleetSeed, 0));  // pure
  EXPECT_NE(s0, FleetService::derive_session_seed(kFleetSeed, 1));
  EXPECT_NE(s0, FleetService::derive_session_seed(kFleetSeed + 1, 0));
}

// A keyed session's stream is a function of (fleet_seed, key) alone —
// never of creation order or fleet population.
TEST(FleetService, KeyedSessionIndependentOfCreationOrder) {
  FleetServiceConfig config;
  config.fleet_seed = kFleetSeed;

  FleetService first{config};
  const SessionId lone = first.create_session_keyed(session_config(0), 5);
  first.step_all(20);

  FleetService second{config};
  second.create_session_keyed(session_config(0), 1);
  second.create_session_keyed(session_config(0), 2);
  const SessionId crowded = second.create_session_keyed(session_config(0), 5);
  second.step_all(20);

  EXPECT_EQ(first.session_deterministic_json(lone),
            second.session_deterministic_json(crowded));
}

TEST(FleetService, AggregateSecurityMetricsSumSessions) {
  FleetService fleet{{}};
  const SessionId a = fleet.create_session(session_config(11));
  const SessionId b = fleet.create_session(session_config(12));
  add_workers(*fleet.session(a));
  add_workers(*fleet.session(b));
  fleet.step_all(200);  // 20 sim-seconds: detection reports flow

  const integration::SecurityMetrics total = fleet.aggregate_security_metrics();
  const integration::SecurityMetrics ma = fleet.session(a)->security_metrics();
  const integration::SecurityMetrics mb = fleet.session(b)->security_metrics();
  EXPECT_EQ(total.detection_reports_sent,
            ma.detection_reports_sent + mb.detection_reports_sent);
  EXPECT_EQ(total.detection_reports_accepted,
            ma.detection_reports_accepted + mb.detection_reports_accepted);
  EXPECT_GT(total.detection_reports_sent, 0u);
}

// Satellite regression: the per-session TelemetryConfig reaches the
// session's flight recorder through the service path too.
TEST(FleetService, SessionFlightCapacityIsConfigurable) {
  FleetService fleet{{}};
  integration::SecuredWorksiteConfig config = session_config(4);
  config.telemetry.flight_capacity = 2;
  const SessionId id = fleet.create_session(config);
  EXPECT_EQ(fleet.session(id)->telemetry().recorder().capacity(), 2u);
}

}  // namespace
}  // namespace agrarsec::service
