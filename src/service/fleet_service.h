// FleetService: the multi-worksite session daemon. The paper (§IV-B)
// argues that limited connectivity pushes forestry machines into
// long-running on-site autonomy; covering an operational design domain
// therefore means running MANY independent worksite configurations
// concurrently, not one. The service owns N SecuredWorksite sessions
// behind a create/step/teardown/query API and batches session stepping
// across a core::ThreadPool, one worksite per work item in one-second
// slices (DESIGN.md §32). This is the only level of parallelism in the
// stack: a worksite steps on the thread that runs its slice (DESIGN.md
// §17).
//
// Determinism contract (DESIGN.md §12): a session is fully self-contained
// — its SecuredWorksite owns its RNG streams, radio, PKI and a private
// obs::Telemetry — so a given (config, seed) produces a bit-identical
// trajectory and deterministic telemetry export regardless of how many
// other sessions run, how batches interleave, or the service thread
// count. Session seeds can be derived from a fleet seed by stateless
// fork_stream keying (derive_session_seed), so a session's stream is a
// pure function of (fleet_seed, key), never of creation order.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/thread_pool.h"
#include "integration/secured_worksite.h"
#include "obs/telemetry.h"

namespace agrarsec::service {

/// Stable session handle; ids are never reused within a service lifetime.
using SessionId = std::uint64_t;

struct FleetServiceConfig {
  /// Worker shards for step_all() batches. 1 = serial (default), 0 =
  /// std::thread::hardware_concurrency(). Per-session results are
  /// bit-identical for every value (the fleet parity tests enforce this).
  std::size_t threads = 1;
  /// Root seed for derive_session_seed()/create_session_keyed().
  std::uint64_t fleet_seed = 1;
  /// Shape of the service-level telemetry (batch phases, session
  /// counters). Per-session telemetry lives inside each SecuredWorksite
  /// and is configured per session instead.
  obs::TelemetryConfig telemetry;
};

class FleetService {
 public:
  explicit FleetService(FleetServiceConfig config = {});
  ~FleetService();

  FleetService(const FleetService&) = delete;
  FleetService& operator=(const FleetService&) = delete;

  // --- session lifecycle ---
  /// Creates a session from an explicit config (config.seed is used as
  /// given). The session always gets a private telemetry instance
  /// (config.worksite.telemetry is ignored). When the session's
  /// constructor throws, the exception propagates and no id is consumed.
  /// The drone's enrolment and handshakes are not part of construction:
  /// they run in the session's first step (SecuredWorksite::establish),
  /// so a handshake failure surfaces from that step_all or step_session
  /// call, not from here.
  SessionId create_session(integration::SecuredWorksiteConfig config);
  /// Creates a session whose seed is derived from (fleet_seed, key) by
  /// stateless fork — the same key always yields the same session stream,
  /// independent of how many sessions exist or their creation order.
  SessionId create_session_keyed(integration::SecuredWorksiteConfig config,
                                 std::uint64_t key);
  /// Pure function of its inputs (core::Rng::fork_stream).
  [[nodiscard]] static std::uint64_t derive_session_seed(std::uint64_t fleet_seed,
                                                         std::uint64_t key);
  /// Tears the session down (false when the id is unknown).
  bool destroy_session(SessionId id);

  // --- stepping ---
  /// Advances every live session by `steps` full-stack steps. Sessions
  /// are batched across the pool in ascending id order, one session per
  /// work item, in slices of 10 steps (one simulated second; the last
  /// slice takes the remainder). A slice runs on one shard, and
  /// consecutive slices of a session may run on different shards: the
  /// pool's claim flag orders each slice after the session's previous
  /// one, so its state is only ever touched by one thread at a time. A
  /// session usually steps on its home shard, and an idle shard takes the
  /// next slice of a session that is not running. A session's first step
  /// also runs its set-up (drone enrolment, handshakes, planner grid) on
  /// the shard that runs it. session_steps() advances after each slice.
  /// When a session throws, its remaining slices are skipped, every other
  /// session still steps, and the error of the lowest failing index in id
  /// order is rethrown (core::ThreadPool). No-op while paused.
  void step_all(std::uint64_t steps = 1);
  /// Advances one session serially (false when the id is unknown).
  /// No-op (returning true) while paused.
  bool step_session(SessionId id, std::uint64_t steps = 1);

  // --- operations-console control plane ---
  // Thread-safety: every lifecycle/stepping/snapshot entry point
  // serializes on an internal mutex, so the console's server threads can
  // pause, inject and snapshot concurrently with a driver loop calling
  // step_all. The lock is held for whole batches — console reads land
  // between batches and never observe (or perturb) a half-stepped fleet;
  // determinism is untouched because serialization changes no sim input.
  // Session creation builds the session before it locks, and holds the
  // lock only to take the id and insert.
  /// Freezes step_all/step_session (they become no-ops) until resume().
  void pause();
  void resume();
  [[nodiscard]] bool paused() const { return paused_.load(std::memory_order_relaxed); }
  /// Steps every session even while paused — the operator's single-step.
  /// Returns the number of sessions stepped.
  std::size_t control_step(std::uint64_t steps = 1);
  /// Drops an attacker radio into one session's medium (false when the
  /// session id is unknown).
  bool inject_attack(SessionId id, double x, double y, int level);

  // --- console snapshots (each locks; safe against concurrent step_all) ---
  /// Full fleet telemetry artifact (registry incl. "wall." instruments,
  /// phases, shard busy time, flight recorder + wall annex).
  [[nodiscard]] std::string metrics_json() const;
  /// Per-session status table: id, steps and security counters per live
  /// session in ascending id order, plus fleet totals.
  [[nodiscard]] std::string sessions_json() const;
  /// Per-shard busy-time table of the service pool.
  [[nodiscard]] std::string utilization_json() const;
  /// Tail of one session's flight recorder: flight_since_json from cursor
  /// max(total_recorded - max_events, 0), so the newest (at most)
  /// `max_events` events in the same response shape. Pass its
  /// "next_cursor" to flight_since_json (or back to /flight/<id>?cursor=)
  /// to resume without overlapping tails.
  [[nodiscard]] std::string flight_tail_json(SessionId id,
                                             std::size_t max_events = 64) const;

  /// One cursor-sequenced read from a session's flight recorder. The
  /// JSONL payload is produced by FlightRecorder::read_since, so its
  /// bytes match the polled to_jsonl() export line-for-line. Runs the
  /// session's establish() first, as session_deterministic_json does.
  struct FlightChunk {
    bool ok = false;               ///< false: unknown session id
    std::uint64_t first_seq = 0;   ///< seq of the first event in `jsonl`
    std::size_t events = 0;        ///< events in `jsonl`
    std::uint64_t dropped = 0;     ///< ring overwrote these before the read
    std::uint64_t next_cursor = 0; ///< resume cursor
    std::uint64_t total_recorded = 0;
    std::string jsonl;             ///< newline-terminated event lines
  };
  [[nodiscard]] FlightChunk flight_read(SessionId id, std::uint64_t cursor,
                                        std::size_t max_events) const;
  /// flight_read rendered for the polling endpoint:
  /// {"session":..,"total_recorded":..,"dropped":..,"next_cursor":..,
  ///  "events":[...]} (empty string when the id is unknown).
  [[nodiscard]] std::string flight_since_json(SessionId id, std::uint64_t cursor,
                                              std::size_t max_events = 64) const;

  // --- queries ---
  [[nodiscard]] std::size_t session_count() const;
  /// Live ids in ascending order (the step_all batch order).
  [[nodiscard]] std::vector<SessionId> session_ids() const;
  /// Session access (nullptr when unknown). The pointer stays valid until
  /// the session is destroyed; do not call while step_all is in flight.
  [[nodiscard]] integration::SecuredWorksite* session(SessionId id);
  [[nodiscard]] const integration::SecuredWorksite* session(SessionId id) const;
  /// Steps taken by one session / summed over every session ever stepped
  /// (destroyed sessions keep counting toward the total).
  [[nodiscard]] std::uint64_t session_steps(SessionId id) const;
  [[nodiscard]] std::uint64_t total_session_steps() const;
  /// Security counters summed over live sessions in ascending id order.
  [[nodiscard]] integration::SecurityMetrics aggregate_security_metrics() const;
  /// Per-session deterministic export (empty string when unknown) — the
  /// artifact the fleet determinism suite compares byte-for-byte and the
  /// console's export verb returns. Runs the session's establish() first,
  /// so a never-stepped session exports its handshake events.
  [[nodiscard]] std::string session_deterministic_json(SessionId id) const;

  /// Service-level telemetry: fleet counters, batch phase spans, shard
  /// busy time. Wall-clock only beyond the counters; per-session
  /// deterministic exports come from the sessions themselves.
  [[nodiscard]] obs::Telemetry& telemetry() { return *telemetry_; }
  [[nodiscard]] const obs::Telemetry& telemetry() const { return *telemetry_; }
  [[nodiscard]] const FleetServiceConfig& config() const { return config_; }
  [[nodiscard]] std::size_t shard_count() const;

 private:
  struct Session {
    SessionId id = 0;
    std::unique_ptr<integration::SecuredWorksite> site;
    std::uint64_t steps = 0;
  };

  SessionId insert_session(integration::SecuredWorksiteConfig config);
  void step_batch_locked(std::uint64_t steps);

  FleetServiceConfig config_;
  /// Serializes lifecycle, stepping and console snapshots (see the
  /// control-plane section above). Mutable: snapshot methods are const.
  mutable std::mutex mu_;
  std::atomic<bool> paused_{false};
  /// Declared before the pool: the shard observer instruments into it.
  std::unique_ptr<obs::Telemetry> telemetry_;
  std::unique_ptr<core::ThreadPool> pool_;
  /// Ordered by id so every batch and every aggregate walks sessions in
  /// the same deterministic order.
  std::map<SessionId, std::unique_ptr<Session>> sessions_;
  SessionId next_id_ = 1;
  std::uint64_t retired_steps_ = 0;  ///< steps of destroyed sessions
  /// Dense batch view rebuilt by step_all (index -> session, id order).
  std::vector<Session*> batch_;

  obs::Counter* c_created_ = nullptr;
  obs::Counter* c_destroyed_ = nullptr;
  obs::Counter* c_session_steps_ = nullptr;  ///< added once per batch
  obs::Gauge* g_active_ = nullptr;
  obs::Histogram* h_batch_wall_ = nullptr;  ///< "wall." prefix: full artifact only
  obs::PhaseId ph_batch_ = 0;
};

}  // namespace agrarsec::service
