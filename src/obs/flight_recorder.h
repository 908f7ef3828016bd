// Flight recorder: a bounded ring of structured events (plan/replan,
// cache hit/miss, radio drop/collision, IDS alert, handshake outcome,
// audit append) for post-mortem inspection. Events carry sim-time stamps
// and dump as deterministic JSONL — stable field order, oldest first;
// the wall-clock capture timestamp is kept out of the main dump and only
// appears in an optional annex keyed by sequence number.
//
// Determinism contract: record() must only be called from serial
// contexts (effect drains, RadioMedium::step, EventBus handlers, IDS
// raise, SecuredWorksite cycles) — a deterministic event *order*
// requires a serial writer.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/time.h"

namespace agrarsec::obs {

struct FlightEvent {
  std::uint64_t seq = 0;       ///< monotonically increasing, survives wraparound
  core::SimTime time = 0;      ///< sim-time stamp (ms)
  std::string category;        ///< "planner" | "radio" | "ids" | "secure" | "audit" | ...
  std::string code;            ///< e.g. "cache-miss", "collision", "handshake-ok"
  std::uint64_t subject = 0;   ///< primary entity id (machine, node, unit)
  std::uint64_t a = 0;         ///< small numeric argument (event-specific)
  std::uint64_t b = 0;         ///< small numeric argument (event-specific)
  std::string detail;          ///< optional free text
  std::uint64_t wall_ns = 0;   ///< capture wall clock — annex only, never in the main dump
};

class FlightRecorder {
 public:
  explicit FlightRecorder(std::size_t capacity = 4096);

  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  void record(core::SimTime time, std::string_view category, std::string_view code,
              std::uint64_t subject = 0, std::uint64_t a = 0, std::uint64_t b = 0,
              std::string_view detail = {});

  [[nodiscard]] std::size_t capacity() const { return capacity_; }
  /// Events currently held (<= capacity).
  [[nodiscard]] std::size_t size() const;
  /// Total events ever recorded, including overwritten ones.
  [[nodiscard]] std::uint64_t total_recorded() const { return next_seq_; }
  /// Events lost to wraparound.
  [[nodiscard]] std::uint64_t dropped() const { return next_seq_ - size(); }

  /// Visits held events oldest-to-newest.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    const std::size_t n = size();
    for (std::size_t i = 0; i < n; ++i) fn(at_oldest(i));
  }

  /// One JSON object per line, oldest first, stable field order:
  /// {"seq":..,"t":..,"cat":"..","code":"..","subject":..,"a":..,"b":..,"detail":".."}
  /// ("a"/"b" omitted when zero, "detail" omitted when empty). No wall clock.
  [[nodiscard]] std::string to_jsonl() const;

  /// Result of a sequenced subscription read (read_since).
  struct ReadResult {
    std::size_t events = 0;        ///< events appended to `out`
    std::uint64_t dropped = 0;     ///< events lost to wraparound before the cursor
    std::uint64_t next_cursor = 0; ///< resume cursor: seq after the last event read
  };

  /// Sequenced subscription read: appends up to `max_events` held events
  /// with seq >= `cursor` to `out`, one JSON object per line — the bytes
  /// are identical to the corresponding to_jsonl() lines by construction
  /// (both render through the same serializer). Events the ring already
  /// overwrote are skipped and counted in `dropped`, so a subscriber's
  /// lag is bounded by the ring capacity with explicit loss accounting.
  /// Pass next_cursor back in to resume exactly after the last event.
  ReadResult read_since(std::uint64_t cursor, std::size_t max_events,
                        std::string& out) const;

  /// Wall-clock annex: {"seq":..,"wall_ns":..} per held event, oldest first.
  [[nodiscard]] std::string wall_annex_jsonl() const;

 private:
  [[nodiscard]] const FlightEvent& at_oldest(std::size_t i) const;

  std::size_t capacity_;
  std::vector<FlightEvent> ring_;
  std::size_t head_ = 0;       ///< next write slot once the ring is full
  std::uint64_t next_seq_ = 0;
};

}  // namespace agrarsec::obs
