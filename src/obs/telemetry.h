// Telemetry: the bundle a component is handed — a metrics Registry, a
// phase Tracer, and a FlightRecorder — plus the exporters. Components
// accept an optional Telemetry* and fall back to a privately owned
// instance when none is injected, so instrument code paths are identical
// either way and existing accessor APIs become thin registry adapters.
// SecuredWorksite owns the shared instance for the full stack.
//
// Two export views:
//  - deterministic_json(): registry snapshot + the flight-recorder JSONL
//    spliced in as an array (core::append_jsonl_as_array).
//    Bit-identical across runs with the same seeds, and across FleetService
//    thread counts — the golden session exports and the fleet parity
//    tests compare it directly.
//  - to_json(): the full artifact; adds tracer phases, per-shard busy
//    time of the service pool and the wall-clock annex. Machine-dependent
//    by nature.
#pragma once

#include <cstddef>
#include <string>

#include "core/event_bus.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace agrarsec::obs {

struct TelemetryConfig {
  std::size_t flight_capacity = 4096;  ///< flight-recorder ring size
};

class Telemetry {
 public:
  explicit Telemetry(TelemetryConfig config = {});

  Telemetry(const Telemetry&) = delete;
  Telemetry& operator=(const Telemetry&) = delete;

  [[nodiscard]] Registry& registry() { return registry_; }
  [[nodiscard]] const Registry& registry() const { return registry_; }
  [[nodiscard]] Tracer& tracer() { return tracer_; }
  [[nodiscard]] const Tracer& tracer() const { return tracer_; }
  [[nodiscard]] FlightRecorder& recorder() { return recorder_; }
  [[nodiscard]] const FlightRecorder& recorder() const { return recorder_; }

  /// Deterministic view (registry + flight events, no wall clock).
  /// Registry instruments named with kWallPrefix ("wall.") are excluded
  /// here — they carry timing-derived samples and only appear in the full
  /// artifact.
  [[nodiscard]] std::string deterministic_json() const;

  /// Full artifact: deterministic view + trace phases, shard busy time,
  /// flight-recorder wall annex.
  [[nodiscard]] std::string to_json() const;

  /// Writes to_json() to `path`. Returns false on I/O failure.
  bool write_json(const std::string& path) const;

 private:
  Registry registry_;
  Tracer tracer_;
  FlightRecorder recorder_;
};

/// Counts every publish on `bus` into `telemetry`'s registry: total in
/// "bus.events" plus a per-topic "bus.topic.<topic>" counter (handles
/// cached, so steady-state cost is one hash lookup + two adds). The
/// telemetry must outlive the bus.
void wire_event_bus(core::EventBus& bus, Telemetry& telemetry);

/// Process-global instance for tools and benches that have no simulation
/// object to hang telemetry off. Lazily constructed, never destroyed
/// before exit-time writers run.
Telemetry& global();

/// Directory bench artifacts land in. Resolution order: the last
/// set_artifact_dir() call (benches wire this to --artifact-dir), the
/// AGRARSEC_ARTIFACT_DIR environment variable, the compile-time default
/// (the build tree's artifacts/ directory), the working directory — so an
/// uninstrumented invocation from the repo root no longer litters it.
[[nodiscard]] std::string artifact_dir();
void set_artifact_dir(std::string dir);

/// Joins artifact_dir() with `filename`, creating the directory if needed.
[[nodiscard]] std::string artifact_path(const std::string& filename);

/// Strips a `--artifact-dir=DIR` / `--artifact-dir DIR` flag out of argv
/// (so bench flag loops never see it) and applies it via
/// set_artifact_dir(). Returns true when the flag was present.
bool consume_artifact_dir_flag(int& argc, char** argv);

/// Writes "<bench_name>.telemetry.json" under artifact_dir() from the
/// given telemetry. Returns false on I/O failure.
bool write_bench_artifact(const Telemetry& telemetry, const std::string& bench_name);

/// RAII helper for bench mains: times the enclosing scope into gauge
/// "bench.wall_seconds" and writes "<name>.telemetry.json" at scope exit.
/// Uses the process-global telemetry unless one is supplied.
class BenchArtifact {
 public:
  explicit BenchArtifact(std::string name, Telemetry* telemetry = nullptr);
  ~BenchArtifact();

  BenchArtifact(const BenchArtifact&) = delete;
  BenchArtifact& operator=(const BenchArtifact&) = delete;

 private:
  std::string name_;
  Telemetry* telemetry_;
  std::uint64_t start_ns_;
};

}  // namespace agrarsec::obs
