// Shared types of the fleet benchmark: run options, the run report, the
// session shapes every workload builds, and the traced-run layer probe.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "integration/secured_worksite.h"
#include "service/fleet_service.h"

namespace fleetbench {

struct RunOptions {
  std::uint64_t seed = 1;
  int seconds = 10;
  /// Stop once set-up is done (a set-up-only process: it reports setup_s).
  bool setup_only = false;
};

/// Steady-clock time at process start: set-up counts from it.
extern std::uint64_t g_process_start_ns;

/// One workload run: correctness, operation accounting, metrics and the
/// export digests.
struct Report {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics;
  std::uint64_t digest = 0;
  /// Digest of the run's pinned-seed canary, whatever the run's own seed.
  std::uint64_t canary_digest = 0;
  std::vector<std::string> errors;

  void put(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, {value, unit}});
  }
  /// Records a correctness failure (the run then reports correct=false).
  void check(bool ok, const std::string& what) {
    if (!ok) {
      correct = false;
      if (errors.size() < 32) errors.push_back(what);
    }
  }
  [[nodiscard]] const double* find(const std::string& name) const {
    for (const auto& [n, v] : metrics) {
      if (n == name) return &v.first;
    }
    return nullptr;
  }
};

/// The pinned-golden session shape: thin stand (120 stems/ha), busy
/// harvesting, rain, windthrow 4/h.
agrarsec::integration::SecuredWorksiteConfig pinned_shape(std::size_t forwarders);

/// Worker placements.
void add_workers_near_start(agrarsec::integration::SecuredWorksite& site);  // 2
void add_workers_on_grid(agrarsec::integration::SecuredWorksite& site, std::size_t n);

/// Worker threads of a closed-loop FleetService: min(nproc, 4).
std::size_t fleet_threads();

/// The fleet seed of every run's canary: a fixed input whose export digest
/// is recorded, so each run checks behaviour whatever its own seed is.
inline constexpr std::uint64_t kCanarySeed = 20260417;

// --- traced runs ------------------------------------------------------------

/// Everything a traced run records from outside the program: spans around
/// the public calls the harness makes, frames captured by radio sniffers,
/// and the counters, phases and histograms the sessions already keep.
/// After the timed window it replays the captured inputs through each
/// layer's public entry points on private instances and renders the
/// per-layer metrics.
class LayerProbe {
 public:
  LayerProbe();
  ~LayerProbe();
  LayerProbe(const LayerProbe&) = delete;
  LayerProbe& operator=(const LayerProbe&) = delete;

  /// A span of `ns` around one public call, filed under `name`.
  void span(const std::string& name, std::uint64_t ns);
  /// Attaches a bounded frame capture to a session's radio.
  void capture(agrarsec::integration::SecuredWorksite& site);
  /// Folds a session's counters, phases, step histogram and flight mix
  /// into the totals; call once per session, after its last step and
  /// before it is gone.
  void absorb(const agrarsec::integration::SecuredWorksite& site);
  /// Replays sensing and fusion on a live session's worksite.
  void replay_sensing(agrarsec::integration::SecuredWorksite& site);
  /// Notes a session config for the construction replays.
  void note_config(const agrarsec::integration::SecuredWorksiteConfig& config);
  /// Notes one export payload size.
  void note_export(std::size_t bytes);
  /// Service pool shard busy time over the step_all wall time.
  void note_shard_busy(std::uint64_t busy_ns, std::uint64_t wall_ns, std::size_t shards);

  /// Runs the replays and appends every per-layer metric to `report`.
  void finish(Report& report);

 private:
  struct State;
  std::unique_ptr<State> state_;
};

/// Workload entry points.
Report run_campaign(const RunOptions& options, LayerProbe* probe);
Report run_soak(const RunOptions& options, LayerProbe* probe);

/// Peak resident set of this process in MB.
double peak_rss_mb();

}  // namespace fleetbench
