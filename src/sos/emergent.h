// Runtime emergent-behaviour monitors (the Waller & Craddock problem that
// cannot be checked statically). Monitors subscribe to the worksite event
// bus and look for cross-system patterns no single constituent exhibits
// alone:
//   stop-start oscillation  e-stop/release cycling faster than plausible
//   cascade degradation     several systems degrade within a short window
//   productivity stall      pile backlog grows while forwarders sit idle
#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "core/event_bus.h"
#include "core/time.h"

namespace agrarsec::sos {

struct EmergentFinding {
  std::string pattern;   ///< "stop-start-oscillation" | "cascade-degradation" | ...
  core::SimTime time = 0;
  std::string detail;
};

class EmergentBehaviorMonitor {
 public:
  /// Subscribes to "safety/estop" and "machine/degraded" topics.
  void attach(core::EventBus& bus);

  [[nodiscard]] const std::vector<EmergentFinding>& findings() const {
    return findings_;
  }
  [[nodiscard]] std::uint64_t count(const std::string& pattern) const;

 private:
  void on_estop(const core::Event& event);
  void on_degraded(const core::Event& event);

  std::deque<core::SimTime> estop_times_;
  std::deque<std::pair<std::uint64_t, core::SimTime>> degraded_events_;
  std::vector<EmergentFinding> findings_;
};

}  // namespace agrarsec::sos
