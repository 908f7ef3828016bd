#include "sos/emergent.h"

#include <algorithm>
#include <set>

namespace agrarsec::sos {

namespace {
/// Stop-start oscillation: this many e-stops within the window.
constexpr std::size_t kOscillationCount = 4;
constexpr core::SimDuration kOscillationWindow = 60 * core::kSecond;
/// Cascade degradation: this many distinct origins degraded within the
/// window.
constexpr std::size_t kCascadeCount = 3;
constexpr core::SimDuration kCascadeWindow = 10 * core::kSecond;
}  // namespace

void EmergentBehaviorMonitor::attach(core::EventBus& bus) {
  bus.subscribe("safety/estop",
                [this](const core::Event& e) { on_estop(e); });
  bus.subscribe("machine/degraded",
                [this](const core::Event& e) { on_degraded(e); });
}

void EmergentBehaviorMonitor::on_estop(const core::Event& event) {
  estop_times_.push_back(event.time);
  while (!estop_times_.empty() &&
         estop_times_.front() + kOscillationWindow < event.time) {
    estop_times_.pop_front();
  }
  if (estop_times_.size() >= kOscillationCount) {
    findings_.push_back(
        {"stop-start-oscillation", event.time,
         std::to_string(estop_times_.size()) + " e-stops within " +
             std::to_string(kOscillationWindow / core::kSecond) + " s"});
    estop_times_.clear();  // re-arm
  }
}

void EmergentBehaviorMonitor::on_degraded(const core::Event& event) {
  degraded_events_.emplace_back(event.origin, event.time);
  while (!degraded_events_.empty() &&
         degraded_events_.front().second + kCascadeWindow < event.time) {
    degraded_events_.pop_front();
  }
  std::set<std::uint64_t> origins;
  for (const auto& [origin, time] : degraded_events_) origins.insert(origin);
  if (origins.size() >= kCascadeCount) {
    findings_.push_back({"cascade-degradation", event.time,
                         std::to_string(origins.size()) +
                             " systems degraded within " +
                             std::to_string(kCascadeWindow / core::kSecond) +
                             " s"});
    degraded_events_.clear();
  }
}

std::uint64_t EmergentBehaviorMonitor::count(const std::string& pattern) const {
  return static_cast<std::uint64_t>(
      std::count_if(findings_.begin(), findings_.end(),
                    [&](const EmergentFinding& f) { return f.pattern == pattern; }));
}

}  // namespace agrarsec::sos
