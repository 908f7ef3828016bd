// Topic-based publish/subscribe bus. Machines, safety monitors, the IDS and
// the SoS layer communicate through the bus when they live on the same
// compute node; cross-machine traffic instead goes through net::RadioMedium.
// Subscriptions cannot be removed; each lasts as long as the bus
// (DESIGN.md §22).
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "core/time.h"

namespace agrarsec::core {

/// An event on the bus: topic + opaque payload + origin tag.
struct Event {
  std::string topic;
  std::string payload;   ///< compact text encoding (key=value;...)
  std::uint64_t origin;  ///< publisher identifier (machine/system id value)
  SimTime time = 0;
};

/// Synchronous pub/sub.
///
/// Dispatch is copy-free: handlers run in place out of per-topic deques
/// (stable element addresses under append), bounded by the list length at
/// delivery entry, so a handler may subscribe during delivery — the new
/// handler does not see the event being delivered.
/// Topic lookup is heterogeneous (transparent hash), so publishing and
/// subscribing never build a temporary std::string key.
class EventBus {
 public:
  using Handler = std::function<void(const Event&)>;

  /// Subscribes `handler` to an exact topic.
  void subscribe(std::string_view topic, Handler handler);

  /// Subscribes to every topic (IDS taps use this).
  void subscribe_all(Handler handler);

  /// Delivers synchronously to all matching subscribers, in subscription
  /// order. Reentrant publishes are queued and drained afterwards so a
  /// handler chain cannot recurse unboundedly.
  void publish(Event event);

 private:
  struct TopicHash {
    using is_transparent = void;
    [[nodiscard]] std::size_t operator()(std::string_view s) const noexcept {
      return std::hash<std::string_view>{}(s);
    }
  };

  void deliver(const Event& event);

  std::unordered_map<std::string, std::deque<Handler>, TopicHash, std::equal_to<>>
      by_topic_;
  std::deque<Handler> wildcard_;
  std::vector<Event> pending_;
  bool delivering_ = false;
};

}  // namespace agrarsec::core
