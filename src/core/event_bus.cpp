#include "core/event_bus.h"

namespace agrarsec::core {

void EventBus::subscribe(std::string_view topic, Handler handler) {
  // Heterogeneous find first: the common case (topic already known) never
  // materialises a std::string key.
  auto it = by_topic_.find(topic);
  if (it == by_topic_.end()) {
    it = by_topic_.try_emplace(std::string(topic)).first;
  }
  it->second.push_back(std::move(handler));
}

void EventBus::subscribe_all(Handler handler) {
  wildcard_.push_back(std::move(handler));
}

void EventBus::publish(Event event) {
  if (delivering_) {
    pending_.push_back(std::move(event));
    return;
  }
  // Scope guard: a throwing handler must not leave delivering_ stuck true,
  // which would silently queue every later publish forever. The exception
  // still propagates; undelivered reentrant events are discarded with the
  // failed batch.
  struct DeliveryScope {
    EventBus* bus;
    ~DeliveryScope() {
      bus->delivering_ = false;
      bus->pending_.clear();
    }
  };
  delivering_ = true;
  DeliveryScope scope{this};
  deliver(event);
  // Drain events published from inside handlers, breadth-first.
  while (!pending_.empty()) {
    std::vector<Event> batch;
    batch.swap(pending_);
    for (const Event& e : batch) deliver(e);
  }
}

void EventBus::deliver(const Event& event) {
  // In-place dispatch, bounded by the length at entry: handlers appended
  // during delivery (subscribe-from-handler) sit past `n` and do not see
  // this event; deque appends never move existing entries, so the handler
  // running stays put even while it subscribes.
  if (const auto it = by_topic_.find(std::string_view{event.topic});
      it != by_topic_.end()) {
    std::deque<Handler>& handlers = it->second;
    const std::size_t n = handlers.size();
    for (std::size_t i = 0; i < n; ++i) handlers[i](event);
  }
  const std::size_t n = wildcard_.size();
  for (std::size_t i = 0; i < n; ++i) wildcard_[i](event);
}

}  // namespace agrarsec::core
