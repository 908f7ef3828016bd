#include "core/event_bus.h"

#include <gtest/gtest.h>

#include <stdexcept>

namespace agrarsec::core {
namespace {

TEST(EventBus, DeliversToTopicSubscriber) {
  EventBus bus;
  int count = 0;
  bus.subscribe("safety/estop", [&](const Event& e) {
    ++count;
    EXPECT_EQ(e.payload, "reason=test");
  });
  bus.publish({"safety/estop", "reason=test", 1, 0});
  EXPECT_EQ(count, 1);
}

TEST(EventBus, DoesNotDeliverToOtherTopics) {
  EventBus bus;
  int count = 0;
  bus.subscribe("a", [&](const Event&) { ++count; });
  bus.publish({"b", "", 0, 0});
  EXPECT_EQ(count, 0);
}

TEST(EventBus, WildcardSeesEverything) {
  EventBus bus;
  int count = 0;
  bus.subscribe_all([&](const Event&) { ++count; });
  bus.publish({"a", "", 0, 0});
  bus.publish({"b", "", 0, 0});
  EXPECT_EQ(count, 2);
}

TEST(EventBus, MultipleSubscribersAllReceive) {
  EventBus bus;
  int a = 0, b = 0;
  bus.subscribe("t", [&](const Event&) { ++a; });
  bus.subscribe("t", [&](const Event&) { ++b; });
  bus.publish({"t", "", 0, 0});
  EXPECT_EQ(a, 1);
  EXPECT_EQ(b, 1);
}

TEST(EventBus, ReentrantPublishIsQueuedNotRecursive) {
  EventBus bus;
  std::vector<std::string> order;
  bus.subscribe("first", [&](const Event&) {
    order.push_back("first");
    bus.publish({"second", "", 0, 0});
    order.push_back("first-done");
  });
  bus.subscribe("second", [&](const Event&) { order.push_back("second"); });
  bus.publish({"first", "", 0, 0});
  ASSERT_EQ(order.size(), 3u);
  // "second" is delivered after the first handler completes.
  EXPECT_EQ(order[0], "first");
  EXPECT_EQ(order[1], "first-done");
  EXPECT_EQ(order[2], "second");
}

TEST(EventBus, ChainedReentrantPublishesTerminate) {
  EventBus bus;
  int depth = 0;
  bus.subscribe("ping", [&](const Event&) {
    if (depth < 10) {
      ++depth;
      bus.publish({"ping", "", 0, 0});
    }
  });
  bus.publish({"ping", "", 0, 0});
  EXPECT_EQ(depth, 10);
}

TEST(EventBus, RecoversAfterThrowingHandler) {
  // Regression: publish() set delivering_ = true and only reset it on the
  // normal path. A throwing handler left the flag stuck, so every later
  // publish was queued as "reentrant" and never delivered — the bus went
  // permanently silent. The exception must propagate, but the bus must
  // keep working afterwards.
  EventBus bus;
  int delivered = 0;
  bus.subscribe("boom", [](const Event&) { throw std::runtime_error("handler"); });
  bus.subscribe("ok", [&](const Event&) { ++delivered; });

  EXPECT_THROW(bus.publish({"boom", "", 0, 0}), std::runtime_error);
  bus.publish({"ok", "", 0, 0});
  EXPECT_EQ(delivered, 1);
}

TEST(EventBus, ThrowingHandlerDiscardsFailedBatchOnly) {
  // Reentrant events queued before the throw belong to the failed publish
  // and are dropped with it; they must not leak into the next publish.
  EventBus bus;
  int second = 0;
  bus.subscribe("first", [&](const Event&) {
    bus.publish({"second", "", 0, 0});
    throw std::runtime_error("after queueing");
  });
  bus.subscribe("second", [&](const Event&) { ++second; });

  EXPECT_THROW(bus.publish({"first", "", 0, 0}), std::runtime_error);
  EXPECT_EQ(second, 0);
  bus.publish({"second", "", 0, 0});
  EXPECT_EQ(second, 1);
}

TEST(EventBus, HandlerMaySubscribeDuringDelivery) {
  EventBus bus;
  int late = 0;
  bus.subscribe("t", [&](const Event&) {
    bus.subscribe("t", [&](const Event&) { ++late; });
  });
  bus.publish({"t", "", 0, 0});  // must not crash / not deliver to the new sub
  bus.publish({"t", "", 0, 0});
  EXPECT_EQ(late, 1);
}

TEST(EventBus, SubscribeAcceptsStringViewWithoutCopy) {
  // Topic lookup is heterogeneous: subscribing via a string_view into a
  // larger buffer must match publishes of the same topic text.
  EventBus bus;
  const std::string buffer = "safety/estop:rest-of-line";
  const std::string_view topic = std::string_view{buffer}.substr(0, 12);
  int count = 0;
  bus.subscribe(topic, [&](const Event&) { ++count; });
  bus.publish({"safety/estop", "", 0, 0});
  EXPECT_EQ(count, 1);
}

}  // namespace
}  // namespace agrarsec::core
