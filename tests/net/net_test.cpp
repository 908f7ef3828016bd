// Radio medium, message codecs and attacker primitives.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "net/attacker.h"
#include "net/message.h"
#include "net/radio.h"

namespace agrarsec::net {
namespace {

struct TwoNodes {
  core::Rng rng{123};
  RadioMedium medium{core::Rng{123}, perfect_config()};
  std::vector<Frame> received_a;
  std::vector<Frame> received_b;
  NodeId a{1};
  NodeId b{2};
  core::Vec2 pos_a{0, 0};
  core::Vec2 pos_b{100, 0};

  static RadioConfig perfect_config() {
    RadioConfig c;
    c.base_loss = 0.0;
    c.latency_jitter = 0;
    c.collision_probability = 1.0;  // deterministic collisions for tests
    return c;
  }

  TwoNodes() {
    medium.attach(a, [this] { return pos_a; },
                  [this](const Frame& f, core::SimTime) { received_a.push_back(f); });
    medium.attach(b, [this] { return pos_b; },
                  [this](const Frame& f, core::SimTime) { received_b.push_back(f); });
  }

  void pump(core::SimTime until) {
    for (core::SimTime t = 0; t <= until; t += 10) medium.step(t);
  }
};

TEST(Radio, DeliversUnicast) {
  TwoNodes net;
  Frame f;
  f.src = net.a;
  f.dst = net.b;
  f.payload = core::from_string("hello");
  net.medium.send(f, 0);
  net.pump(100);
  ASSERT_EQ(net.received_b.size(), 1u);
  EXPECT_EQ(net.received_b[0].payload, core::from_string("hello"));
  EXPECT_TRUE(net.received_a.empty());
}

TEST(Radio, BroadcastReachesAllOthers) {
  TwoNodes net;
  Frame f;
  f.src = net.a;
  f.dst = NodeId::invalid();
  net.medium.send(f, 0);
  net.pump(100);
  EXPECT_EQ(net.received_b.size(), 1u);
  EXPECT_TRUE(net.received_a.empty());  // no self-delivery
}

TEST(Radio, ReceiverSeesFrameAsSent) {
  // Receivers are handed the queued frame itself: the sender's payload,
  // dst = the receiver's own id on a unicast, and dst still invalid on a
  // broadcast (the medium does not stamp the receiver into it).
  TwoNodes net;
  Frame unicast;
  unicast.src = net.a;
  unicast.dst = net.b;
  unicast.payload = core::from_string("to-b");
  net.medium.send(unicast, 0);
  Frame broadcast;
  broadcast.src = net.a;
  broadcast.dst = NodeId::invalid();
  broadcast.payload = core::from_string("to-all");
  net.medium.send(broadcast, 50);
  net.pump(200);
  ASSERT_EQ(net.received_b.size(), 2u);
  EXPECT_EQ(net.received_b[0].payload, core::from_string("to-b"));
  EXPECT_EQ(net.received_b[0].dst.value(), net.b.value());
  EXPECT_EQ(net.received_b[1].payload, core::from_string("to-all"));
  EXPECT_EQ(net.received_b[1].src.value(), net.a.value());
  EXPECT_FALSE(net.received_b[1].dst.valid());
}

TEST(Radio, BroadcastCountsPrunedNodesAsOutOfRange) {
  // A broadcast judges every other attached node: nodes beyond
  // max_range_m, however far, are each counted as kOutOfRange and only
  // in-range nodes receive the frame.
  RadioMedium medium{core::Rng{5}, TwoNodes::perfect_config()};
  std::size_t delivered_cb = 0;
  const auto attach_at = [&](std::uint64_t id, core::Vec2 pos) {
    medium.attach(NodeId{id}, [pos] { return pos; },
                  [&](const Frame&, core::SimTime) { ++delivered_cb; });
  };
  attach_at(1, {0, 0});  // sender
  attach_at(2, {100, 0});          // in range
  attach_at(3, {400, 0});          // in range (max_range_m = 600)
  attach_at(4, {5000, 0});         // far beyond range
  attach_at(5, {0, 9000});         // far beyond range
  attach_at(6, {700, 0});          // just beyond range

  Frame f;
  f.src = NodeId{1};
  f.dst = NodeId::invalid();
  medium.send(f, 0);
  for (core::SimTime t = 0; t <= 100; t += 10) medium.step(t);

  EXPECT_EQ(delivered_cb, 2u);
  EXPECT_EQ(medium.count(DeliveryOutcome::kDelivered), 2u);
  // All three unreachable nodes counted, near miss and far alike.
  EXPECT_EQ(medium.count(DeliveryOutcome::kOutOfRange), 3u);
}

TEST(Radio, BroadcastAfterDetachSkipsNode) {
  TwoNodes net;
  net.medium.detach(net.b);
  Frame f;
  f.src = net.a;
  f.dst = NodeId::invalid();
  net.medium.send(f, 0);
  net.pump(100);
  EXPECT_TRUE(net.received_b.empty());
  EXPECT_EQ(net.medium.count(DeliveryOutcome::kOutOfRange), 0u);
  EXPECT_EQ(net.medium.count(DeliveryOutcome::kDelivered), 0u);
}

TEST(Radio, DetachDuringBroadcastDeliverySkipsDetachedNode) {
  // Regression: the broadcast snapshot stored raw Endpoint pointers; a
  // receive callback detaching another node mid-fan-out left later
  // deliveries dereferencing a freed Endpoint (use-after-free under ASan).
  // The snapshot now carries ids and re-finds the endpoint at delivery.
  RadioMedium medium{core::Rng{9}, TwoNodes::perfect_config()};
  int received_b = 0;
  int received_c = 0;
  medium.attach(NodeId{1}, [] { return core::Vec2{0, 0}; },
                [](const Frame&, core::SimTime) {});
  // Node 2's handler rips node 3 out of the medium; the fan-out visits
  // ascending ids, so node 3's delivery happens after the detach.
  medium.attach(NodeId{2}, [] { return core::Vec2{50, 0}; },
                [&](const Frame&, core::SimTime) {
                  ++received_b;
                  medium.detach(NodeId{3});
                });
  medium.attach(NodeId{3}, [] { return core::Vec2{100, 0}; },
                [&](const Frame&, core::SimTime) { ++received_c; });

  Frame f;
  f.src = NodeId{1};
  f.dst = NodeId::invalid();
  medium.send(f, 0);
  for (core::SimTime t = 0; t <= 100; t += 10) medium.step(t);

  EXPECT_EQ(received_b, 1);
  EXPECT_EQ(received_c, 0);  // vanished mid-step: skipped, not delivered
  EXPECT_EQ(medium.count(DeliveryOutcome::kDelivered), 1u);
}

TEST(Radio, SelfDetachDuringReceiveIsSafe) {
  // A node may react to a frame by leaving the network (e.g. a de-auth
  // response); destroying its Endpoint must not free the std::function
  // currently executing.
  RadioMedium medium{core::Rng{9}, TwoNodes::perfect_config()};
  int received = 0;
  medium.attach(NodeId{1}, [] { return core::Vec2{0, 0}; },
                [](const Frame&, core::SimTime) {});
  medium.attach(NodeId{2}, [] { return core::Vec2{50, 0}; },
                [&](const Frame&, core::SimTime) {
                  ++received;
                  medium.detach(NodeId{2});
                });
  Frame f;
  f.src = NodeId{1};
  f.dst = NodeId{2};
  medium.send(f, 0);
  for (core::SimTime t = 0; t <= 100; t += 10) medium.step(t);
  EXPECT_EQ(received, 1);
}

TEST(Radio, OutOfRangeDropped) {
  TwoNodes net;
  net.pos_b = {10000, 0};
  Frame f;
  f.src = net.a;
  f.dst = net.b;
  net.medium.send(f, 0);
  net.pump(100);
  EXPECT_TRUE(net.received_b.empty());
  EXPECT_EQ(net.medium.count(DeliveryOutcome::kOutOfRange), 1u);
}

TEST(Radio, PathLossGrowsWithDistance) {
  RadioConfig config;
  config.base_loss = 0.05;
  config.latency_jitter = 0;

  auto loss_rate = [&](double distance) {
    RadioMedium medium{core::Rng{7}, config};
    core::Vec2 pa{0, 0}, pb{distance, 0};
    int received = 0;
    medium.attach(NodeId{1}, [&] { return pa; }, [](const Frame&, core::SimTime) {});
    medium.attach(NodeId{2}, [&] { return pb; },
                  [&](const Frame&, core::SimTime) { ++received; });
    constexpr int kFrames = 2000;
    for (int i = 0; i < kFrames; ++i) {
      Frame f;
      f.src = NodeId{1};
      f.dst = NodeId{2};
      medium.send(f, i * 10);
      medium.step(i * 10 + 9);
    }
    return 1.0 - static_cast<double>(received) / kFrames;
  };

  const double near = loss_rate(50);
  const double mid = loss_rate(300);
  const double far = loss_rate(550);
  EXPECT_LT(near, 0.10);
  EXPECT_GT(mid, near);
  EXPECT_GT(far, mid);
}

TEST(Radio, JammerKillsFramesInRadius) {
  TwoNodes net;
  Jammer j;
  j.position = {100, 0};  // on top of node b
  j.radius_m = 50;
  j.effectiveness = 1.0;
  j.active = true;
  net.medium.add_jammer(j);

  for (int i = 0; i < 20; ++i) {
    Frame f;
    f.src = net.a;
    f.dst = net.b;
    net.medium.send(f, i * 10);
  }
  net.pump(300);
  EXPECT_TRUE(net.received_b.empty());
  EXPECT_EQ(net.medium.count(DeliveryOutcome::kJammed), 20u);
}

TEST(Radio, JammerChannelSelectivity) {
  TwoNodes net;
  Jammer j;
  j.position = {100, 0};
  j.radius_m = 50;
  j.effectiveness = 1.0;
  j.channel = 5;
  j.active = true;
  net.medium.add_jammer(j);

  Frame on_5;
  on_5.src = net.a;
  on_5.dst = net.b;
  on_5.channel = 5;
  net.medium.send(on_5, 0);
  Frame on_3 = on_5;
  on_3.channel = 3;
  net.medium.send(on_3, 50);
  net.pump(200);
  ASSERT_EQ(net.received_b.size(), 1u);
  EXPECT_EQ(net.received_b[0].channel, 3u);
}

TEST(Radio, JammerCanBeDeactivated) {
  TwoNodes net;
  Jammer j;
  j.position = {100, 0};
  j.radius_m = 50;
  j.effectiveness = 1.0;
  j.active = true;
  const std::size_t idx = net.medium.add_jammer(j);

  Frame f;
  f.src = net.a;
  f.dst = net.b;
  net.medium.send(f, 0);
  net.pump(50);
  EXPECT_TRUE(net.received_b.empty());

  net.medium.set_jammer_active(idx, false);
  net.medium.send(f, 100);
  net.pump(200);
  EXPECT_EQ(net.received_b.size(), 1u);
}

TEST(Radio, DropRuleTargetsVictim) {
  TwoNodes net;
  net.medium.add_drop_rule(DropRule{net.b, 1.0});
  Frame f;
  f.src = net.a;
  f.dst = net.b;
  net.medium.send(f, 0);
  net.pump(100);
  EXPECT_TRUE(net.received_b.empty());
  EXPECT_EQ(net.medium.count(DeliveryOutcome::kDropped), 1u);
}

TEST(Radio, CollisionOnSameChannelCloseInTime) {
  TwoNodes net;
  // Third node transmitting simultaneously on the same channel.
  core::Vec2 pos_c{50, 50};
  net.medium.attach(NodeId{3}, [&] { return pos_c; },
                    [](const Frame&, core::SimTime) {});
  Frame f1;
  f1.src = net.a;
  f1.dst = net.b;
  Frame f2;
  f2.src = NodeId{3};
  f2.dst = net.b;
  net.medium.send(f1, 0);
  net.medium.send(f2, 1);  // within collision window
  net.pump(100);
  EXPECT_TRUE(net.received_b.empty());
  EXPECT_GE(net.medium.count(DeliveryOutcome::kCollision), 1u);
}

TEST(Radio, CollisionMarksOnlySameChannelPairsInWindow) {
  // Collisions pair frames due in the same step on the same channel from
  // different senders whose send times lie within kCollisionWindowMs
  // (inclusive). Three senders on two channels, interleaved in send time:
  //   A ch1 src1 t=0   collides with C (gap 3)
  //   B ch2 src2 t=1   same sender as D: no collision
  //   C ch1 src3 t=3   collides with A, and with G (gap 5, on the edge)
  //   D ch2 src2 t=4   E is 6 ms later, just past the 5 ms window
  //   G ch1 src2 t=8   collides with C
  //   E ch2 src3 t=10  nothing on ch2 within 5 ms from another sender
  const RadioConfig config = TwoNodes::perfect_config();  // loss 0, no jitter
  ASSERT_EQ(kCollisionWindowMs, 5.0);
  ASSERT_EQ(config.collision_probability, 1.0);
  RadioMedium medium{core::Rng{11}, config};
  for (std::uint64_t id = 1; id <= 3; ++id) {
    medium.attach(NodeId{id}, [id] { return core::Vec2{10.0 * static_cast<double>(id), 0}; },
                  [](const Frame&, core::SimTime) {});
  }
  std::vector<std::string> received;
  medium.attach(NodeId{4}, [] { return core::Vec2{50, 0}; },
                [&](const Frame& f, core::SimTime) {
                  received.emplace_back(f.payload.begin(), f.payload.end());
                });

  struct Send {
    const char* label;
    std::uint32_t channel;
    std::uint64_t src;
    core::SimTime at;
  };
  const Send sends[] = {{"A", 1, 1, 0}, {"B", 2, 2, 1}, {"C", 1, 3, 3},
                        {"D", 2, 2, 4}, {"G", 1, 2, 8}, {"E", 2, 3, 10}};
  for (const Send& send : sends) {
    Frame f;
    f.src = NodeId{send.src};
    f.dst = NodeId{4};
    f.channel = send.channel;
    f.payload = core::from_string(send.label);
    medium.send(f, send.at);
  }
  medium.step(100);  // one step: every frame is due in the same batch

  EXPECT_EQ(received, (std::vector<std::string>{"B", "D", "E"}));
  EXPECT_EQ(medium.count(DeliveryOutcome::kCollision), 3u);
  EXPECT_EQ(medium.count(DeliveryOutcome::kDelivered), 3u);
}

TEST(Radio, DueFrameNotBlockedByEarlierSendWithLaterDeadline) {
  // Regression: the queue was a FIFO deque popped only while the *front*
  // was due. A frame whose deliver_at lay in the future (here: sent with a
  // larger `now`) blocked every already-due frame queued behind it.
  TwoNodes net;
  Frame late;
  late.src = net.a;
  late.dst = net.b;
  late.payload = core::from_string("late");
  net.medium.send(late, 100);  // due at 102

  Frame early;
  early.src = net.a;
  early.dst = net.b;
  early.payload = core::from_string("early");
  net.medium.send(early, 0);  // due at 2, but queued *behind* `late`

  net.medium.step(5);
  ASSERT_EQ(net.received_b.size(), 1u);
  EXPECT_EQ(net.received_b[0].payload, core::from_string("early"));

  net.medium.step(200);
  ASSERT_EQ(net.received_b.size(), 2u);
  EXPECT_EQ(net.received_b[1].payload, core::from_string("late"));
}

TEST(Radio, JitteredFramesDeliverInDeliverAtOrder) {
  // Regression: with latency jitter, deliver_at is non-monotone in send
  // order. The FIFO queue nevertheless released frames strictly in send
  // order, so a high-jitter frame both delayed its successors and erased
  // the reordering the jitter models. The heap delivers by deliver_at.
  RadioConfig config;
  config.base_loss = 0.0;
  config.collision_probability = 0.0;
  config.base_latency = 2;
  config.latency_jitter = 30;
  RadioMedium medium{core::Rng{42}, config};

  const NodeId src{1};
  const NodeId dst{2};
  std::vector<std::pair<std::uint32_t, core::SimTime>> arrivals;  // (send idx, time)
  medium.attach(src, [] { return core::Vec2{0, 0}; },
                [](const Frame&, core::SimTime) {});
  medium.attach(dst, [] { return core::Vec2{50, 0}; },
                [&](const Frame& f, core::SimTime now) {
                  arrivals.emplace_back(f.channel, now);
                });

  constexpr std::uint32_t kFrames = 40;
  for (std::uint32_t i = 0; i < kFrames; ++i) {
    Frame f;
    f.src = src;
    f.dst = dst;
    f.channel = i;  // tag each frame with its send index
    medium.send(f, 0);
  }
  for (core::SimTime t = 0; t <= 64; ++t) medium.step(t);

  ASSERT_EQ(arrivals.size(), kFrames);
  bool reordered = false;
  for (std::size_t i = 0; i < arrivals.size(); ++i) {
    // Every frame arrives within its own jittered latency window; none is
    // held hostage behind a slower head frame.
    EXPECT_GE(arrivals[i].second, 2);
    EXPECT_LE(arrivals[i].second, 32);
    if (i > 0) {
      // Time must advance monotonically even though send order does not.
      EXPECT_GE(arrivals[i].second, arrivals[i - 1].second);
      if (arrivals[i].first < arrivals[i - 1].first) reordered = true;
    }
  }
  // Jitter must be able to reorder frames (impossible with the FIFO).
  EXPECT_TRUE(reordered);
}

TEST(Radio, SnifferSeesAllFrames) {
  TwoNodes net;
  int sniffed = 0;
  net.medium.add_sniffer([&](const Frame&) { ++sniffed; });
  Frame f;
  f.src = net.a;
  f.dst = net.b;
  net.medium.send(f, 0);
  net.medium.send(f, 10);
  EXPECT_EQ(sniffed, 2);
}

TEST(Message, EncodeDecodeRoundTrip) {
  Message m;
  m.type = MessageType::kDetectionReport;
  m.sender = 42;
  m.sequence = 7;
  m.timestamp = 123456;
  m.body = DetectionBody{10.5, -3.25, 0.93, 4}.encode();

  const auto decoded = Message::decode(m.encode());
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->type, MessageType::kDetectionReport);
  EXPECT_EQ(decoded->sender, 42u);
  EXPECT_EQ(decoded->sequence, 7u);
  EXPECT_EQ(decoded->timestamp, 123456);

  const auto body = DetectionBody::decode(decoded->body);
  ASSERT_TRUE(body.has_value());
  EXPECT_DOUBLE_EQ(body->x, 10.5);
  EXPECT_DOUBLE_EQ(body->y, -3.25);
  EXPECT_DOUBLE_EQ(body->confidence, 0.93);
  EXPECT_EQ(body->track_id, 4u);
}

// The in-place writers produce exactly the owned encoders' bytes, and the
// view decodes them with its body pointing into the decoded buffer.
TEST(Message, InPlaceWritersMatchOwnedEncode) {
  Message m;
  m.type = MessageType::kTelemetry;
  m.sender = 11;
  m.sequence = 900;
  m.timestamp = 77700;
  const TelemetryBody telemetry{12.5, -4.0, 1.25, 3.0};
  m.body = telemetry.encode();

  core::Bytes written(kMessageHeaderSize + TelemetryBody::kSize);
  write_message_header(written.data(), m.type, m.sender, m.sequence, m.timestamp,
                       TelemetryBody::kSize);
  telemetry.encode_into(written.data() + kMessageHeaderSize);
  EXPECT_EQ(core::to_hex(written), core::to_hex(m.encode()));

  const auto view = MessageView::decode(written);
  ASSERT_TRUE(view.has_value());
  EXPECT_EQ(view->type, m.type);
  EXPECT_EQ(view->sender, m.sender);
  EXPECT_EQ(view->sequence, m.sequence);
  EXPECT_EQ(view->timestamp, m.timestamp);
  EXPECT_EQ(view->body.data(), written.data() + kMessageHeaderSize);
  EXPECT_EQ(view->body.size(), TelemetryBody::kSize);

  core::Bytes detection(DetectionBody::kSize);
  const DetectionBody d{1.5, 2.5, 0.75, 9};
  d.encode_into(detection.data());
  EXPECT_EQ(detection, d.encode());
}

TEST(Message, DecodeRejectsGarbage) {
  EXPECT_FALSE(Message::decode(core::from_string("x")).has_value());
  core::Bytes junk(64, 0xFF);
  EXPECT_FALSE(Message::decode(junk).has_value());
}

TEST(Message, DecodeRejectsLengthMismatch) {
  Message m;
  m.body = core::from_string("abc");
  auto bytes = m.encode();
  bytes.push_back(0);  // trailing garbage
  EXPECT_FALSE(Message::decode(bytes).has_value());
}

TEST(Message, TelemetryBodyRoundTrip) {
  const TelemetryBody body{1.0, 2.0, 0.5, 3.5};
  const auto decoded = TelemetryBody::decode(body.encode());
  ASSERT_TRUE(decoded.has_value());
  EXPECT_DOUBLE_EQ(decoded->heading, 0.5);
  EXPECT_DOUBLE_EQ(decoded->speed, 3.5);
}

TEST(Message, EstopBodyRoundTrip) {
  const EstopBody body{3, 17};
  const auto decoded = EstopBody::decode(body.encode());
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->reason, 3u);
  EXPECT_EQ(decoded->target, 17u);
}

TEST(Message, BodyDecodersRejectWrongSizes) {
  core::Bytes junk(5, 0);
  EXPECT_FALSE(DetectionBody::decode(junk).has_value());
  EXPECT_FALSE(TelemetryBody::decode(junk).has_value());
  EXPECT_FALSE(EstopBody::decode(junk).has_value());
}

TEST(Attacker, ProfileLevels) {
  const auto l1 = attacker_profile_for_level(1);
  EXPECT_TRUE(l1.can_sniff);
  EXPECT_FALSE(l1.can_spoof);
  const auto l2 = attacker_profile_for_level(2);
  EXPECT_TRUE(l2.can_spoof);
  EXPECT_TRUE(l2.can_replay);
  EXPECT_FALSE(l2.can_jam);
  const auto l3 = attacker_profile_for_level(3);
  EXPECT_TRUE(l3.can_jam);
  EXPECT_TRUE(l3.can_drop);
  EXPECT_FALSE(l3.can_forge_crypto);
  const auto l4 = attacker_profile_for_level(4);
  EXPECT_FALSE(l4.can_forge_crypto);  // ceiling: crypto holds at all levels
}

TEST(Attacker, CapturesTraffic) {
  TwoNodes net;
  AttackerNode attacker{NodeId{66}, {50, 10}, core::Rng{5},
                        attacker_profile_for_level(2)};
  attacker.attach(net.medium);

  Frame f;
  f.src = net.a;
  f.dst = net.b;
  f.payload = core::from_string("secret telemetry");
  net.medium.send(f, 0);
  EXPECT_EQ(attacker.captured_count(), 1u);
}

TEST(Attacker, SpoofInjectsClaimedSender) {
  TwoNodes net;
  AttackerNode attacker{NodeId{66}, {50, 10}, core::Rng{5},
                        attacker_profile_for_level(2)};
  attacker.attach(net.medium);

  ASSERT_TRUE(attacker.spoof(net.medium, 0, /*spoofed_sender=*/1,
                             MessageType::kEstopCommand, EstopBody{1, 2}.encode(),
                             net.b));
  net.pump(100);
  ASSERT_EQ(net.received_b.size(), 1u);
  const auto m = Message::decode(net.received_b[0].payload);
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(m->sender, 1u);  // claims to be node a
  EXPECT_EQ(m->type, MessageType::kEstopCommand);
}

TEST(Attacker, SpoofDeniedWithoutCapability) {
  TwoNodes net;
  AttackerNode attacker{NodeId{66}, {50, 10}, core::Rng{5},
                        attacker_profile_for_level(1)};
  attacker.attach(net.medium);
  EXPECT_FALSE(attacker.spoof(net.medium, 0, 1, MessageType::kEstopCommand, {}, net.b));
}

TEST(Attacker, ReplayRetransmitsCapturedFrame) {
  TwoNodes net;
  AttackerNode attacker{NodeId{66}, {50, 10}, core::Rng{5},
                        attacker_profile_for_level(2)};
  attacker.attach(net.medium);

  Frame f;
  f.src = net.a;
  f.dst = net.b;
  f.payload = core::from_string("original");
  net.medium.send(f, 0);
  net.pump(50);
  ASSERT_EQ(net.received_b.size(), 1u);

  ASSERT_TRUE(attacker.replay_latest(net.medium, 100));
  net.pump(200);
  ASSERT_EQ(net.received_b.size(), 2u);
  EXPECT_EQ(net.received_b[1].payload, core::from_string("original"));
}

TEST(Attacker, ReplayFilterSelectsFrames) {
  TwoNodes net;
  AttackerNode attacker{NodeId{66}, {50, 10}, core::Rng{5},
                        attacker_profile_for_level(2)};
  attacker.attach(net.medium);

  Frame f1;
  f1.src = net.a;
  f1.dst = net.b;
  f1.channel = 1;
  net.medium.send(f1, 0);
  Frame f2 = f1;
  f2.channel = 2;
  net.medium.send(f2, 10);

  ASSERT_TRUE(attacker.replay_latest(net.medium, 100, [](const Frame& fr) {
    return fr.channel == 1;
  }));
  net.pump(200);
  // Find the replayed frame (channel 1 arrives twice).
  int channel1 = 0;
  for (const auto& fr : net.received_b) {
    if (fr.channel == 1) ++channel1;
  }
  EXPECT_EQ(channel1, 2);
}

TEST(Attacker, ReplayWithNoMatchFails) {
  TwoNodes net;
  AttackerNode attacker{NodeId{66}, {50, 10}, core::Rng{5},
                        attacker_profile_for_level(2)};
  attacker.attach(net.medium);
  EXPECT_FALSE(attacker.replay_latest(net.medium, 0));
}

TEST(Attacker, FloodInjectsManyFrames) {
  TwoNodes net;
  AttackerNode attacker{NodeId{66}, {50, 10}, core::Rng{5},
                        attacker_profile_for_level(2)};
  attacker.attach(net.medium);
  ASSERT_TRUE(attacker.flood(net.medium, 0, 0, 50));
  EXPECT_EQ(attacker.injected_count(), 50u);
  EXPECT_GE(net.medium.total_sent(), 50u);
}

}  // namespace
}  // namespace agrarsec::net
