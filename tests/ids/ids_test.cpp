// IDS rule engine and anomaly detectors.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <vector>

#include "core/rng.h"
#include "ids/anomaly.h"
#include "ids/ids.h"

namespace agrarsec::ids {
namespace {

net::Frame frame_with(net::Message message) {
  net::Frame f;
  f.src = NodeId{message.sender};
  f.payload = message.encode();
  return f;
}

net::Message telemetry(std::uint64_t sender, std::uint64_t seq, core::SimTime ts,
                       double x, double y) {
  net::Message m;
  m.type = net::MessageType::kTelemetry;
  m.sender = sender;
  m.sequence = seq;
  m.timestamp = ts;
  m.body = net::TelemetryBody{x, y, 0, 2.0}.encode();
  return m;
}

TEST(Ids, UnknownSenderFlagged) {
  IntrusionDetectionSystem ids;
  ids.observe(frame_with(telemetry(99, 1, 0, 0, 0)), 0);
  EXPECT_EQ(ids.alert_count("unknown-sender"), 1u);
}

TEST(Ids, RegisteredSenderClean) {
  IntrusionDetectionSystem ids;
  ids.register_node(7, false);
  ids.observe(frame_with(telemetry(7, 1, 0, 0, 0)), 0);
  EXPECT_EQ(ids.alert_count("unknown-sender"), 0u);
}

TEST(Ids, ReplayDetectedOnSequenceRegression) {
  IntrusionDetectionSystem ids;
  ids.register_node(7, false);
  ids.observe(frame_with(telemetry(7, 5, 0, 0, 0)), 0);
  ids.observe(frame_with(telemetry(7, 6, 100, 0.2, 0)), 100);
  ids.observe(frame_with(telemetry(7, 5, 200, 0.2, 0)), 200);  // replayed
  EXPECT_EQ(ids.alert_count("replay"), 1u);
}

TEST(Ids, IncreasingSequencesClean) {
  IntrusionDetectionSystem ids;
  ids.register_node(7, false);
  for (std::uint64_t s = 1; s <= 20; ++s) {
    ids.observe(frame_with(telemetry(7, s, s * 100, 0.01 * s, 0)),
                static_cast<core::SimTime>(s * 100));
  }
  EXPECT_EQ(ids.alert_count("replay"), 0u);
}

// --- control-plane sensor family (observe_control) -------------------------

TEST(IdsControlPlane, BruteforceStreakRaisesOnceAtThreshold) {
  IdsConfig config;
  config.control_bruteforce_threshold = 3;
  IntrusionDetectionSystem ids{config};
  ids.observe_control(ControlPlaneEvent::kHandshakeFailed, 0, 42);
  ids.observe_control(ControlPlaneEvent::kHandshakeFailed, 10, 42);
  EXPECT_EQ(ids.alert_count("control-bruteforce"), 0u);
  ids.observe_control(ControlPlaneEvent::kAuthzDenied, 20, 42);  // denials count too
  EXPECT_EQ(ids.alert_count("control-bruteforce"), 1u);
  // The streak resets after raising: two more failures stay quiet.
  ids.observe_control(ControlPlaneEvent::kHandshakeFailed, 30, 42);
  ids.observe_control(ControlPlaneEvent::kHandshakeFailed, 40, 42);
  EXPECT_EQ(ids.alert_count("control-bruteforce"), 1u);
}

TEST(IdsControlPlane, GenuineHandshakeResetsBruteforceStreak) {
  IdsConfig config;
  config.control_bruteforce_threshold = 3;
  IntrusionDetectionSystem ids{config};
  ids.observe_control(ControlPlaneEvent::kHandshakeFailed, 0);
  ids.observe_control(ControlPlaneEvent::kHandshakeFailed, 10);
  ids.observe_control(ControlPlaneEvent::kHandshakeOk, 20);  // operator got in
  ids.observe_control(ControlPlaneEvent::kHandshakeFailed, 30);
  ids.observe_control(ControlPlaneEvent::kHandshakeFailed, 40);
  EXPECT_EQ(ids.alert_count("control-bruteforce"), 0u);
}

TEST(IdsControlPlane, ReplayBurstCountsRejectsBetweenGenuineRecords) {
  IdsConfig config;
  config.control_replay_threshold = 4;
  IntrusionDetectionSystem ids{config};
  for (int i = 0; i < 3; ++i) {
    ids.observe_control(ControlPlaneEvent::kRecordRejected, i * 10);
  }
  ids.observe_control(ControlPlaneEvent::kRecordAccepted, 30);  // streak broken
  for (int i = 0; i < 3; ++i) {
    ids.observe_control(ControlPlaneEvent::kRecordRejected, 40 + i * 10);
  }
  EXPECT_EQ(ids.alert_count("control-replay-burst"), 0u);
  ids.observe_control(ControlPlaneEvent::kRecordRejected, 70);  // 4th in a row
  EXPECT_EQ(ids.alert_count("control-replay-burst"), 1u);
}

TEST(IdsControlPlane, CommandFloodUsesRateWindow) {
  IdsConfig config;
  config.control_flood_threshold = 5;
  config.control_flood_window = 1000;
  IntrusionDetectionSystem ids{config};
  // 5 commands inside one window: at the threshold, not above — quiet.
  for (core::SimTime t = 0; t < 500; t += 100) {
    ids.observe_control(ControlPlaneEvent::kCommandDispatched, t);
  }
  EXPECT_EQ(ids.alert_count("control-flood"), 0u);
  ids.observe_control(ControlPlaneEvent::kCommandDispatched, 500);
  EXPECT_EQ(ids.alert_count("control-flood"), 1u);
  // The same pacing a full window later is fine again once the burst ages out.
  for (core::SimTime t = 5000; t < 5500; t += 100) {
    ids.observe_control(ControlPlaneEvent::kCommandDispatched, t);
  }
  EXPECT_EQ(ids.alert_count("control-flood"), 1u);
}

TEST(Ids, StaleTimestampFlagged) {
  IntrusionDetectionSystem ids;
  ids.register_node(7, false);
  ids.observe(frame_with(telemetry(7, 1, 0, 0, 0)), 60 * core::kSecond);
  EXPECT_EQ(ids.alert_count("stale-timestamp"), 1u);
}

TEST(Ids, TeleportingTelemetryFlagged) {
  IntrusionDetectionSystem ids;
  ids.register_node(7, false);
  ids.observe(frame_with(telemetry(7, 1, 0, 0, 0)), 0);
  // 500 m in 1 s >> plausible machine speed.
  ids.observe(frame_with(telemetry(7, 2, core::kSecond, 500, 0)), core::kSecond);
  EXPECT_EQ(ids.alert_count("spoofed-position"), 1u);
}

TEST(Ids, PlausibleMotionClean) {
  IntrusionDetectionSystem ids;
  ids.register_node(7, false);
  for (int i = 0; i < 20; ++i) {
    // 2 m/s — a forwarder's crawl.
    ids.observe(frame_with(telemetry(7, static_cast<std::uint64_t>(i + 1),
                                     i * core::kSecond, 2.0 * i, 0)),
                i * core::kSecond);
  }
  EXPECT_EQ(ids.alert_count("spoofed-position"), 0u);
}

TEST(Ids, MalformedPayloadFlagged) {
  IntrusionDetectionSystem ids;
  net::Frame f;
  f.src = NodeId{7};
  f.payload = core::from_string("not a message");
  ids.observe(f, 0);
  EXPECT_EQ(ids.alert_count("malformed"), 1u);
}

TEST(Ids, MalformedTelemetryBodyFlagged) {
  IntrusionDetectionSystem ids;
  ids.register_node(7, false);
  net::Message m;
  m.type = net::MessageType::kTelemetry;
  m.sender = 7;
  m.sequence = 1;
  m.body = core::from_string("bad");
  ids.observe(frame_with(m), 0);
  EXPECT_EQ(ids.alert_count("malformed"), 1u);
}

TEST(Ids, UnauthorizedEstopFlagged) {
  IntrusionDetectionSystem ids;
  ids.register_node(7, /*may_estop=*/false);
  ids.register_node(8, /*may_estop=*/true);
  net::Message m;
  m.type = net::MessageType::kEstopCommand;
  m.sender = 7;
  m.sequence = 1;
  m.body = net::EstopBody{1, 0}.encode();
  ids.observe(frame_with(m), 0);
  EXPECT_EQ(ids.alert_count("unauthorized-estop"), 1u);

  m.sender = 8;
  ids.observe(frame_with(m), 10);
  EXPECT_EQ(ids.alert_count("unauthorized-estop"), 1u);  // authorized: no new alert
}

TEST(Ids, FloodDetected) {
  IntrusionDetectionSystem ids;
  ids.register_node(7, false);
  for (int i = 0; i < 100; ++i) {
    ids.observe(frame_with(telemetry(7, static_cast<std::uint64_t>(i + 1), i * 5,
                                     0.001 * i, 0)),
                i * 5);
  }
  EXPECT_GT(ids.alert_count("flood"), 0u);
}

TEST(Ids, NormalRateNoFlood) {
  IntrusionDetectionSystem ids;
  ids.register_node(7, false);
  for (int i = 0; i < 100; ++i) {  // 10 Hz — normal telemetry
    ids.observe(frame_with(telemetry(7, static_cast<std::uint64_t>(i + 1), i * 100,
                                     0.01 * i, 0)),
                i * 100);
  }
  EXPECT_EQ(ids.alert_count("flood"), 0u);
}

TEST(Ids, AlertHandlerInvoked) {
  IntrusionDetectionSystem ids;
  int calls = 0;
  ids.set_alert_handler([&](const Alert& a) {
    ++calls;
    EXPECT_FALSE(a.rule.empty());
  });
  ids.observe(frame_with(telemetry(99, 1, 0, 0, 0)), 0);
  EXPECT_EQ(calls, 1);
}

TEST(Ids, TotalAlertsCountsEveryRaise) {
  IntrusionDetectionSystem ids;
  for (std::uint64_t i = 0; i < 5; ++i) {
    ids.observe(frame_with(telemetry(99 + i, 1, 0, 0, 0)), 0);  // unknown sender
  }
  EXPECT_EQ(ids.total_alerts(), 5u);
  EXPECT_EQ(ids.alert_count("unknown-sender"), 5u);
  EXPECT_EQ(ids.telemetry().registry().counter("ids.alerts").value(), 5u);
}

TEST(Ids, SignaturesCanBeDisabled) {
  IdsConfig config;
  config.enable_signatures = false;
  IntrusionDetectionSystem ids{config};
  ids.observe(frame_with(telemetry(99, 1, 0, 0, 0)), 0);
  EXPECT_EQ(ids.total_alerts(), 0u);
}

TEST(Ids, RateAnomalyOnTrafficBurst) {
  IdsConfig config;
  config.enable_signatures = false;
  config.ewma_alpha = 0.2;
  config.ewma_k = 4.0;
  IntrusionDetectionSystem ids{config};
  ids.register_node(7, false);

  core::SimTime now = 0;
  // Baseline: 2 frames per tick for 100 ticks.
  for (int t = 0; t < 100; ++t) {
    for (int i = 0; i < 2; ++i) {
      ids.observe(frame_with(telemetry(7, static_cast<std::uint64_t>(t * 2 + i + 1),
                                       now, 0, 0)),
                  now);
    }
    ids.tick(now);
    now += 100;
  }
  EXPECT_EQ(ids.alert_count("rate-anomaly"), 0u);

  // Burst: 80 frames in one tick.
  for (int i = 0; i < 80; ++i) {
    ids.observe(frame_with(telemetry(7, 1000 + static_cast<std::uint64_t>(i), now, 0, 0)),
                now);
  }
  ids.tick(now);
  EXPECT_GE(ids.alert_count("rate-anomaly"), 1u);
}

TEST(Ewma, FlagsOutlierAfterWarmup) {
  EwmaDetector d{0.1, 4.0, 8};
  for (int i = 0; i < 20; ++i) EXPECT_FALSE(d.update(10.0 + (i % 2)));
  EXPECT_TRUE(d.update(100.0));
}

TEST(Ewma, NoAlertsDuringWarmup) {
  EwmaDetector d{0.1, 4.0, 50};
  for (int i = 0; i < 49; ++i) {
    EXPECT_FALSE(d.update(i % 7 == 0 ? 100.0 : 1.0));
  }
}

TEST(Ewma, TracksShiftingBaseline) {
  EwmaDetector d{0.2, 6.0, 8};
  // Noisy baseline so the deviation band stays realistic.
  for (int i = 0; i < 50; ++i) (void)d.update(i % 2 == 0 ? 9.5 : 10.5);
  // Gradual ramp well inside the band: EWMA follows, no alert.
  bool alerted = false;
  for (double x = 10.0; x <= 20.0; x += 0.2) alerted |= d.update(x);
  EXPECT_FALSE(alerted);
  EXPECT_NEAR(d.mean(), 20.0, 2.0);
}

TEST(Ewma, RejectsBadParameters) {
  EXPECT_THROW(EwmaDetector(0.0, 1.0), std::invalid_argument);
  EXPECT_THROW(EwmaDetector(1.5, 1.0), std::invalid_argument);
  EXPECT_THROW(EwmaDetector(0.5, 0.0), std::invalid_argument);
}

TEST(Cusum, DetectsSustainedShift) {
  CusumDetector d{10.0, 1.0, 20.0};
  for (int i = 0; i < 100; ++i) EXPECT_FALSE(d.update(10.0));
  // Shift of +3 over slack 1 accumulates 2/sample: alert within ~10.
  bool fired = false;
  for (int i = 0; i < 15 && !fired; ++i) fired = d.update(13.0);
  EXPECT_TRUE(fired);
}

TEST(Cusum, IgnoresShortSpike) {
  CusumDetector d{10.0, 1.0, 50.0};
  EXPECT_FALSE(d.update(30.0));  // single spike: 19 < 50
  for (int i = 0; i < 50; ++i) EXPECT_FALSE(d.update(10.0));
  EXPECT_NEAR(d.statistic(), 0.0, 1e-9);
}

TEST(Cusum, ResetsAfterFiring) {
  CusumDetector d{0.0, 0.0, 10.0};
  EXPECT_TRUE(d.update(10.0));
  EXPECT_DOUBLE_EQ(d.statistic(), 0.0);
}

TEST(Cusum, RejectsBadThreshold) {
  EXPECT_THROW(CusumDetector(0, 0, 0), std::invalid_argument);
}

TEST(RateWindow, CountsWithinWindow) {
  RateWindow w{100, 10};  // 1-second window
  w.add(0);
  w.add(50);
  w.add(500);
  EXPECT_EQ(w.count(500), 3u);
}

TEST(RateWindow, ExpiresOldBuckets) {
  RateWindow w{100, 10};
  w.add(0);
  w.add(50);
  w.add(2000);
  EXPECT_EQ(w.count(2000), 1u);
}

TEST(RateWindow, EmptyWindowZero) {
  RateWindow w{100, 10};
  EXPECT_EQ(w.count(0), 0u);
  EXPECT_EQ(w.count(100000), 0u);
}

TEST(RateWindow, RejectsBadParameters) {
  EXPECT_THROW(RateWindow(0, 10), std::invalid_argument);
  EXPECT_THROW(RateWindow(100, 0), std::invalid_argument);
}

TEST(RateWindow, HandlesBurstThenSilence) {
  RateWindow w{100, 10};
  for (int i = 0; i < 50; ++i) w.add(i * 10);  // 50 events in 0.5 s
  EXPECT_EQ(w.count(500), 50u);
  EXPECT_EQ(w.count(5000), 0u);  // long silence: all expired
}

TEST(RateWindow, HugeGapClearsTheRingInOnePass) {
  // A bucket-by-bucket rotation would take about 1e15 steps here.
  RateWindow w{1000, 10};
  for (int i = 0; i < 3; ++i) w.add(500);
  const std::int64_t later = std::numeric_limits<std::int64_t>::max() / 8;
  w.add(later);
  EXPECT_EQ(w.count(later), 1u);
  EXPECT_EQ(w.count(later - 1000), 0u);
  w.add(later + 1000);
  EXPECT_EQ(w.count(later + 1000), 2u);
}

/// The bucket-by-bucket ring walk that RateWindow replaced, kept verbatim
/// as the oracle for its running total and one-pass clear.
class ReferenceRateWindow {
 public:
  ReferenceRateWindow(std::int64_t bucket_ms, std::size_t buckets)
      : bucket_ms_(bucket_ms), buckets_(buckets, 0) {}

  void add(std::int64_t now_ms) {
    rotate(now_ms);
    ++buckets_[head_];
  }

  [[nodiscard]] std::uint64_t count(std::int64_t now_ms) const {
    if (!started_) return 0;
    const std::int64_t bucket = now_ms / bucket_ms_;
    const auto n = static_cast<std::int64_t>(buckets_.size());
    std::uint64_t total = 0;
    for (std::int64_t j = 0; j < n; ++j) {
      const std::int64_t abs_bucket = head_bucket_ - j;
      if (abs_bucket < bucket - n + 1 || abs_bucket > bucket) continue;
      const std::size_t idx =
          (head_ + buckets_.size() - static_cast<std::size_t>(j)) % buckets_.size();
      total += buckets_[idx];
    }
    return total;
  }

 private:
  void rotate(std::int64_t now_ms) {
    const std::int64_t bucket = now_ms / bucket_ms_;
    if (!started_) {
      head_bucket_ = bucket;
      started_ = true;
      return;
    }
    while (head_bucket_ < bucket) {
      ++head_bucket_;
      head_ = (head_ + 1) % buckets_.size();
      buckets_[head_] = 0;
    }
  }

  std::int64_t bucket_ms_;
  std::vector<std::uint64_t> buckets_;
  std::int64_t head_bucket_ = 0;
  std::size_t head_ = 0;
  bool started_ = false;
};

TEST(RateWindow, MatchesTheRingWalkReferenceOnSeededCalls) {
  // 800,000 seeded add and count calls over several window shapes: steps
  // inside a bucket, across a few buckets and across gaps of up to 1,000
  // buckets, past timestamps for both calls, counts ahead of the newest
  // bucket, and streams that start at negative times.
  struct Shape {
    std::int64_t bucket_ms;
    std::size_t buckets;
  };
  const std::vector<Shape> shapes{{100, 10}, {1000, 10}, {1, 1}, {7, 3}, {50, 64}};
  constexpr int kStreamsPerShape = 8;
  constexpr int kCallsPerStream = 20000;
  core::Rng rng{0x5EED'2A7Eull};
  std::uint64_t compared = 0;
  for (const Shape& shape : shapes) {
    for (int stream = 0; stream < kStreamsPerShape; ++stream) {
      RateWindow window{shape.bucket_ms, shape.buckets};
      ReferenceRateWindow reference{shape.bucket_ms, shape.buckets};
      std::int64_t now = stream % 2 == 0
                             ? 0
                             : -static_cast<std::int64_t>(rng.next_below(100000));
      for (int call = 0; call < kCallsPerStream; ++call) {
        const std::uint64_t roll = rng.next_below(100);
        if (roll < 50) {
          now += static_cast<std::int64_t>(rng.next_below(
              static_cast<std::uint64_t>(shape.bucket_ms)));
        } else if (roll < 80) {
          now += shape.bucket_ms * static_cast<std::int64_t>(rng.next_below(4));
        } else if (roll < 85) {
          now += shape.bucket_ms * static_cast<std::int64_t>(rng.next_below(1001));
        }
        std::int64_t at = now;
        const std::uint64_t when = rng.next_below(10);
        if (when == 0) {
          at -= static_cast<std::int64_t>(rng.next_below(
              static_cast<std::uint64_t>(shape.bucket_ms) * (shape.buckets + 3)));
        } else if (when == 1) {
          at += static_cast<std::int64_t>(rng.next_below(
              static_cast<std::uint64_t>(shape.bucket_ms) * (shape.buckets + 3)));
        }
        if (rng.next_below(2) == 0) {
          window.add(at);
          reference.add(at);
        } else {
          ASSERT_EQ(window.count(at), reference.count(at))
              << "bucket_ms=" << shape.bucket_ms << " buckets=" << shape.buckets
              << " stream=" << stream << " call=" << call << " at=" << at;
          ++compared;
        }
        // Every call is also checked at the newest time, the count the
        // IDS makes after each add.
        ASSERT_EQ(window.count(now), reference.count(now))
            << "bucket_ms=" << shape.bucket_ms << " buckets=" << shape.buckets
            << " stream=" << stream << " call=" << call << " now=" << now;
      }
    }
  }
  EXPECT_GT(compared, 300000u);
}

}  // namespace
}  // namespace agrarsec::ids
