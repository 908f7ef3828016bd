// Tests for the telemetry subsystem: histogram edge bins, flight-recorder
// wraparound, and golden JSON/JSONL output stability (the deterministic
// export is a parity artifact — its exact bytes are part of the contract).
#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <string>

#include "core/event_bus.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/telemetry.h"
#include "obs/trace.h"

namespace agrarsec::obs {
namespace {

TEST(CounterTest, AddAndValue) {
  Registry reg;
  Counter& c = reg.counter("c");
  EXPECT_EQ(c.value(), 0u);
  c.add();
  c.add(41);
  EXPECT_EQ(c.value(), 42u);
}

TEST(CounterTest, GetOrCreateReturnsSameInstrument) {
  Registry reg;
  Counter& a = reg.counter("same");
  a.add(7);
  EXPECT_EQ(&reg.counter("same"), &a);
  EXPECT_EQ(reg.counter("same").value(), 7u);
  EXPECT_EQ(reg.find_counter("same"), &a);
  EXPECT_EQ(reg.find_counter("absent"), nullptr);
}

TEST(GaugeTest, SetAndAdd) {
  Registry reg;
  Gauge& g = reg.gauge("g");
  g.set(2.5);
  g.add(1.0);
  EXPECT_DOUBLE_EQ(g.value(), 3.5);
}

TEST(HistogramTest, EdgeBins) {
  Registry reg;
  Histogram& h = reg.histogram("h", 0.0, 10.0, 5);

  h.add(-0.001);  // below lo: underflow
  h.add(0.0);     // exactly lo: first bin
  h.add(1.999);   // just inside bin 0 (bin width 2)
  h.add(2.0);     // exact interior boundary: opens bin 1
  h.add(9.999);   // last bin
  h.add(10.0);    // exactly hi: overflow, not the last bin
  h.add(11.0);    // above hi: overflow

  EXPECT_EQ(h.underflow(), 1u);
  EXPECT_EQ(h.overflow(), 2u);
  EXPECT_EQ(h.bin_count(0), 2u);
  EXPECT_EQ(h.bin_count(1), 1u);
  EXPECT_EQ(h.bin_count(2), 0u);
  EXPECT_EQ(h.bin_count(3), 0u);
  EXPECT_EQ(h.bin_count(4), 1u);
  EXPECT_EQ(h.count(), 7u);  // under/overflow still count toward count/sum
  EXPECT_DOUBLE_EQ(h.min(), -0.001);
  EXPECT_DOUBLE_EQ(h.max(), 11.0);
  EXPECT_DOUBLE_EQ(h.bin_low(1), 2.0);
}

TEST(HistogramTest, EmptyHistogramHasInfiniteMinMax) {
  Registry reg;
  Histogram& h = reg.histogram("h", 0.0, 1.0, 2);
  EXPECT_EQ(h.count(), 0u);
  EXPECT_TRUE(std::isinf(h.min()));
  EXPECT_TRUE(std::isinf(h.max()));
  // The export omits sum/min/max for empty histograms so the JSON stays
  // parseable (no bare "inf" tokens).
  EXPECT_EQ(reg.to_json(),
            "{\"counters\":{},\"gauges\":{},\"histograms\":{\"h\":{\"lo\":0,"
            "\"hi\":1,\"bins\":[0,0],\"underflow\":0,\"overflow\":0,"
            "\"count\":0}}}");
}

TEST(RegistryTest, ToJsonGolden) {
  Registry reg;
  reg.counter("a").add(2);
  reg.gauge("g").set(1.5);
  Histogram& h = reg.histogram("h", 0.0, 8.0, 2);
  h.add(1.0);
  h.add(5.0);
  h.add(12.0);
  EXPECT_EQ(reg.to_json(),
            "{\"counters\":{\"a\":2},\"gauges\":{\"g\":1.5},\"histograms\":{"
            "\"h\":{\"lo\":0,\"hi\":8,\"bins\":[1,1],\"underflow\":0,"
            "\"overflow\":1,\"count\":3,\"sum\":18,\"min\":1,\"max\":12}}}");
}

TEST(RegistryTest, JsonKeysAreNameSorted) {
  Registry reg;
  reg.counter("zeta").add(1);
  reg.counter("alpha").add(2);
  const std::string json = reg.to_json();
  EXPECT_LT(json.find("alpha"), json.find("zeta"));
}

TEST(FlightRecorderTest, RingWraparound) {
  FlightRecorder rec{4};
  for (std::uint64_t i = 0; i < 10; ++i) {
    rec.record(static_cast<core::SimTime>(i), "c", "e", i);
  }
  EXPECT_EQ(rec.capacity(), 4u);
  EXPECT_EQ(rec.size(), 4u);
  EXPECT_EQ(rec.total_recorded(), 10u);
  EXPECT_EQ(rec.dropped(), 6u);

  std::uint64_t expected_seq = 6;  // oldest survivor after wraparound
  rec.for_each([&expected_seq](const FlightEvent& e) {
    EXPECT_EQ(e.seq, expected_seq);
    EXPECT_EQ(e.subject, expected_seq);
    ++expected_seq;
  });
  EXPECT_EQ(expected_seq, 10u);
}

TEST(FlightRecorderTest, JsonlGolden) {
  FlightRecorder rec{8};
  rec.record(1500, "planner", "cache-miss", 7, 42);
  rec.record(2000, "radio", "collision", 3, 0, 5, "ch \"a\"\n");
  EXPECT_EQ(rec.to_jsonl(),
            "{\"seq\":0,\"t\":1500,\"cat\":\"planner\",\"code\":\"cache-miss\","
            "\"subject\":7,\"a\":42}\n"
            "{\"seq\":1,\"t\":2000,\"cat\":\"radio\",\"code\":\"collision\","
            "\"subject\":3,\"b\":5,\"detail\":\"ch \\\"a\\\"\\n\"}\n");
}

TEST(FlightRecorderTest, ReadSinceResumesWithoutOverlapOrGap) {
  FlightRecorder rec{16};
  for (std::uint64_t i = 0; i < 6; ++i) {
    rec.record(static_cast<core::SimTime>(i * 100), "c", "e", i);
  }
  std::string first;
  const auto r1 = rec.read_since(0, 4, first);
  EXPECT_EQ(r1.events, 4u);
  EXPECT_EQ(r1.dropped, 0u);
  EXPECT_EQ(r1.next_cursor, 4u);

  std::string second;
  const auto r2 = rec.read_since(r1.next_cursor, 4, second);
  EXPECT_EQ(r2.events, 2u);
  EXPECT_EQ(r2.next_cursor, 6u);
  // Chunked reads reassemble the polled export byte-for-byte: the
  // subscription plane and the JSONL export share one serializer.
  EXPECT_EQ(first + second, rec.to_jsonl());

  // Caught up: an empty read, same cursor back.
  std::string third;
  const auto r3 = rec.read_since(r2.next_cursor, 4, third);
  EXPECT_EQ(r3.events, 0u);
  EXPECT_EQ(r3.next_cursor, 6u);
  EXPECT_TRUE(third.empty());
}

TEST(FlightRecorderTest, ReadSinceAccountsForWraparoundLag) {
  FlightRecorder rec{4};
  for (std::uint64_t i = 0; i < 10; ++i) {
    rec.record(static_cast<core::SimTime>(i), "c", "e", i);
  }
  // A subscriber parked at cursor 2 lost seqs 2..5 to the ring; the read
  // says so explicitly and resumes at the oldest survivor.
  std::string out;
  const auto r = rec.read_since(2, 16, out);
  EXPECT_EQ(r.dropped, 4u);
  EXPECT_EQ(r.events, 4u);
  EXPECT_EQ(r.next_cursor, 10u);
  EXPECT_EQ(out, rec.to_jsonl());
  EXPECT_NE(out.find("\"seq\":6"), std::string::npos);
  EXPECT_EQ(out.find("\"seq\":5"), std::string::npos);
}

TEST(FlightRecorderTest, WallAnnexCoversHeldEventsOnly) {
  FlightRecorder rec{2};
  rec.record(1, "c", "x");
  rec.record(2, "c", "y");
  rec.record(3, "c", "z");
  const std::string annex = rec.wall_annex_jsonl();
  EXPECT_EQ(annex.find("\"seq\":0"), std::string::npos);
  EXPECT_NE(annex.find("\"seq\":1"), std::string::npos);
  EXPECT_NE(annex.find("\"seq\":2"), std::string::npos);
  // The deterministic dump never carries wall clock.
  EXPECT_EQ(rec.to_jsonl().find("wall"), std::string::npos);
}

TEST(TelemetryTest, DeterministicJsonGolden) {
  Telemetry telemetry;
  telemetry.registry().counter("x").add(1);
  telemetry.recorder().record(10, "cat", "code");
  EXPECT_EQ(telemetry.deterministic_json(),
            "{\"metrics\":{\"counters\":{\"x\":1},\"gauges\":{},"
            "\"histograms\":{}},\"flight\":[{\"seq\":0,\"t\":10,"
            "\"cat\":\"cat\",\"code\":\"code\",\"subject\":0}],"
            "\"flight_total\":1,\"flight_dropped\":0}");
}

TEST(TelemetryTest, WallPrefixedInstrumentsExcludedFromDeterministicView) {
  Telemetry telemetry;
  telemetry.registry().counter("steps").add(3);
  telemetry.registry().histogram("wall.step_duration_us", 0.0, 1000.0, 4).add(17.5);
  telemetry.registry().gauge("wall.last_step_us").set(17.5);
  const std::string det = telemetry.deterministic_json();
  EXPECT_EQ(det.find("wall."), std::string::npos);
  EXPECT_NE(det.find("\"steps\":3"), std::string::npos);
  // The full artifact keeps the wall-clock instruments.
  const std::string full = telemetry.to_json();
  EXPECT_NE(full.find("\"wall.step_duration_us\""), std::string::npos);
  EXPECT_NE(full.find("\"wall.last_step_us\""), std::string::npos);
}

TEST(TelemetryTest, FullJsonCarriesPhasesAndWallAnnex) {
  Telemetry telemetry;
  const PhaseId phase = telemetry.tracer().phase("test.phase");
  { Tracer::Span span{telemetry.tracer(), phase}; }
  telemetry.recorder().record(5, "c", "e");
  const std::string full = telemetry.to_json();
  EXPECT_NE(full.find("\"phases\":{\"test.phase\":{\"calls\":1"), std::string::npos);
  EXPECT_NE(full.find("\"shard_busy_ns\":["), std::string::npos);
  EXPECT_NE(full.find("\"wall_annex\":[{\"seq\":0,\"wall_ns\":"), std::string::npos);
  // The deterministic view excludes all of those.
  const std::string det = telemetry.deterministic_json();
  EXPECT_EQ(det.find("phases"), std::string::npos);
  EXPECT_EQ(det.find("wall"), std::string::npos);
}

TEST(TelemetryTest, WireEventBusCountsPerTopic) {
  Telemetry telemetry;
  core::EventBus bus;
  const auto subscription = wire_event_bus(bus, telemetry);
  bus.publish({.topic = "a", .payload = "", .origin = 1, .time = 0});
  bus.publish({.topic = "b", .payload = "", .origin = 2, .time = 1});
  bus.publish({.topic = "a", .payload = "", .origin = 3, .time = 2});
  EXPECT_EQ(telemetry.registry().counter("bus.events").value(), 3u);
  EXPECT_EQ(telemetry.registry().counter("bus.topic.a").value(), 2u);
  EXPECT_EQ(telemetry.registry().counter("bus.topic.b").value(), 1u);
}

TEST(TracerTest, PhasesAndSpans) {
  Tracer tracer{2};
  const PhaseId p = tracer.phase("phase.a");
  EXPECT_EQ(tracer.phase("phase.a"), p);  // get-or-create, stable id
  const PhaseId q = tracer.phase("phase.b");
  EXPECT_NE(p, q);
  { Tracer::Span span{tracer, p}; }
  { Tracer::Span span{tracer, p}; }
  EXPECT_EQ(tracer.stats(p).calls, 2u);
  EXPECT_EQ(tracer.stats(q).calls, 0u);
  EXPECT_GE(tracer.stats(p).total_ns, tracer.stats(p).max_ns);

  tracer.add_shard_busy(1, 123);
  tracer.add_shard_busy(1, 7);
  EXPECT_EQ(tracer.shard_busy_ns(0), 0u);
  EXPECT_EQ(tracer.shard_busy_ns(1), 130u);
  tracer.ensure_shards(4);
  EXPECT_EQ(tracer.shard_count(), 4u);
  EXPECT_EQ(tracer.shard_busy_ns(1), 130u);  // growth preserves lanes
}

}  // namespace
}  // namespace agrarsec::obs
