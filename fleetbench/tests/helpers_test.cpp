// Tests of the fleet benchmark's own measurement helpers: percentiles and
// the 10-samples-beyond rule, the export digest, and the host-speed probe.
#include <gtest/gtest.h>

#include "harness/helpers.h"

namespace fleetbench {
namespace {

// --- percentiles -------------------------------------------------------------

std::vector<double> one_to(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  return v;
}

TEST(Percentile, NearestRank) {
  EXPECT_EQ(percentile(one_to(100), 0.5, 0), 50.0);
  EXPECT_EQ(percentile(one_to(100), 0.9, 0), 90.0);
  EXPECT_EQ(percentile(one_to(1000), 0.99), 990.0);
  EXPECT_EQ(median({3.0, 1.0, 2.0}), 2.0);
}

TEST(Percentile, RefusesTailsWithFewerThanTenSamplesBeyond) {
  EXPECT_EQ(samples_beyond(1000, 0.99), 10u);
  EXPECT_EQ(samples_beyond(999, 0.99), 9u);
  EXPECT_EQ(samples_beyond(100, 0.9), 10u);
  EXPECT_TRUE(percentile(one_to(1000), 0.99).has_value());
  EXPECT_FALSE(percentile(one_to(999), 0.99).has_value());
  EXPECT_TRUE(percentile(one_to(100), 0.9).has_value());
  EXPECT_FALSE(percentile(one_to(99), 0.9).has_value());
  EXPECT_FALSE(percentile({}, 0.5, 0).has_value());
}

// --- digest ------------------------------------------------------------------

TEST(Digest, Fnv1aReferenceValues) {
  EXPECT_EQ(fnv1a(""), 0xcbf29ce484222325ULL);
  EXPECT_EQ(fnv1a("a"), 0xaf63dc4c8601ec8cULL);
  EXPECT_EQ(fnv1a("foobar"), 0x85944171f73967e8ULL);
  EXPECT_EQ(hex64(0x85944171f73967e8ULL), "85944171f73967e8");
}

TEST(Digest, ChainsInOrder) {
  EXPECT_EQ(fnv1a("bar", fnv1a("foo")), fnv1a("foobar"));
  EXPECT_NE(fnv1a("foo", fnv1a("bar")), fnv1a("foobar"));
}

// --- host speed -------------------------------------------------------------

TEST(HostSpeed, IsOneBeforeAnySample) {
  EXPECT_DOUBLE_EQ(HostSpeed(4).slowdown(), 1.0);
}

TEST(HostSpeed, IsTheMeanSampleOverTheReference) {
  HostSpeed host(4);
  host.add(kProbeReferenceNs);
  host.add(2 * kProbeReferenceNs);
  EXPECT_DOUBLE_EQ(host.slowdown(), 1.5);
}

TEST(HostSpeed, SampleRunsTheProbe) {
  EXPECT_GT(sort_probe_ns(), 0u);
  HostSpeed host(2);
  host.sample();
  EXPECT_GT(host.slowdown(), 0.0);
  EXPECT_NE(host.slowdown(), 1.0);
}

}  // namespace
}  // namespace fleetbench
