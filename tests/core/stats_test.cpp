#include "core/stats.h"

#include <gtest/gtest.h>

namespace agrarsec::core {
namespace {

TEST(SampleSet, Percentiles) {
  SampleSet s;
  for (int i = 1; i <= 100; ++i) s.add(static_cast<double>(i));
  EXPECT_DOUBLE_EQ(s.percentile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(s.percentile(1.0), 100.0);
  EXPECT_NEAR(s.median(), 50.5, 1e-9);
  EXPECT_NEAR(s.percentile(0.95), 95.05, 1e-9);
}

TEST(SampleSet, PercentileOnEmptyThrows) {
  const SampleSet s;
  EXPECT_THROW(s.percentile(0.5), std::logic_error);
}

TEST(SampleSet, AddAfterQueryResorts) {
  SampleSet s;
  s.add(5.0);
  EXPECT_DOUBLE_EQ(s.median(), 5.0);
  s.add(1.0);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 5.0);
}

}  // namespace
}  // namespace agrarsec::core
