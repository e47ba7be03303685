#include "smr/common/stats.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "smr/common/error.hpp"
#include "smr/common/rng.hpp"

namespace smr {
namespace {

TEST(WindowedRate, NeedsTwoSamples) {
  WindowedRate r(10.0);
  EXPECT_DOUBLE_EQ(r.rate(), 0.0);
  r.observe(0.0, 0.0);
  EXPECT_DOUBLE_EQ(r.rate(), 0.0);
}

TEST(WindowedRate, ConstantRateMeasuredExactly) {
  WindowedRate r(10.0);
  for (int i = 0; i <= 20; ++i) r.observe(i, 100.0 * i);
  EXPECT_NEAR(r.rate(), 100.0, 1e-9);
}

TEST(WindowedRate, ForgetsOldRegime) {
  WindowedRate r(5.0);
  // 0..10 s at 100 B/s, then 10..30 s at 0 B/s.
  double cum = 0.0;
  for (int t = 0; t <= 10; ++t) {
    cum = 100.0 * t;
    r.observe(t, cum);
  }
  for (int t = 11; t <= 30; ++t) r.observe(t, cum);
  EXPECT_DOUBLE_EQ(r.rate(), 0.0);
}

TEST(WindowedRate, WindowAveragesOverBursts) {
  WindowedRate r(10.0);
  // Bursty: +1000 every 5 s, nothing in between; window mean is 200/s.
  double cum = 0.0;
  for (int t = 0; t <= 40; ++t) {
    if (t % 5 == 0 && t > 0) cum += 1000.0;
    r.observe(t, cum);
  }
  EXPECT_NEAR(r.rate(), 200.0, 50.0);
}

TEST(WindowedRate, RejectsTimeGoingBackwards) {
  WindowedRate r(10.0);
  r.observe(5.0, 1.0);
  EXPECT_THROW(r.observe(4.0, 2.0), SmrError);
}

TEST(WindowedRate, ResetForgetsHistory) {
  WindowedRate r(10.0);
  r.observe(0.0, 0.0);
  r.observe(1.0, 100.0);
  r.reset();
  EXPECT_DOUBLE_EQ(r.rate(), 0.0);
  // After reset, earlier timestamps are acceptable again.
  EXPECT_NO_THROW(r.observe(0.0, 0.0));
}

TEST(TrailingMean, KeepsOnlyLastN) {
  TrailingMean m(3);
  m.add(100.0);
  m.add(1.0);
  m.add(2.0);
  m.add(3.0);  // evicts 100
  EXPECT_DOUBLE_EQ(m.mean(), 2.0);
  EXPECT_TRUE(m.full());
}

TEST(TrailingMean, EmptyMeanIsZero) {
  TrailingMean m(4);
  EXPECT_DOUBLE_EQ(m.mean(), 0.0);
  EXPECT_FALSE(m.full());
}

TEST(Percentile, MedianAndExtremes) {
  std::vector<double> v{5.0, 1.0, 3.0, 2.0, 4.0};
  EXPECT_DOUBLE_EQ(percentile(v, 50.0), 3.0);
  EXPECT_DOUBLE_EQ(percentile(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(v, 100.0), 5.0);
}

TEST(Percentile, InterpolatesBetweenRanks) {
  std::vector<double> v{0.0, 10.0};
  EXPECT_DOUBLE_EQ(percentile(v, 25.0), 2.5);
}

TEST(Percentile, EmptyIsNaNSingletonIsValue) {
  // An empty sample set has no percentiles: quiet NaN, not a fake 0 that
  // a report would happily format as "p99 = 0s".
  EXPECT_TRUE(std::isnan(percentile({}, 50.0)));
  EXPECT_TRUE(std::isnan(percentile({}, 0.0)));
  EXPECT_TRUE(std::isnan(percentile({}, 100.0)));
  EXPECT_DOUBLE_EQ(percentile({7.0}, 99.0), 7.0);
}

// Property sweep: the windowed rate of a linear counter equals its slope,
// for a range of window lengths and slopes.
class WindowedRateSlope : public ::testing::TestWithParam<std::tuple<double, double>> {};

TEST_P(WindowedRateSlope, MeasuresSlope) {
  const auto [window, slope] = GetParam();
  WindowedRate r(window);
  for (int i = 0; i <= 100; ++i) {
    const double t = 0.5 * i;
    r.observe(t, slope * t);
  }
  EXPECT_NEAR(r.rate(), slope, 1e-9 * (1.0 + slope));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, WindowedRateSlope,
    ::testing::Combine(::testing::Values(1.0, 5.0, 20.0),
                       ::testing::Values(0.0, 1.0, 1e6, 1e9)));

}  // namespace
}  // namespace smr
