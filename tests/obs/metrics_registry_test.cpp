#include "smr/obs/metrics_registry.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <string>
#include <vector>

#include "smr/common/error.hpp"
#include "smr/common/stats.hpp"
#include "smr/common/thread_pool.hpp"

namespace smr::obs {
namespace {

TEST(Counter, StartsAtZeroAndAccumulates) {
  MetricsRegistry registry;
  Counter& c = registry.counter("events");
  EXPECT_EQ(c.value(), 0);
  c.inc();
  c.inc(41);
  EXPECT_EQ(c.value(), 42);
  // Same name returns the same instrument.
  EXPECT_EQ(&registry.counter("events"), &c);
  EXPECT_EQ(registry.counter("events").value(), 42);
}

TEST(Gauge, HoldsLastValue) {
  MetricsRegistry registry;
  Gauge& g = registry.gauge("depth");
  EXPECT_DOUBLE_EQ(g.value(), 0.0);
  g.set(3.5);
  g.set(-1.25);
  EXPECT_DOUBLE_EQ(registry.gauge("depth").value(), -1.25);
}

TEST(Histogram, BucketsByUpperBound) {
  MetricsRegistry registry;
  Histogram& h = registry.histogram("lat", {1.0, 5.0, 10.0});
  h.observe(0.5);   // <= 1
  h.observe(1.0);   // <= 1 (bounds are inclusive upper bounds)
  h.observe(3.0);   // <= 5
  h.observe(100.0); // overflow
  EXPECT_EQ(h.total_count(), 4);
  EXPECT_EQ(h.bucket_count(0), 2);
  EXPECT_EQ(h.bucket_count(1), 1);
  EXPECT_EQ(h.bucket_count(2), 0);
  EXPECT_EQ(h.bucket_count(3), 1);  // overflow bucket
  EXPECT_DOUBLE_EQ(h.sum(), 104.5);
  // Bounds are fixed on first creation; a second lookup ignores its bounds.
  EXPECT_EQ(&registry.histogram("lat", {99.0}), &h);
  EXPECT_EQ(h.bounds().size(), 3u);
}

TEST(Histogram, QuantileInterpolatesWithinBucket) {
  MetricsRegistry registry;
  Histogram& h = registry.histogram("lat", {10.0, 20.0, 40.0});
  for (int i = 0; i < 10; ++i) h.observe(5.0);   // bucket (0, 10]
  for (int i = 0; i < 10; ++i) h.observe(15.0);  // bucket (10, 20]
  // Rank 10 of 20 lands exactly at the top of the first bucket.
  EXPECT_DOUBLE_EQ(h.p50(), 10.0);
  // Rank 5 sits halfway into the first bucket, interpolated from 0.
  EXPECT_DOUBLE_EQ(h.quantile(0.25), 5.0);
  // Tail estimates clamp to the observed max (15): no bucket-edge value
  // above anything actually sampled is ever reported.
  EXPECT_DOUBLE_EQ(h.p95(), 15.0);
  EXPECT_DOUBLE_EQ(h.p99(), 15.0);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 15.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.0), 5.0);
  EXPECT_DOUBLE_EQ(h.min(), 5.0);
  EXPECT_DOUBLE_EQ(h.max(), 15.0);
}

TEST(Histogram, OverflowBucketInterpolatesTowardObservedMax) {
  // Regression: tail quantiles used to flatline at the largest finite
  // bound, so a single overflow sample reported p99 = 5 for a 100s
  // latency and smr_inspect diffs flagged phantom regressions.
  MetricsRegistry registry;
  Histogram& h = registry.histogram("lat", {1.0, 5.0});
  h.observe(100.0);  // overflow bucket only
  EXPECT_DOUBLE_EQ(h.p50(), 100.0);  // single sample: every q is it
  EXPECT_DOUBLE_EQ(h.p99(), 100.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.0), 100.0);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 100.0);

  // With company in the finite buckets, overflow ranks interpolate
  // between the largest bound and the observed max instead of sticking
  // at the bound.
  Histogram& mixed = registry.histogram("lat2", {1.0, 5.0});
  mixed.observe(0.5);
  mixed.observe(50.0);
  mixed.observe(100.0);
  EXPECT_DOUBLE_EQ(mixed.quantile(1.0), 100.0);
  const double p80 = mixed.quantile(0.8);  // rank 2.4, 1.4 into overflow
  EXPECT_GT(p80, 5.0);
  EXPECT_LE(p80, 100.0);
}

TEST(Histogram, QuantileEdgesAgreeWithStatsPercentile) {
  // Differential audit against stats::percentile on identical samples:
  // the two must agree exactly wherever a diff tool compares them —
  // q=0, q=1, and single-sample inputs.
  const std::vector<std::vector<double>> sample_sets = {
      {42.0},
      {0.5, 3.0, 7.5, 12.0, 99.0},
      {100.0, 200.0, 300.0},  // all overflow
      {0.1, 0.2, 0.3},        // all first bucket
  };
  for (const auto& samples : sample_sets) {
    MetricsRegistry registry;
    Histogram& h = registry.histogram("lat", {1.0, 5.0, 10.0});
    std::vector<double> sorted = samples;
    for (double s : samples) h.observe(s);
    EXPECT_DOUBLE_EQ(h.quantile(0.0), percentile(sorted, 0.0));
    EXPECT_DOUBLE_EQ(h.quantile(1.0), percentile(sorted, 100.0));
    if (samples.size() == 1) {
      EXPECT_DOUBLE_EQ(h.p50(), percentile(sorted, 50.0));
      EXPECT_DOUBLE_EQ(h.p99(), percentile(sorted, 99.0));
    }
    // Interior estimates stay inside the observed range, like any
    // order-statistic does.
    for (double q : {0.25, 0.5, 0.9, 0.99}) {
      const double estimate = h.quantile(q);
      EXPECT_GE(estimate, h.min());
      EXPECT_LE(estimate, h.max());
    }
  }
}

TEST(Histogram, QuantileEmptyIsNaNAndRangeChecked) {
  MetricsRegistry registry;
  Histogram& h = registry.histogram("lat", {1.0});
  EXPECT_TRUE(std::isnan(h.p50()));
  h.observe(0.5);
  EXPECT_THROW(h.quantile(-0.1), SmrError);
  EXPECT_THROW(h.quantile(1.1), SmrError);
}

TEST(Series, AppendsInOrder) {
  MetricsRegistry registry;
  Series& s = registry.series("slots");
  s.append(0.0, 3.0);
  s.append(2.0, 4.0);
  ASSERT_EQ(s.size(), 2u);
  const auto samples = s.samples();
  EXPECT_DOUBLE_EQ(samples[0].time, 0.0);
  EXPECT_DOUBLE_EQ(samples[1].value, 4.0);
}

TEST(LabeledName, CanonicalKeyIsSorted) {
  EXPECT_EQ(labeled_name("slots", {}), "slots");
  EXPECT_EQ(labeled_name("slots", {{"node", "3"}, {"kind", "map"}}),
            "slots{kind=\"map\",node=\"3\"}");
}

TEST(LabeledSeries, DistinctLabelsDistinctSeries) {
  MetricsRegistry registry;
  Series& a = registry.series("slots", {{"kind", "map"}});
  Series& b = registry.series("slots", {{"kind", "reduce"}});
  EXPECT_NE(&a, &b);
  a.append(1.0, 1.0);
  EXPECT_EQ(b.size(), 0u);
  const auto names = registry.names();
  EXPECT_EQ(names.size(), 2u);
  EXPECT_EQ(names[0], "slots{kind=\"map\"}");
}

TEST(MetricsRegistry, NamesAreSorted) {
  MetricsRegistry registry;
  registry.counter("zeta");
  registry.gauge("alpha");
  registry.series("mid");
  const auto names = registry.names();
  ASSERT_EQ(names.size(), 3u);
  EXPECT_EQ(names[0], "alpha");
  EXPECT_EQ(names[1], "mid");
  EXPECT_EQ(names[2], "zeta");
}

TEST(MetricsRegistry, ConcurrentIncrementsFromThreadPool) {
  MetricsRegistry registry;
  Counter& c = registry.counter("hits");
  Histogram& h = registry.histogram("obs", {10.0, 100.0});
  ThreadPool pool(4);
  constexpr std::size_t kTasks = 64;
  constexpr int kPerTask = 1000;
  for (std::size_t t = 0; t < kTasks; ++t) {
    pool.submit([&registry, &c, &h] {
      for (int i = 0; i < kPerTask; ++i) {
        c.inc();
        h.observe(static_cast<double>(i % 200));
        // Lookups race with other creators too.
        registry.counter("hits");
      }
    });
  }
  pool.wait_idle();
  EXPECT_EQ(c.value(), static_cast<std::int64_t>(kTasks) * kPerTask);
  EXPECT_EQ(h.total_count(), static_cast<std::int64_t>(kTasks) * kPerTask);
  EXPECT_EQ(h.bucket_count(0) + h.bucket_count(1) + h.bucket_count(2),
            h.total_count());
}

TEST(MetricsRegistry, WriteJsonlOneObjectPerLine) {
  MetricsRegistry registry;
  registry.counter("c").inc(7);
  registry.gauge("g").set(2.5);
  registry.histogram("h", {1.0}).observe(0.5);
  registry.series("s").append(1.0, 9.0);
  registry.series("s").append(2.0, 10.0);
  std::ostringstream out;
  registry.write_jsonl(out);
  std::istringstream in(out.str());
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  ASSERT_EQ(lines.size(), 5u);  // c, g, h, and two series samples
  EXPECT_EQ(lines[0], "{\"type\":\"counter\",\"name\":\"c\",\"value\":7}");
  EXPECT_EQ(lines[1], "{\"type\":\"gauge\",\"name\":\"g\",\"value\":2.5}");
  EXPECT_NE(lines[2].find("\"type\":\"histogram\""), std::string::npos);
  EXPECT_NE(lines[2].find("\"buckets\":[1,0]"), std::string::npos);
  // Non-empty histograms export interpolated quantiles.
  EXPECT_NE(lines[2].find("\"p50\":0.5"), std::string::npos);
  EXPECT_NE(lines[2].find("\"p99\":"), std::string::npos);
  EXPECT_EQ(lines[3],
            "{\"type\":\"series\",\"name\":\"s\",\"t\":1,\"v\":9}");
  EXPECT_EQ(lines[4],
            "{\"type\":\"series\",\"name\":\"s\",\"t\":2,\"v\":10}");
  // Every line parses as a standalone JSON object (brace balance check).
  for (const auto& line : lines) {
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.back(), '}');
  }
}

}  // namespace
}  // namespace smr::obs
