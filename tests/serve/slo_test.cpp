#include "smr/serve/slo.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <optional>
#include <sstream>
#include <string>

#include "smr/common/json.hpp"

namespace smr::serve {
namespace {

TEST(SummarizeLatency, EmptyHasNaNPercentiles) {
  const LatencyStats stats = summarize_latency({});
  EXPECT_EQ(stats.count, 0u);
  EXPECT_TRUE(std::isnan(stats.mean));
  EXPECT_TRUE(std::isnan(stats.p50));
  EXPECT_TRUE(std::isnan(stats.p99));
  EXPECT_TRUE(std::isnan(stats.max));
}

TEST(SummarizeLatency, ComputesMomentsAndPercentiles) {
  const LatencyStats stats = summarize_latency({10.0, 20.0, 30.0, 40.0, 50.0});
  EXPECT_EQ(stats.count, 5u);
  EXPECT_DOUBLE_EQ(stats.mean, 30.0);
  EXPECT_DOUBLE_EQ(stats.p50, 30.0);
  EXPECT_DOUBLE_EQ(stats.max, 50.0);
  EXPECT_GE(stats.p99, stats.p95);
  EXPECT_GE(stats.p95, stats.p50);
}

SloTracker make_tracker() {
  return SloTracker(/*warmup_end=*/100.0, /*measure_end=*/1100.0, {"a", "b"});
}

TEST(SloTracker, ExcludesWarmupAndPostHorizonArrivals) {
  SloTracker tracker = make_tracker();
  tracker.record_arrival(0, 50.0);     // warmup: excluded
  tracker.record_arrival(0, 100.0);    // window start: included
  tracker.record_arrival(0, 1099.0);   // included
  tracker.record_arrival(0, 1100.0);   // past measure end: excluded
  tracker.record_outcome(0, 50.0, 80.0, 20.0, kTimeNever, false);  // excluded

  ServeReport report;
  tracker.fill(report);
  EXPECT_EQ(report.aggregate.arrived, 2);
  EXPECT_EQ(report.aggregate.completed, 0);
}

TEST(SloTracker, CountsOutcomesByArrivalTime) {
  SloTracker tracker = make_tracker();
  tracker.record_arrival(0, 200.0);
  // Arrived inside the window, finished long after the horizon: still a
  // measured completion (steady state measures by arrival cohort).
  tracker.record_outcome(0, 200.0, 2200.0, 500.0, kTimeNever, false);
  ServeReport report;
  tracker.fill(report);
  EXPECT_EQ(report.aggregate.completed, 1);
  ASSERT_EQ(report.aggregate.latency.count, 1u);
  EXPECT_DOUBLE_EQ(report.aggregate.latency.p50, 2000.0);
  // Slowdown = sojourn / service = 2000 / 500.
  EXPECT_DOUBLE_EQ(report.aggregate.mean_slowdown, 4.0);
}

TEST(SloTracker, SloAccountingAndGoodput) {
  SloTracker tracker = make_tracker();  // window = 1000 s
  tracker.record_arrival(0, 200.0);
  tracker.record_arrival(0, 300.0);
  tracker.record_arrival(1, 400.0);
  tracker.record_outcome(0, 200.0, 250.0, 50.0, /*deadline=*/260.0, false);  // met
  tracker.record_outcome(0, 300.0, 500.0, 50.0, /*deadline=*/400.0, false);  // missed
  tracker.record_outcome(1, 400.0, 450.0, 50.0, kTimeNever, false);  // no SLO

  ServeReport report;
  tracker.fill(report);
  EXPECT_EQ(report.aggregate.completed, 3);
  EXPECT_EQ(report.aggregate.with_deadline, 2);
  // Deadline-free completions count as met (goodput for SLO-less mixes).
  EXPECT_EQ(report.aggregate.slo_met, 2);
  // 2 SLO-met jobs in a 1000 s window = 7.2 jobs/hour.
  EXPECT_NEAR(report.aggregate.goodput_per_hour, 7.2, 1e-9);

  ASSERT_EQ(report.tenants.size(), 2u);
  EXPECT_EQ(report.tenants[0].name, "a");
  EXPECT_EQ(report.tenants[0].slo_met, 1);
  EXPECT_EQ(report.tenants[1].slo_met, 1);
}

TEST(SloTracker, FailedJobsCountSeparately) {
  SloTracker tracker = make_tracker();
  tracker.record_arrival(0, 200.0);
  tracker.record_outcome(0, 200.0, 400.0, 100.0, kTimeNever, /*failed=*/true);
  ServeReport report;
  tracker.fill(report);
  EXPECT_EQ(report.aggregate.failed, 1);
  EXPECT_EQ(report.aggregate.completed, 0);
  EXPECT_EQ(report.aggregate.latency.count, 0u);
}

TEST(SloTracker, AggregateSumsTenants) {
  SloTracker tracker = make_tracker();
  tracker.record_arrival(0, 200.0);
  tracker.record_arrival(1, 300.0);
  tracker.record_shed(1, 350.0);
  tracker.record_deferred(0, 200.0);
  ServeReport report;
  tracker.fill(report);
  EXPECT_EQ(report.aggregate.arrived,
            report.tenants[0].arrived + report.tenants[1].arrived);
  EXPECT_EQ(report.aggregate.shed, 1);
  EXPECT_EQ(report.aggregate.deferred, 1);
}

TEST(ServeReport, JsonWritesNullForMissingPercentiles) {
  SloTracker tracker = make_tracker();
  ServeReport report;
  tracker.fill(report);
  report.engine = "SMapReduce";
  report.scheduler = "deadline";
  report.admission = "shed";

  std::stringstream out;
  report.write_json(out);
  const std::string json = out.str();
  EXPECT_NE(json.find("\"engine\":\"SMapReduce\""), std::string::npos);
  EXPECT_NE(json.find("\"p99_s\":null"), std::string::npos);
  // No bare non-JSON number tokens ("tenants"/"unfinished" contain the
  // letters, so anchor on the value position).
  EXPECT_EQ(json.find(":nan"), std::string::npos);
  EXPECT_EQ(json.find(":-nan"), std::string::npos);
  EXPECT_EQ(json.find(":inf"), std::string::npos);
  EXPECT_EQ(json.find(":-inf"), std::string::npos);
}

TEST(ServeReport, JsonCarriesCountsAndTenants) {
  SloTracker tracker = make_tracker();
  tracker.record_arrival(0, 200.0);
  tracker.record_outcome(0, 200.0, 260.0, 30.0, 300.0, false);
  ServeReport report;
  tracker.fill(report);

  std::stringstream out;
  report.write_json(out);
  const std::string json = out.str();
  EXPECT_NE(json.find("\"completed\":1"), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"a\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"b\""), std::string::npos);
  EXPECT_NE(json.find("\"p50_s\":60"), std::string::npos);
}

TEST(ServeReport, JsonEscapesControlCharactersInTenantNames) {
  // Tenant names come from --arrivals-csv verbatim, control bytes included.
  SloTracker tracker(/*warmup_end=*/0.0, /*measure_end=*/100.0,
                     {"te\tam", "a\x01" "b"});
  ServeReport report;
  tracker.fill(report);

  std::stringstream out;
  report.write_json(out);
  const std::string text = out.str();
  // parse_json rejects raw control bytes inside strings, as strict JSON
  // does, so parsing checks the escaping too.
  std::string error;
  const std::optional<JsonValue> json = parse_json(text, &error);
  ASSERT_TRUE(json.has_value()) << error;
  const JsonValue* tenants = json->find("tenants");
  ASSERT_NE(tenants, nullptr);
  ASSERT_EQ(tenants->as_array().size(), 2u);
  EXPECT_EQ(tenants->as_array()[0].find("name")->as_string(), "te\tam");
  EXPECT_EQ(tenants->as_array()[1].find("name")->as_string(), "a\x01" "b");
}

}  // namespace
}  // namespace smr::serve
