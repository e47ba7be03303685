#include "smr/serve/burn_rate.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "smr/common/error.hpp"
#include "smr/common/json.hpp"
#include "smr/metrics/trace.hpp"
#include "smr/obs/metrics_registry.hpp"
#include "smr/serve/session.hpp"

namespace smr::serve {
namespace {

BurnRateConfig fast_config() {
  BurnRateConfig config;
  config.window = 100.0;
  config.target = 0.9;  // budget 0.1: fraction >= 0.2 alerts at threshold 2
  config.threshold = 2.0;
  config.min_samples = 5;
  config.cooldown = 50.0;
  return config;
}

TEST(BurnRateTracker, NoAlertBelowMinSamples) {
  BurnRateTracker tracker(fast_config(), {"t0"});
  for (int i = 1; i <= 4; ++i) {
    EXPECT_FALSE(tracker.record(0, static_cast<double>(i), false).has_value());
  }
  // The fifth outcome reaches min_samples with a 100% miss fraction.
  const auto alert = tracker.record(0, 5.0, false);
  ASSERT_TRUE(alert.has_value());
  EXPECT_EQ(alert->tenant, 0);
  EXPECT_EQ(alert->tenant_name, "t0");
  EXPECT_DOUBLE_EQ(alert->miss_fraction, 1.0);
  EXPECT_DOUBLE_EQ(alert->burn_rate, 10.0);  // 1.0 / (1 - 0.9)
  EXPECT_EQ(alert->window_samples, 5u);
  EXPECT_EQ(tracker.alerts().size(), 1u);
}

TEST(BurnRateTracker, MetOutcomesKeepBurnBelowThreshold) {
  BurnRateTracker tracker(fast_config(), {"t0"});
  // 1 miss in 10 outcomes: fraction 0.1, burn 1.0 < threshold 2.0.
  for (int i = 1; i <= 9; ++i) tracker.record(0, static_cast<double>(i), true);
  EXPECT_FALSE(tracker.record(0, 10.0, false).has_value());
  EXPECT_DOUBLE_EQ(tracker.burn_rate(0), 1.0);
  EXPECT_TRUE(tracker.alerts().empty());
}

TEST(BurnRateTracker, CooldownBoundsAlertStream) {
  BurnRateTracker tracker(fast_config(), {"t0"});
  int alerts = 0;
  // A sustained 100% burn for 120 s of one miss per second: the first
  // alert fires at min_samples, then one more after each 50 s cooldown.
  for (int i = 1; i <= 120; ++i) {
    if (tracker.record(0, static_cast<double>(i), false)) ++alerts;
  }
  EXPECT_EQ(alerts, 3);  // t=5, t=55, t=105
  ASSERT_EQ(tracker.alerts().size(), 3u);
  EXPECT_DOUBLE_EQ(tracker.alerts()[0].time, 5.0);
  EXPECT_DOUBLE_EQ(tracker.alerts()[1].time, 55.0);
  EXPECT_DOUBLE_EQ(tracker.alerts()[2].time, 105.0);
}

TEST(BurnRateTracker, WindowEvictsOldOutcomes) {
  BurnRateTracker tracker(fast_config(), {"t0"});
  for (int i = 0; i < 5; ++i) tracker.record(0, static_cast<double>(i), false);
  EXPECT_DOUBLE_EQ(tracker.burn_rate(0), 10.0);
  // 200 s later every miss has aged out of the 100 s window.
  tracker.record(0, 200.0, true);
  EXPECT_DOUBLE_EQ(tracker.burn_rate(0), 0.0);
}

TEST(BurnRateTracker, TenantsAreIsolated) {
  BurnRateTracker tracker(fast_config(), {"t0", "t1"});
  for (int i = 1; i <= 10; ++i) {
    tracker.record(0, static_cast<double>(i), false);
    tracker.record(1, static_cast<double>(i), true);
  }
  EXPECT_GT(tracker.burn_rate(0), 2.0);
  EXPECT_DOUBLE_EQ(tracker.burn_rate(1), 0.0);
  for (const BurnAlert& alert : tracker.alerts()) {
    EXPECT_EQ(alert.tenant, 0);
  }
  EXPECT_FALSE(tracker.alerts().empty());
}

TEST(BurnRateTracker, WritesAlertsAsJsonl) {
  BurnRateTracker tracker(fast_config(), {"gold"});
  for (int i = 1; i <= 5; ++i) tracker.record(0, static_cast<double>(i), false);
  std::ostringstream out;
  tracker.write_alerts_jsonl(out);
  const std::string jsonl = out.str();
  EXPECT_NE(jsonl.find("\"type\":\"slo_alert\""), std::string::npos);
  EXPECT_NE(jsonl.find("\"tenant_name\":\"gold\""), std::string::npos);
  EXPECT_NE(jsonl.find("\"burn_rate\":10"), std::string::npos);
  EXPECT_NE(jsonl.find("\"threshold\":2"), std::string::npos);
}

TEST(BurnRateTracker, AlertsJsonlEscapesTenantNames) {
  const std::string name = "te\"n\t0\\";
  BurnRateTracker tracker(fast_config(), {name});
  for (int i = 1; i <= 5; ++i) tracker.record(0, static_cast<double>(i), false);
  std::ostringstream out;
  tracker.write_alerts_jsonl(out);
  std::string error;
  const auto lines = parse_jsonl(out.str(), &error);
  ASSERT_TRUE(lines.has_value()) << error << "\n" << out.str();
  ASSERT_EQ(lines->size(), 1u);
  EXPECT_EQ((*lines)[0].string_or("tenant_name", ""), name);
  EXPECT_DOUBLE_EQ((*lines)[0].number_or("burn_rate", 0.0), 10.0);
}

TEST(BurnRateConfig, ValidatesBounds) {
  BurnRateConfig config = fast_config();
  config.target = 1.0;
  EXPECT_THROW(config.validate(), SmrError);
  config = fast_config();
  config.window = 0.0;
  EXPECT_THROW(config.validate(), SmrError);
  config = fast_config();
  config.min_samples = 0;
  EXPECT_THROW(config.validate(), SmrError);
  config = fast_config();
  config.cooldown = -1.0;
  EXPECT_THROW(config.validate(), SmrError);
}

// --- ServeSession integration --------------------------------------------

/// Deadlines far tighter than service time: every measured job misses,
/// so the burn rate saturates and alerts must fire.
ServeConfig missing_config() {
  ServeConfig config;
  config.experiment =
      driver::ExperimentConfig::paper_default(driver::EngineKind::kHadoopV1);
  config.experiment.runtime.cluster = cluster::ClusterSpec::paper_testbed(4);
  config.experiment.scheduler = driver::SchedulerKind::kDeadline;
  config.horizon = 1800.0;
  config.warmup = 300.0;
  config.drain_limit = 3600.0;
  config.seed = 11;

  TenantConfig tenant;
  tenant.name = "t0";
  tenant.jobs_per_hour = 40.0;
  tenant.shape.candidates = {workload::Puma::kGrep};
  tenant.shape.min_input = 1 * kGiB;
  tenant.shape.max_input = 2 * kGiB;
  tenant.shape.reduce_tasks = 4;
  workload::SyntheticMixConfig::SloClass slo;
  slo.base_deadline_s = 30.0;  // impossible: service time is minutes
  slo.per_gib_s = 0.0;
  tenant.shape.slo_classes = {slo};
  config.tenants.push_back(tenant);

  config.burn.window = 600.0;
  config.burn.target = 0.9;
  config.burn.threshold = 2.0;
  config.burn.min_samples = 3;
  config.burn.cooldown = 300.0;
  return config;
}

TEST(ServeBurnRate, SessionFiresAlertsOnSustainedMisses) {
  obs::MetricsRegistry registry;
  metrics::TraceLog trace;
  ServeSession session(missing_config());
  session.set_trace(&trace);
  const ServeReport report = session.run(&registry);
  ASSERT_TRUE(report.completed) << report.failure_reason;
  EXPECT_GT(report.aggregate.arrived, 0);

  ASSERT_FALSE(session.burn_alerts().empty());
  EXPECT_EQ(registry.counter("serve.slo_alerts").value(),
            static_cast<std::int64_t>(session.burn_alerts().size()));
  // Alerts respect the cooldown: consecutive alerts of one tenant are
  // at least `cooldown` apart.
  const auto& alerts = session.burn_alerts();
  for (std::size_t i = 1; i < alerts.size(); ++i) {
    EXPECT_GE(alerts[i].time - alerts[i - 1].time, 300.0);
  }
  // The burn-rate series tracks the degradation per tenant label.
  EXPECT_GT(registry.series("serve.burn_rate", {{"tenant", "t0"}}).size(), 0u);
  // Every alert landed in the trace as an SLO_ALERT instant.
  std::size_t instants = 0;
  for (const auto& event : trace.events()) {
    if (event.kind == metrics::TraceEventKind::kSloAlert) ++instants;
  }
  EXPECT_EQ(instants, alerts.size());

  std::ostringstream out;
  session.write_burn_alerts_jsonl(out);
  EXPECT_NE(out.str().find("\"type\":\"slo_alert\""), std::string::npos);
}

TEST(ServeBurnRate, AlertsAreDeterministic) {
  ServeSession one(missing_config());
  ServeSession two(missing_config());
  one.run();
  two.run();
  ASSERT_EQ(one.burn_alerts().size(), two.burn_alerts().size());
  for (std::size_t i = 0; i < one.burn_alerts().size(); ++i) {
    EXPECT_DOUBLE_EQ(one.burn_alerts()[i].time, two.burn_alerts()[i].time);
    EXPECT_DOUBLE_EQ(one.burn_alerts()[i].burn_rate,
                     two.burn_alerts()[i].burn_rate);
  }
}

}  // namespace
}  // namespace smr::serve
