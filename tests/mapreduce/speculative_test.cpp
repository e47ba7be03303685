// Speculative execution (Hadoop's backup tasks for stragglers).
#include <gtest/gtest.h>

#include <memory>
#include <span>
#include <string>

#include "smr/mapreduce/runtime.hpp"
#include "smr/metrics/trace.hpp"
#include "smr/workload/puma.hpp"

namespace smr::mapreduce {
namespace {

RuntimeConfig spec_config(bool speculation, int nodes = 4) {
  RuntimeConfig config;
  config.cluster = cluster::ClusterSpec::paper_testbed(nodes);
  config.speculative_execution = speculation;
  config.speculative_min_age = 20.0;
  config.seed = 41;
  return config;
}

/// A straggler-heavy job: large per-task cost variance.
JobSpec straggly_job() {
  auto spec = workload::make_puma_job(workload::Puma::kGrep, 3 * kGiB);
  spec.reduce_tasks = 6;
  spec.duration_cv = 0.6;
  return spec;
}

TEST(Speculation, LaunchesBackupsAndCompletes) {
  Runtime runtime(spec_config(true), std::make_unique<StaticSlotPolicy>());
  runtime.submit(straggly_job(), 0.0);
  const auto result = runtime.run();
  ASSERT_TRUE(result.completed);
  EXPECT_GT(runtime.speculative_launches(), 0);
  const Job& job = runtime.jobs()[0];
  for (const auto& m : job.maps) EXPECT_EQ(m.phase, MapPhase::kDone);
}

TEST(Speculation, DisabledMeansNoBackups) {
  Runtime runtime(spec_config(false), std::make_unique<StaticSlotPolicy>());
  runtime.submit(straggly_job(), 0.0);
  runtime.run();
  EXPECT_EQ(runtime.speculative_launches(), 0);
  EXPECT_EQ(runtime.speculative_wins(), 0);
}

TEST(Speculation, ShortensStragglerTailOnAverage) {
  // Over several seeds, the straggler-dominated map tail shrinks.
  double with_total = 0.0, without_total = 0.0;
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    auto config_with = spec_config(true);
    config_with.seed = seed;
    Runtime with_rt(config_with, std::make_unique<StaticSlotPolicy>());
    with_rt.submit(straggly_job(), 0.0);
    with_total += with_rt.run().jobs[0].map_time();

    auto config_without = spec_config(false);
    config_without.seed = seed;
    Runtime without_rt(config_without, std::make_unique<StaticSlotPolicy>());
    without_rt.submit(straggly_job(), 0.0);
    without_total += without_rt.run().jobs[0].map_time();
  }
  EXPECT_LT(with_total, without_total);
}

TEST(Speculation, ConservationHoldsWithRaces) {
  Runtime runtime(spec_config(true), std::make_unique<StaticSlotPolicy>());
  const JobSpec spec = straggly_job();
  runtime.submit(spec, 0.0);
  const auto result = runtime.run();
  ASSERT_TRUE(result.completed);
  ASSERT_GT(runtime.speculative_launches(), 0);
  const Job& job = runtime.jobs()[0];
  // Losing attempts were rolled back: processed input equals input exactly.
  EXPECT_NEAR(job.map_input_processed, static_cast<double>(spec.input_size),
              1e-6 * static_cast<double>(spec.input_size) + 1.0);
  // And every reducer fetched exactly its partition.
  for (const auto& r : job.reduces) {
    EXPECT_NEAR(r.fetched, static_cast<double>(r.partition_size), 1.0);
  }
}

TEST(Speculation, WinsAndLossesBalanceLaunches) {
  Runtime runtime(spec_config(true), std::make_unique<StaticSlotPolicy>());
  metrics::TraceLog trace;
  runtime.set_trace(&trace);
  runtime.submit(straggly_job(), 0.0);
  runtime.run();
  // Every speculative launch ends in exactly one kill: either the shadow
  // (lost) or the primary (detail "lost-race").
  int speculative_kills = 0, lost_races = 0;
  for (const auto& e : trace.of_kind(metrics::TraceEventKind::kTaskKilled)) {
    if (e.detail == "speculative") ++speculative_kills;
    if (e.detail == "lost-race") ++lost_races;
  }
  EXPECT_EQ(lost_races, runtime.speculative_wins());
  EXPECT_EQ(speculative_kills + lost_races, runtime.speculative_launches());
}

TEST(Speculation, NoBackupsWhilePendingMapsExist) {
  // Hadoop only speculates once every map is assigned; with a huge map
  // backlog and the default slots, speculation never fires early.
  auto config = spec_config(true);
  Runtime runtime(config, std::make_unique<StaticSlotPolicy>());
  auto spec = straggly_job();
  runtime.submit(spec, 0.0);
  metrics::TraceLog trace;
  runtime.set_trace(&trace);
  bool checked = false;
  runtime.engine().schedule_at(15.0, [&] {
    // Early in the run, the job still has pending maps: no shadows yet.
    EXPECT_EQ(runtime.speculative_launches(), 0);
    checked = true;
  });
  runtime.run();
  EXPECT_TRUE(checked);
}

TEST(Speculation, SurvivesNodeFailure) {
  auto config = spec_config(true);
  config.failures.push_back({1, 50.0});
  Runtime runtime(config, std::make_unique<StaticSlotPolicy>());
  runtime.submit(straggly_job(), 0.0);
  const auto result = runtime.run();
  EXPECT_TRUE(result.completed);
}

/// Flips every tracker's map target between 4 and 1 each policy period, so
/// eager shrinking really kills running maps (shadows first).
class OscillatingPolicy final : public AllocationPolicy {
 public:
  std::string name() const override { return "oscillating"; }
  void on_period(std::span<TaskTracker> trackers, const ClusterStats& stats) override {
    if (!stats.has_active_job) return;
    ++periods_;
    const int target = (periods_ % 2 == 0) ? 4 : 1;
    for (auto& tracker : trackers) tracker.set_map_target(target);
  }

 private:
  int periods_ = 0;
};

TEST(Speculation, WorksUnderEagerShrink) {
  auto config = spec_config(true);
  config.eager_slot_shrink = true;
  config.seed = 1;
  Runtime runtime(config, std::make_unique<OscillatingPolicy>());
  runtime.submit(straggly_job(), 0.0);
  const auto result = runtime.run();
  ASSERT_TRUE(result.completed);
  EXPECT_GT(runtime.killed_map_tasks(), 0);
  // Pinned to the values the run produced before the map and reduce attempt
  // lifecycles shared one code path.
  EXPECT_EQ(runtime.killed_map_tasks(), 119);
  EXPECT_EQ(runtime.speculative_launches(), 16);
  EXPECT_EQ(runtime.speculative_wins(), 2);
  EXPECT_DOUBLE_EQ(result.jobs[0].finish_time, 200.5);
}

// Determinism must hold with speculation enabled (races resolve on the
// deterministic tick).
TEST(Speculation, Deterministic) {
  auto run_once = [] {
    Runtime runtime(spec_config(true), std::make_unique<StaticSlotPolicy>());
    runtime.submit(straggly_job(), 0.0);
    return runtime.run().jobs[0].finish_time;
  };
  EXPECT_DOUBLE_EQ(run_once(), run_once());
}

}  // namespace
}  // namespace smr::mapreduce
