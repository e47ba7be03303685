// Driver-level integration tests: the experiment harness wiring that every
// figure in smr_figures relies on.
#include <gtest/gtest.h>

#include "smr/core/slot_policy.hpp"
#include "smr/driver/experiment.hpp"
#include "smr/workload/puma.hpp"
#include "smr/yarn/capacity_policy.hpp"

namespace smr::driver {
namespace {

ExperimentConfig small_experiment(EngineKind engine) {
  ExperimentConfig config = ExperimentConfig::paper_default(engine);
  config.runtime.cluster = cluster::ClusterSpec::paper_testbed(4);
  config.trials = 1;
  return config;
}

mapreduce::JobSpec small_spec(workload::Puma bench = workload::Puma::kGrep) {
  auto spec = workload::make_puma_job(bench, 4 * kGiB);
  spec.reduce_tasks = 8;
  return spec;
}

TEST(Driver, EngineNamesAndList) {
  EXPECT_STREQ(engine_name(EngineKind::kHadoopV1), "HadoopV1");
  EXPECT_STREQ(engine_name(EngineKind::kYarn), "YARN");
  EXPECT_STREQ(engine_name(EngineKind::kSMapReduce), "SMapReduce");
  EXPECT_EQ(all_engines().size(), 3u);
}

TEST(Driver, PaperDefaultMatchesEvaluationSetup) {
  const auto config = ExperimentConfig::paper_default(EngineKind::kHadoopV1);
  EXPECT_EQ(config.runtime.cluster.worker_count(), 16);
  EXPECT_EQ(config.runtime.initial_map_slots, 3);
  EXPECT_EQ(config.runtime.initial_reduce_slots, 2);
  EXPECT_EQ(config.trials, 2);  // the paper averages two trials
}

TEST(Driver, MakePolicyBuildsMatchingPolicy) {
  EXPECT_EQ(make_policy(small_experiment(EngineKind::kHadoopV1))->name(), "HadoopV1");
  EXPECT_EQ(make_policy(small_experiment(EngineKind::kYarn))->name(), "YARN");
  EXPECT_EQ(make_policy(small_experiment(EngineKind::kSMapReduce))->name(), "SMapReduce");
}

TEST(Driver, YarnConfigDerivedFromSlotsWhenUnset) {
  auto config = small_experiment(EngineKind::kYarn);
  config.runtime.initial_map_slots = 4;
  config.runtime.initial_reduce_slots = 2;
  auto policy = make_policy(config);
  const auto* yarn_policy = dynamic_cast<yarn::CapacityPolicy*>(policy.get());
  ASSERT_NE(yarn_policy, nullptr);
  EXPECT_EQ(yarn_policy->config().containers_per_node(), 6);
}

TEST(Driver, ExplicitYarnConfigWins) {
  auto config = small_experiment(EngineKind::kYarn);
  yarn::YarnConfig custom;
  custom.node_capacity = {16 * kGiB, 16.0};
  config.yarn = custom;
  auto policy = make_policy(config);
  const auto* yarn_policy = dynamic_cast<yarn::CapacityPolicy*>(policy.get());
  ASSERT_NE(yarn_policy, nullptr);
  EXPECT_EQ(yarn_policy->config().containers_per_node(), 8);
}

TEST(Driver, RunSingleJobCompletesOnAllEngines) {
  for (EngineKind engine : all_engines()) {
    const auto result = run_single_job(small_experiment(engine), small_spec());
    EXPECT_TRUE(result.completed) << engine_name(engine);
    EXPECT_EQ(result.jobs.size(), 1u);
    EXPECT_GT(result.jobs[0].total_time(), 0.0);
  }
}

TEST(Driver, TrialsAreAveraged) {
  auto config = small_experiment(EngineKind::kHadoopV1);
  config.trials = 3;
  const auto spec = small_spec();
  const auto averaged = run_experiment(config, {{spec, 0.0}});

  // Reconstruct by hand from the three seeds.
  double sum = 0.0;
  for (int t = 0; t < 3; ++t) {
    sum += run_trial(config, {{spec, 0.0}}, config.runtime.seed + static_cast<std::uint64_t>(t))
               .jobs[0]
               .finish_time;
  }
  EXPECT_NEAR(averaged.jobs[0].finish_time, sum / 3.0, 1e-9);
}

TEST(Driver, TrialsAreDeterministicPerSeed) {
  const auto config = small_experiment(EngineKind::kSMapReduce);
  const auto spec = small_spec();
  const auto a = run_trial(config, {{spec, 0.0}}, 99);
  const auto b = run_trial(config, {{spec, 0.0}}, 99);
  EXPECT_DOUBLE_EQ(a.jobs[0].finish_time, b.jobs[0].finish_time);
  EXPECT_DOUBLE_EQ(a.jobs[0].maps_done_time, b.jobs[0].maps_done_time);
}

TEST(Driver, MultiJobWorkloadRunsFifo) {
  const auto config = small_experiment(EngineKind::kHadoopV1);
  std::vector<JobSubmission> jobs;
  for (int i = 0; i < 3; ++i) jobs.push_back({small_spec(), 5.0 * i});
  const auto result = run_experiment(config, jobs);
  ASSERT_TRUE(result.completed);
  ASSERT_EQ(result.jobs.size(), 3u);
  EXPECT_GT(result.mean_execution_time(), 0.0);
  EXPECT_GE(result.last_finish_time(), result.mean_execution_time());
}

TEST(Driver, HeterogeneousExtensionRuns) {
  ExperimentConfig config = small_experiment(EngineKind::kSMapReduce);
  config.runtime.cluster = cluster::ClusterSpec::heterogeneous(2, 2, 0.5);
  config.slot_manager.per_node_targets = true;
  const auto result = run_single_job(config, small_spec());
  EXPECT_TRUE(result.completed);
}

TEST(Driver, AblationFlagsReachThePolicy) {
  auto config = small_experiment(EngineKind::kSMapReduce);
  config.slot_manager.detect_thrashing = false;
  config.slot_manager.slow_start = false;
  auto policy = make_policy(config);
  const auto* smr_policy = dynamic_cast<core::SmrSlotPolicy*>(policy.get());
  ASSERT_NE(smr_policy, nullptr);
  EXPECT_FALSE(smr_policy->config().detect_thrashing);
  EXPECT_FALSE(smr_policy->config().slow_start);
}

TEST(Driver, EmptyWorkloadRejected) {
  const auto config = small_experiment(EngineKind::kHadoopV1);
  EXPECT_THROW(run_experiment(config, {}), SmrError);
}

}  // namespace
}  // namespace smr::driver
