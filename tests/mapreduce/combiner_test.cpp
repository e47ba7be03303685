// The optional combine sub-phase (paper §II-A1: map = map phase, sort and
// spill phase, "plus optionally the combine phase").
#include <gtest/gtest.h>

#include <map>
#include <memory>

#include "smr/mapreduce/runtime.hpp"
#include "smr/metrics/trace.hpp"
#include "smr/workload/puma.hpp"

namespace smr::mapreduce {
namespace {

RuntimeConfig two_nodes() {
  RuntimeConfig config;
  config.cluster = cluster::ClusterSpec::paper_testbed(2);
  config.seed = 81;
  return config;
}

JobSpec combiner_job(bool with_combiner) {
  JobSpec spec;
  spec.name = with_combiner ? "with-combiner" : "without-combiner";
  spec.input_size = 1 * kGiB;
  spec.reduce_tasks = 4;
  spec.map_cpu_per_mib = 0.2;
  spec.map_selectivity = 0.05;  // final output either way
  spec.has_combiner = with_combiner;
  spec.combiner_reduction = 0.1;
  spec.combine_cpu_per_mib = 0.05;
  return spec;
}

TEST(Combiner, CombinePhaseAppearsInTrace) {
  Runtime runtime(two_nodes(), std::make_unique<StaticSlotPolicy>());
  metrics::TraceLog trace;
  runtime.set_trace(&trace);
  runtime.submit(combiner_job(true), 0.0);
  ASSERT_TRUE(runtime.run().completed);
  int combines = 0, spills = 0;
  for (const auto& e : trace.of_kind(metrics::TraceEventKind::kPhaseStarted)) {
    if (e.detail == "COMBINE") ++combines;
    if (e.detail == "SPILL") ++spills;
  }
  EXPECT_EQ(combines, 8);  // one per map task
  EXPECT_EQ(spills, 8);    // combine then spill
}

TEST(Combiner, NoCombinerNoCombinePhase) {
  Runtime runtime(two_nodes(), std::make_unique<StaticSlotPolicy>());
  metrics::TraceLog trace;
  runtime.set_trace(&trace);
  runtime.submit(combiner_job(false), 0.0);
  ASSERT_TRUE(runtime.run().completed);
  for (const auto& e : trace.of_kind(metrics::TraceEventKind::kPhaseStarted)) {
    EXPECT_NE(e.detail, "COMBINE");
  }
}

TEST(Combiner, CombineOrderIsMapCombineSpill) {
  Runtime runtime(two_nodes(), std::make_unique<StaticSlotPolicy>());
  metrics::TraceLog trace;
  runtime.set_trace(&trace);
  runtime.submit(combiner_job(true), 0.0);
  runtime.run();
  // Per task: MAP < COMBINE < SPILL in time.
  std::map<TaskId, std::vector<std::string>> phases;
  for (const auto& e : trace.of_kind(metrics::TraceEventKind::kPhaseStarted)) {
    if (e.is_map) phases[e.task].emplace_back(e.detail);
  }
  for (const auto& [task, sequence] : phases) {
    ASSERT_EQ(sequence.size(), 3u) << "task " << task;
    EXPECT_EQ(sequence[0], "MAP");
    EXPECT_EQ(sequence[1], "COMBINE");
    EXPECT_EQ(sequence[2], "SPILL");
  }
}

TEST(Combiner, ShuffleVolumeUnchangedByCombinerFlag) {
  // map_selectivity is the post-combine ratio, so the partition sizes (and
  // every downstream conservation property) are identical either way.
  for (bool with : {false, true}) {
    Runtime runtime(two_nodes(), std::make_unique<StaticSlotPolicy>());
    const JobSpec spec = combiner_job(with);
    runtime.submit(spec, 0.0);
    ASSERT_TRUE(runtime.run().completed);
    const Job& job = runtime.jobs()[0];
    Bytes partitions = 0;
    for (const auto& r : job.reduces) partitions += r.partition_size;
    Bytes outputs = 0;
    for (const auto& m : job.maps) outputs += m.output_size;
    EXPECT_EQ(partitions, outputs);
    // Spec-level estimate matches up to per-task rounding.
    EXPECT_NEAR(static_cast<double>(partitions),
                static_cast<double>(spec.map_output_total()),
                static_cast<double>(job.maps.size()));
    EXPECT_NEAR(job.bytes_shuffled, static_cast<double>(partitions), 1.0);
  }
}

TEST(Combiner, CombinerCostsMapTime) {
  auto run_map_time = [&](bool with) {
    Runtime runtime(two_nodes(), std::make_unique<StaticSlotPolicy>());
    runtime.submit(combiner_job(with), 0.0);
    return runtime.run().jobs[0].map_time();
  };
  // Same final output, but the combine pass over 10x the bytes costs CPU.
  EXPECT_GT(run_map_time(true), run_map_time(false) * 1.05);
}

TEST(Combiner, ProgressMonotoneThroughThreePhases) {
  Runtime runtime(two_nodes(), std::make_unique<StaticSlotPolicy>());
  runtime.submit(combiner_job(true), 0.0);
  const auto result = runtime.run();
  const auto& series = result.progress[0];
  for (std::size_t i = 1; i < series.size(); ++i) {
    EXPECT_GE(series[i].map_pct, series[i - 1].map_pct - 1e-9);
  }
}

TEST(Combiner, ValidationRejectsBadReduction) {
  JobSpec spec = combiner_job(true);
  spec.combiner_reduction = 0.0;
  EXPECT_THROW(spec.validate(), SmrError);
  spec.combiner_reduction = 1.5;
  EXPECT_THROW(spec.validate(), SmrError);
}

TEST(Combiner, WordCountUsesTheCombiner) {
  const auto spec = workload::make_puma_job(workload::Puma::kWordCount);
  EXPECT_TRUE(spec.has_combiner);
  EXPECT_LT(spec.combiner_reduction, 1.0);
}

TEST(Combiner, SurvivesSpeculationAndFailure) {
  RuntimeConfig config = two_nodes();
  config.cluster = cluster::ClusterSpec::paper_testbed(4);
  config.speculative_execution = true;
  config.failures.push_back({1, 20.0});
  Runtime runtime(config, std::make_unique<StaticSlotPolicy>());
  auto spec = combiner_job(true);
  spec.duration_cv = 0.5;
  runtime.submit(spec, 0.0);
  EXPECT_TRUE(runtime.run().completed);
}

}  // namespace
}  // namespace smr::mapreduce
