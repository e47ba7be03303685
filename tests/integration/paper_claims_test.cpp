// The paper's headline evaluation claims, asserted at full paper scale
// (16 worker nodes, 30 GB inputs).  These are the guardrails behind every
// smr_figures table: if one of these breaks, EXPERIMENTS.md is stale.
#include <gtest/gtest.h>

#include "smr/driver/experiment.hpp"
#include "smr/workload/puma.hpp"

namespace smr::driver {
namespace {

metrics::JobResult run_paper(EngineKind engine, workload::Puma bench,
                             Bytes input = 30 * kGiB) {
  ExperimentConfig config = ExperimentConfig::paper_default(engine);
  config.trials = 1;
  return run_single_job(config, workload::make_puma_job(bench, input)).jobs[0];
}

// --- Fig. 3: per-benchmark execution times ------------------------------

TEST(PaperClaims, SMapReduceBeatsBothOnMapHeavyJobs) {
  for (auto bench : {workload::Puma::kGrep, workload::Puma::kHistogramRatings,
                     workload::Puma::kHistogramMovies}) {
    const auto v1 = run_paper(EngineKind::kHadoopV1, bench);
    const auto yarn = run_paper(EngineKind::kYarn, bench);
    const auto smr = run_paper(EngineKind::kSMapReduce, bench);
    EXPECT_LT(smr.total_time(), v1.total_time()) << workload::puma_name(bench);
    EXPECT_LT(smr.total_time(), yarn.total_time()) << workload::puma_name(bench);
  }
}

TEST(PaperClaims, SMapReduceBeatsBothOnMediumShuffleJobs) {
  for (auto bench : {workload::Puma::kInvertedIndex, workload::Puma::kTermVector}) {
    const auto v1 = run_paper(EngineKind::kHadoopV1, bench);
    const auto yarn = run_paper(EngineKind::kYarn, bench);
    const auto smr = run_paper(EngineKind::kSMapReduce, bench);
    EXPECT_LT(smr.total_time(), v1.total_time()) << workload::puma_name(bench);
    EXPECT_LT(smr.total_time(), yarn.total_time()) << workload::puma_name(bench);
  }
}

TEST(PaperClaims, YarnSitsBetweenV1AndSMapReduceOnMapHeavyJobs) {
  const auto bench = workload::Puma::kHistogramRatings;
  const auto v1 = run_paper(EngineKind::kHadoopV1, bench);
  const auto yarn = run_paper(EngineKind::kYarn, bench);
  const auto smr = run_paper(EngineKind::kSMapReduce, bench);
  EXPECT_LT(yarn.map_time(), v1.map_time());
  EXPECT_LT(smr.map_time(), yarn.map_time());
}

TEST(PaperClaims, TerasortIsTheException) {
  // "Terasort is the only exception here, where SMapReduce execution time
  // is slightly longer ... the overhead is so small that it should be
  // negligible."
  const auto v1 = run_paper(EngineKind::kHadoopV1, workload::Puma::kTerasort);
  const auto smr = run_paper(EngineKind::kSMapReduce, workload::Puma::kTerasort);
  EXPECT_GE(smr.total_time(), v1.total_time() * 0.97);  // not faster
  EXPECT_LE(smr.total_time(), v1.total_time() * 1.20);  // but near-negligible cost
}

TEST(PaperClaims, HistogramRatingsSpeedupMagnitude) {
  // Paper: +140% vs HadoopV1 and +72% vs YARN.  The simulator reproduces
  // the ordering and a same-ballpark magnitude (factors, not percent-exact).
  const auto v1 = run_paper(EngineKind::kHadoopV1, workload::Puma::kHistogramRatings);
  const auto yarn = run_paper(EngineKind::kYarn, workload::Puma::kHistogramRatings);
  const auto smr = run_paper(EngineKind::kSMapReduce, workload::Puma::kHistogramRatings);
  const double vs_v1 = smr.throughput() / v1.throughput();
  const double vs_yarn = smr.throughput() / yarn.throughput();
  EXPECT_GT(vs_v1, 1.3);
  EXPECT_GT(vs_yarn, 1.15);
  EXPECT_GT(vs_v1, vs_yarn);  // the V1 gap is the larger one
}

// --- Fig. 4: progress over time -----------------------------------------

TEST(PaperClaims, ProgressCurveAcceleratesUnderSlotManagement) {
  ExperimentConfig config = ExperimentConfig::paper_default(EngineKind::kSMapReduce);
  config.trials = 1;
  const auto spec = workload::make_puma_job(workload::Puma::kHistogramMovies);
  const auto smr = run_experiment(config, {{spec, 0.0}});
  ASSERT_TRUE(smr.completed);
  const auto& series = smr.progress[0];
  ASSERT_GT(series.size(), 10u);
  // Average progress speed in the second half of the map phase exceeds the
  // first half (the paper: "the speedup rate increases over time").
  const auto& first = series.front();
  std::size_t mid = 0;
  while (mid < series.size() && series[mid].map_pct < 50.0) ++mid;
  ASSERT_LT(mid, series.size());
  std::size_t end = mid;
  while (end < series.size() && series[end].map_pct < 99.0) ++end;
  ASSERT_LT(end, series.size());
  const double first_half_speed =
      (series[mid].map_pct - first.map_pct) / (series[mid].time - first.time);
  const double second_half_speed =
      (series[end].map_pct - series[mid].map_pct) /
      std::max(1e-9, series[end].time - series[mid].time);
  EXPECT_GT(second_half_speed, first_half_speed * 1.1);
}

// --- Fig. 5: different slot configurations ------------------------------

TEST(PaperClaims, SMapReduceRobustToInitialSlotMisconfiguration) {
  // Map time under initial map slots 1 and 6 should end up within ~40% of
  // each other for SMapReduce (it converges), while HadoopV1 varies wildly.
  auto run_with_slots = [](EngineKind engine, int slots) {
    ExperimentConfig config = ExperimentConfig::paper_default(engine);
    config.trials = 1;
    config.runtime.initial_map_slots = slots;
    return run_single_job(config,
                          workload::make_puma_job(workload::Puma::kHistogramRatings))
        .jobs[0]
        .map_time();
  };
  const double v1_1 = run_with_slots(EngineKind::kHadoopV1, 1);
  const double v1_6 = run_with_slots(EngineKind::kHadoopV1, 6);
  const double smr_1 = run_with_slots(EngineKind::kSMapReduce, 1);
  const double smr_6 = run_with_slots(EngineKind::kSMapReduce, 6);
  EXPECT_GT(v1_1 / v1_6, 2.5);    // static config pays the full price
  EXPECT_LT(smr_1 / smr_6, 1.8);  // the slot manager converges from either end
  EXPECT_LT(smr_1, v1_1 * 0.5);   // and rescues the bad configuration
}

// --- Fig. 6: input-size scaling ------------------------------------------

TEST(PaperClaims, ThroughputGrowsWithInputOnlyUnderSlotManagement) {
  const auto small_v1 = run_paper(EngineKind::kHadoopV1, workload::Puma::kHistogramRatings, 30 * kGiB);
  const auto big_v1 = run_paper(EngineKind::kHadoopV1, workload::Puma::kHistogramRatings, 120 * kGiB);
  const auto small_smr = run_paper(EngineKind::kSMapReduce, workload::Puma::kHistogramRatings, 30 * kGiB);
  const auto big_smr = run_paper(EngineKind::kSMapReduce, workload::Puma::kHistogramRatings, 120 * kGiB);
  // HadoopV1 is flat with input size...
  EXPECT_NEAR(big_v1.throughput() / small_v1.throughput(), 1.0, 0.12);
  // ...while SMapReduce gains because it has more time at the optimum.
  EXPECT_GT(big_smr.throughput() / small_smr.throughput(), 1.25);
}

// --- Fig. 7: ablations ----------------------------------------------------

TEST(PaperClaims, WithoutThrashingDetectionMapTimeDegradesBadly) {
  // "Without detecting thrashing, the map time of SMapReduce is much
  // longer than that of HadoopV1 and YARN."
  ExperimentConfig config = ExperimentConfig::paper_default(EngineKind::kSMapReduce);
  config.trials = 1;
  const auto spec = workload::make_puma_job(workload::Puma::kTerasort);
  const auto with = run_single_job(config, spec).jobs[0];
  config.slot_manager.detect_thrashing = false;
  const auto without = run_single_job(config, spec).jobs[0];
  const auto v1 = run_paper(EngineKind::kHadoopV1, workload::Puma::kTerasort);
  EXPECT_GT(without.map_time(), with.map_time() * 1.3);
  EXPECT_GT(without.map_time(), v1.map_time() * 1.3);
}

TEST(PaperClaims, SlowStartAvoidsEarlyMisjudgement) {
  // Averaged over seeds, slow start is no worse and typically better.
  ExperimentConfig config = ExperimentConfig::paper_default(EngineKind::kSMapReduce);
  config.trials = 3;
  const auto spec = workload::make_puma_job(workload::Puma::kTerasort);
  const auto with = run_experiment(config, {{spec, 0.0}}).jobs[0];
  config.slot_manager.slow_start = false;
  const auto without = run_experiment(config, {{spec, 0.0}}).jobs[0];
  EXPECT_LE(with.map_time(), without.map_time() * 1.05);
}

// --- Figs. 8-9: multiple concurrent jobs ---------------------------------

TEST(PaperClaims, MultiJobWorkloadsFavourSMapReduce) {
  // 4 jobs of the same benchmark, staggered 5 s apart (the paper's setup).
  auto run_multi = [](EngineKind engine, workload::Puma bench) {
    ExperimentConfig config = ExperimentConfig::paper_default(engine);
    config.trials = 1;
    std::vector<JobSubmission> jobs;
    for (int i = 0; i < 4; ++i) {
      jobs.push_back({workload::make_puma_job(bench, 20 * kGiB), 5.0 * i});
    }
    return run_experiment(config, jobs);
  };
  for (auto bench : {workload::Puma::kGrep, workload::Puma::kInvertedIndex}) {
    const auto v1 = run_multi(EngineKind::kHadoopV1, bench);
    const auto yarn = run_multi(EngineKind::kYarn, bench);
    const auto smr = run_multi(EngineKind::kSMapReduce, bench);
    ASSERT_TRUE(v1.completed && yarn.completed && smr.completed);
    EXPECT_LT(smr.mean_execution_time(), v1.mean_execution_time())
        << workload::puma_name(bench);
    EXPECT_LT(smr.mean_execution_time(), yarn.mean_execution_time())
        << workload::puma_name(bench);
    EXPECT_LT(smr.last_finish_time(), v1.last_finish_time())
        << workload::puma_name(bench);
  }
}

TEST(PaperClaims, LaterJobsInheritAdaptedSlots) {
  // The multi-job advantage partly comes from jobs 2-4 starting with the
  // already-adapted slot configuration.
  ExperimentConfig config = ExperimentConfig::paper_default(EngineKind::kSMapReduce);
  config.trials = 1;
  std::vector<JobSubmission> jobs;
  for (int i = 0; i < 4; ++i) {
    jobs.push_back({workload::make_puma_job(workload::Puma::kGrep, 8 * kGiB), 5.0 * i});
  }
  const auto result = run_experiment(config, jobs);
  ASSERT_TRUE(result.completed);
  // Job 4 runs mostly at the adapted configuration: its total time beats
  // job 1's (which paid the adaptation cost), ignoring queueing delay.
  EXPECT_LT(result.jobs[3].total_time(), result.jobs[0].total_time() * 1.05);
}

}  // namespace
}  // namespace smr::driver
