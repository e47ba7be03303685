// KarmaAllocator: credit conservation, decay, and the single-tenant
// HadoopV1 identity (caps never bind with one tenant).
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <utility>
#include <vector>

#include "smr/alloc/karma.hpp"
#include "smr/alloc/registry.hpp"
#include "smr/driver/experiment.hpp"
#include "smr/mapreduce/runtime.hpp"
#include "smr/workload/puma.hpp"
#include "support/run_result_equal.hpp"

namespace smr::alloc {
namespace {

/// A contended three-tenant batch on the small testbed: tenant demands are
/// deliberately skewed so entitlements both over- and under-shoot demand,
/// which exercises the donate/borrow pool every period.
struct KarmaRun {
  metrics::RunResult result;
  const KarmaAllocator* karma = nullptr;
  std::unique_ptr<mapreduce::Runtime> runtime;
};

KarmaRun run_multi_tenant(KarmaConfig config) {
  driver::ExperimentConfig base =
      driver::ExperimentConfig::paper_default(driver::EngineKind::kHadoopV1);
  base.runtime.cluster = cluster::ClusterSpec::paper_testbed(4);

  auto karma = std::make_unique<KarmaAllocator>(config);
  KarmaRun run;
  run.karma = karma.get();
  run.runtime = std::make_unique<mapreduce::Runtime>(
      base.runtime, std::move(karma), driver::make_scheduler(base));

  const struct {
    const char* tenant;
    int gib;
    double at;
  } jobs[] = {{"alice", 6, 0.0}, {"bob", 2, 5.0}, {"carol", 1, 10.0}};
  for (const auto& job : jobs) {
    mapreduce::JobSpec spec =
        workload::make_puma_job(workload::Puma::kTerasort, job.gib * kGiB);
    spec.reduce_tasks = 8;
    spec.tenant = job.tenant;
    run.runtime->submit(spec, job.at);
  }
  run.result = run.runtime->run();
  return run;
}

TEST(Karma, ConservesCreditsWithEqualRatesAndNoDecay) {
  KarmaConfig config;
  config.init_credits = 100.0;
  config.donate_rate = 1.0;
  config.borrow_rate = 1.0;
  config.decay = 1.0;
  const KarmaRun run = run_multi_tenant(config);

  ASSERT_TRUE(run.result.completed);
  ASSERT_GT(run.karma->periods(), 0);
  // The skewed mix must actually exercise the pool, or conservation is
  // vacuous.
  EXPECT_GT(run.karma->borrowed_slot_periods(), 0);
  EXPECT_GT(run.karma->donated_slot_periods(), 0);

  // Only borrowed slot-periods mint credit, and they mint exactly what the
  // borrowers burn: the total balance is conserved.
  EXPECT_NEAR(run.karma->credits_minted(), run.karma->credits_burned(), 1e-9);
  EXPECT_NEAR(run.karma->total_balance(), 3 * config.init_credits, 1e-6);

  // Generic accounting identity (any rates): Δtotal == minted − burned.
  EXPECT_NEAR(run.karma->total_balance() - 3 * config.init_credits,
              run.karma->credits_minted() - run.karma->credits_burned(), 1e-6);

  const auto balances = run.karma->credit_balances();
  ASSERT_EQ(balances.size(), 3u);
  EXPECT_EQ(balances[0].first, "alice");
  EXPECT_EQ(balances[1].first, "bob");
  EXPECT_EQ(balances[2].first, "carol");
}

TEST(Karma, DecayShrinksTheTotalBalance) {
  KarmaConfig config;
  config.init_credits = 100.0;
  config.decay = 0.5;
  const KarmaRun run = run_multi_tenant(config);
  ASSERT_TRUE(run.result.completed);
  ASSERT_GT(run.karma->periods(), 0);
  EXPECT_LT(run.karma->total_balance(), 3 * config.init_credits);
}

TEST(Karma, UnequalRatesBreakConservationAsAccounted) {
  KarmaConfig config;
  config.donate_rate = 0.5;  // donors earn half of what borrowers pay
  config.borrow_rate = 1.0;
  config.decay = 1.0;
  const KarmaRun run = run_multi_tenant(config);
  ASSERT_TRUE(run.result.completed);
  ASSERT_GT(run.karma->borrowed_slot_periods(), 0);
  EXPECT_LT(run.karma->credits_minted(), run.karma->credits_burned());
  EXPECT_NEAR(run.karma->total_balance() - 3 * 100.0,
              run.karma->credits_minted() - run.karma->credits_burned(), 1e-6);
}

TEST(Karma, SingleTenantIsBitIdenticalToHadoopV1) {
  // With one tenant there is nobody to donate to or borrow from: the caps
  // equal demand and never bind, so the run must reproduce HadoopV1's
  // whole result exactly, bit for bit.
  driver::ExperimentConfig config =
      driver::ExperimentConfig::paper_default(driver::EngineKind::kHadoopV1);
  config.runtime.cluster = cluster::ClusterSpec::paper_testbed(4);
  config.trials = 2;
  mapreduce::JobSpec spec =
      workload::make_puma_job(workload::Puma::kTerasort, 2 * kGiB);
  spec.reduce_tasks = 8;
  const std::vector<driver::JobSubmission> jobs = {{spec, 0.0}};

  const metrics::RunResult hadoop = driver::run_experiment(config, jobs);
  config.policy = parse_policy_spec("karma");
  const metrics::RunResult karma = driver::run_experiment(config, jobs);

  ASSERT_TRUE(hadoop.completed);
  expect_bitwise_equal(hadoop, karma);
}

}  // namespace
}  // namespace smr::alloc
