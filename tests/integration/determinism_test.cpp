// Determinism harness: the parallel trial/sweep runners must produce
// bit-for-bit identical results for any thread-pool size, and repeated
// runs of the same configuration must agree exactly — the invariant the
// fast-path work (incremental solver, lazy-deletion heap, parallel
// runners) is locked down by.  The sharded cases also compare the
// end-of-run cluster snapshot, whose byte counters are summed by the
// tick's barrier drain and appear nowhere in RunResult.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "smr/common/thread_pool.hpp"
#include "smr/driver/experiment.hpp"
#include "smr/driver/sweep.hpp"
#include "smr/workload/puma.hpp"
#include "smr/workload/synthetic.hpp"
#include "support/run_result_equal.hpp"

namespace smr::driver {
namespace {

ExperimentConfig small_config(EngineKind engine, int trials) {
  ExperimentConfig config = ExperimentConfig::paper_default(engine);
  config.runtime.cluster = cluster::ClusterSpec::paper_testbed(4);
  config.trials = trials;
  return config;
}

// One trial's RunResult plus the runtime's end-of-run snapshot.
struct Outcome {
  metrics::RunResult result;
  mapreduce::ClusterStats stats;
};

// What run_trial does, keeping the runtime long enough to snapshot it.
Outcome run_outcome(const ExperimentConfig& config,
                    const std::vector<JobSubmission>& jobs, ThreadPool& pool) {
  mapreduce::Runtime runtime(config.runtime, make_policy(config),
                             make_scheduler(config));
  runtime.set_thread_pool(&pool);
  for (const JobSubmission& submission : jobs) {
    runtime.submit(submission.spec, submission.submit_at);
  }
  Outcome out;
  out.result = runtime.run();
  out.stats = runtime.snapshot();
  return out;
}

void expect_outcome_equal(const Outcome& a, const Outcome& b) {
  expect_bitwise_equal(a.result, b.result);
  EXPECT_EQ(a.stats.cum_map_input, b.stats.cum_map_input);
  EXPECT_EQ(a.stats.cum_shuffled, b.stats.cum_shuffled);
  EXPECT_EQ(a.stats.cum_map_output, b.stats.cum_map_output);
  ASSERT_EQ(a.stats.per_node.size(), b.stats.per_node.size());
  for (std::size_t n = 0; n < a.stats.per_node.size(); ++n) {
    SCOPED_TRACE("node " + std::to_string(n));
    const mapreduce::NodeStats& x = a.stats.per_node[n];
    const mapreduce::NodeStats& y = b.stats.per_node[n];
    EXPECT_EQ(x.node, y.node);
    EXPECT_EQ(x.alive, y.alive);
    EXPECT_EQ(x.blacklisted, y.blacklisted);
    EXPECT_EQ(x.running_maps, y.running_maps);
    EXPECT_EQ(x.running_reduces, y.running_reduces);
    EXPECT_EQ(x.cum_map_input, y.cum_map_input);
    EXPECT_EQ(x.cum_map_output, y.cum_map_output);
    EXPECT_EQ(x.cum_shuffled_in, y.cum_shuffled_in);
    EXPECT_EQ(x.local_pending_input, y.local_pending_input);
  }
}

std::vector<JobSubmission> small_jobs() {
  mapreduce::JobSpec spec = workload::make_puma_job(workload::Puma::kGrep, 2 * kGiB);
  spec.reduce_tasks = 8;
  return {JobSubmission{spec, 0.0}};
}

TEST(Determinism, TrialsBitIdenticalAcrossPoolSizes) {
  for (EngineKind engine : all_engines()) {
    const ExperimentConfig config = small_config(engine, 4);
    ThreadPool one(1);
    ThreadPool many(16);
    const metrics::RunResult serial = run_experiment(config, small_jobs(), one);
    const metrics::RunResult parallel = run_experiment(config, small_jobs(), many);
    SCOPED_TRACE(engine_name(engine));
    expect_bitwise_equal(serial, parallel);
  }
}

TEST(Determinism, RepeatedRunsBitIdentical) {
  const ExperimentConfig config = small_config(EngineKind::kSMapReduce, 2);
  const metrics::RunResult first = run_experiment(config, small_jobs());
  const metrics::RunResult second = run_experiment(config, small_jobs());
  expect_bitwise_equal(first, second);
}

TEST(Determinism, MultiJobFairSchedulerBitIdenticalAcrossPoolSizes) {
  // The synthetic multi-job path exercises scheduler interleavings and the
  // speculative/failure machinery more aggressively than one PUMA job.
  workload::SyntheticMixConfig mix;
  mix.jobs = 4;
  mix.min_input = kGiB;
  mix.max_input = 4 * kGiB;
  mix.reduce_tasks = 8;
  mix.seed = 11;
  ExperimentConfig config = small_config(EngineKind::kSMapReduce, 3);
  config.scheduler = SchedulerKind::kFair;
  std::vector<JobSubmission> jobs;
  for (auto& job : workload::make_synthetic_mix(mix)) {
    jobs.push_back({std::move(job.spec), job.submit_at});
  }
  ThreadPool one(1);
  ThreadPool many(16);
  const metrics::RunResult serial = run_experiment(config, jobs, one);
  const metrics::RunResult parallel = run_experiment(config, jobs, many);
  expect_bitwise_equal(serial, parallel);
}

TEST(Determinism, SweepBitIdenticalAcrossPoolSizes) {
  SweepConfig config;
  config.base = small_config(EngineKind::kHadoopV1, 2);
  config.spec = workload::make_puma_job(workload::Puma::kGrep, kGiB);
  config.spec.reduce_tasks = 8;
  config.dimension = SweepDimension::kMapSlots;
  config.values = {1, 2, 3};
  config.engines = {EngineKind::kHadoopV1, EngineKind::kSMapReduce};

  ThreadPool one(1);
  ThreadPool many(16);
  const SweepResult serial = run_sweep(config, one);
  const SweepResult parallel = run_sweep(config, many);
  ASSERT_EQ(serial.cells.size(), parallel.cells.size());
  for (std::size_t i = 0; i < serial.cells.size(); ++i) {
    SCOPED_TRACE("cell " + std::to_string(i));
    EXPECT_EQ(serial.cells[i].value, parallel.cells[i].value);
    EXPECT_EQ(serial.cells[i].engine, parallel.cells[i].engine);
    EXPECT_EQ(serial.cells[i].job.start_time, parallel.cells[i].job.start_time);
    EXPECT_EQ(serial.cells[i].job.maps_done_time, parallel.cells[i].job.maps_done_time);
    EXPECT_EQ(serial.cells[i].job.finish_time, parallel.cells[i].job.finish_time);
    EXPECT_EQ(serial.cells[i].engine_events, parallel.cells[i].engine_events);
  }
}

TEST(Determinism, ShardedBitIdenticalToSerialAcrossShardAndPoolSizes) {
  // Tentpole invariant: for a fixed workload, --shards=N must produce the
  // same bytes as --shards=1 for every N and every thread count
  // (shard_count above the node count clamps; a 1-thread pool runs the
  // shard windows inline in shard order).
  for (EngineKind engine : all_engines()) {
    ExperimentConfig config = small_config(engine, 1);
    ThreadPool one(1);
    ThreadPool many(16);
    const Outcome serial = run_outcome(config, small_jobs(), one);
    for (int shards : {2, 4, 8}) {
      config.runtime.shard_count = shards;
      for (ThreadPool* pool : {&one, &many}) {
        SCOPED_TRACE(std::string(engine_name(engine)) + " shards=" +
                     std::to_string(shards) +
                     " threads=" + std::to_string(pool->thread_count()));
        expect_outcome_equal(serial, run_outcome(config, small_jobs(), *pool));
      }
    }
  }
}

TEST(Determinism, ShardedMultiJobFairSchedulerBitIdentical) {
  // Scheduler interleavings + speculation under shards: the control plane
  // stays serial, so job ordering decisions cannot depend on the shard
  // layout.
  workload::SyntheticMixConfig mix;
  mix.jobs = 4;
  mix.min_input = kGiB;
  mix.max_input = 4 * kGiB;
  mix.reduce_tasks = 8;
  mix.seed = 11;
  ExperimentConfig config = small_config(EngineKind::kSMapReduce, 1);
  config.scheduler = SchedulerKind::kFair;
  std::vector<JobSubmission> jobs;
  for (auto& job : workload::make_synthetic_mix(mix)) {
    jobs.push_back({std::move(job.spec), job.submit_at});
  }
  ThreadPool one(1);
  ThreadPool many(16);
  const Outcome serial = run_outcome(config, jobs, one);
  for (int shards : {2, 4}) {
    config.runtime.shard_count = shards;
    SCOPED_TRACE("shards=" + std::to_string(shards));
    expect_outcome_equal(serial, run_outcome(config, jobs, many));
  }
}

TEST(Determinism, ShardedFaultInjectionCrossShardBitIdentical) {
  // The hard case: node 3 (last shard when shards > 1) dies mid-run while
  // reduce tasks of the same jobs run on nodes 0-1 (first shard), so the
  // tracker teardown, completed-map requeues and reduce backlog clawback
  // all cross shard boundaries.  Attempt-level fault injection keeps the
  // doom-detection census loop hot at the same time.
  ExperimentConfig config = small_config(EngineKind::kSMapReduce, 1);
  config.runtime.failures.push_back({/*node=*/3, /*at=*/120.0,
                                     /*recover_at=*/600.0});
  config.runtime.task_fail_rate = 0.08;
  std::vector<JobSubmission> jobs = small_jobs();
  ThreadPool one(1);
  ThreadPool many(16);
  const Outcome serial = run_outcome(config, jobs, one);
  for (int shards : {2, 4}) {
    config.runtime.shard_count = shards;
    for (ThreadPool* pool : {&one, &many}) {
      SCOPED_TRACE("shards=" + std::to_string(shards) +
                   " threads=" + std::to_string(pool->thread_count()));
      expect_outcome_equal(serial, run_outcome(config, jobs, *pool));
    }
  }
}

TEST(Determinism, ShardedStaggeredTerasortsOnLargeClusterBitIdentical) {
  // Two 24 GiB terasorts submitted 30 s apart on 256 nodes: enough nodes
  // that every shard owns dozens of trackers and the network solve spans
  // them all, with the second job's arrival landing mid-window.
  ExperimentConfig config = ExperimentConfig::paper_default(EngineKind::kSMapReduce);
  config.trials = 1;
  config.runtime.cluster = cluster::ClusterSpec::paper_testbed(256);
  std::vector<JobSubmission> jobs;
  for (int j = 0; j < 2; ++j) {
    jobs.push_back({workload::make_puma_job(workload::Puma::kTerasort, 24 * kGiB),
                    30.0 * j});
  }
  ThreadPool one(1);
  ThreadPool many(16);
  config.runtime.seed = 1;
  const Outcome serial = run_outcome(config, jobs, one);
  ASSERT_TRUE(serial.result.completed);
  for (int shards : {4, 8}) {
    config.runtime.shard_count = shards;
    for (ThreadPool* pool : {&one, &many}) {
      SCOPED_TRACE("shards=" + std::to_string(shards) +
                   " threads=" + std::to_string(pool->thread_count()));
      expect_outcome_equal(serial, run_outcome(config, jobs, *pool));
    }
  }
}

TEST(Determinism, ShardedNodesGoIdleAndComeBackBitIdentical) {
  // Nodes leave and re-enter the tick's busy set: the first job's maps
  // drain and leave most of the 64 nodes idle behind its few reducers, a
  // second job arrives later and fills them again, node 40 dies and
  // recovers in between, and injected attempt failures re-run the census
  // mid-tick.
  ExperimentConfig config = small_config(EngineKind::kSMapReduce, 1);
  config.runtime.cluster = cluster::ClusterSpec::paper_testbed(64);
  config.runtime.failures.push_back({/*node=*/40, /*at=*/30.0,
                                     /*recover_at=*/150.0});
  config.runtime.task_fail_rate = 0.05;
  std::vector<JobSubmission> jobs;
  for (SimTime at : {0.0, 200.0}) {
    mapreduce::JobSpec spec =
        workload::make_puma_job(workload::Puma::kTerasort, 8 * kGiB);
    spec.reduce_tasks = 6;
    jobs.push_back({spec, at});
  }
  ThreadPool one(1);
  ThreadPool many(16);
  const Outcome reference = run_outcome(config, jobs, one);
  ASSERT_TRUE(reference.result.completed);
  ASSERT_EQ(reference.result.jobs.size(), 2u);
  ASSERT_LT(reference.result.jobs[0].maps_done_time, jobs[1].submit_at);
  ASSERT_GT(reference.result.jobs[0].finish_time, 30.0);
  for (int shards : {1, 3, 4}) {
    config.runtime.shard_count = shards;
    for (ThreadPool* pool : {&one, &many}) {
      SCOPED_TRACE("shards=" + std::to_string(shards) +
                   " threads=" + std::to_string(pool->thread_count()));
      expect_outcome_equal(reference, run_outcome(config, jobs, *pool));
    }
  }
}

// Speculation on a half-slow cluster: backups launch on the fast shard
// while their primaries straggle on the slow one, so a shadow-pool growth
// on one shard moves attempts another shard has cached pointers to.
void expect_speculation_bit_identical(bool reduce_speculation) {
  ExperimentConfig config = small_config(EngineKind::kSMapReduce, 1);
  config.runtime.cluster = cluster::ClusterSpec::heterogeneous(3, 3, 0.5);
  config.runtime.speculative_execution = true;
  config.runtime.speculative_reduce_execution = reduce_speculation;
  mapreduce::JobSpec spec =
      workload::make_puma_job(workload::Puma::kTerasort, 2 * kGiB);
  spec.reduce_tasks = 8;
  const std::vector<JobSubmission> jobs = {JobSubmission{spec, 0.0}};
  ThreadPool one(1);
  ThreadPool many(16);
  const Outcome reference = run_outcome(config, jobs, one);
  for (int shards : {1, 2, 3}) {
    config.runtime.shard_count = shards;
    for (ThreadPool* pool : {&one, &many}) {
      SCOPED_TRACE("shards=" + std::to_string(shards) +
                   " threads=" + std::to_string(pool->thread_count()));
      expect_outcome_equal(reference, run_outcome(config, jobs, *pool));
    }
  }
}

TEST(Determinism, ShardedMapSpeculationHeterogeneousBitIdentical) {
  expect_speculation_bit_identical(/*reduce_speculation=*/false);
}

TEST(Determinism, ShardedReduceSpeculationHeterogeneousBitIdentical) {
  expect_speculation_bit_identical(/*reduce_speculation=*/true);
}

TEST(Determinism, SolverCountersAreDeterministic) {
  // The solver's cache-hit pattern is part of the deterministic state: the
  // same run must take exactly the same fast paths every time.
  const ExperimentConfig config = small_config(EngineKind::kSMapReduce, 1);
  const metrics::RunResult first = run_experiment(config, small_jobs());
  const metrics::RunResult second = run_experiment(config, small_jobs());
  EXPECT_GT(first.solver_calls, 0u);
  EXPECT_LT(first.solver_full_solves, first.solver_calls);  // cache does work
  EXPECT_EQ(first.solver_calls, second.solver_calls);
  EXPECT_EQ(first.solver_full_solves, second.solver_full_solves);
}

// Two staggered terasorts on 64 nodes, which launch dozens of maps that
// read their split remotely.
ExperimentConfig remote_read_config() {
  ExperimentConfig config = small_config(EngineKind::kSMapReduce, 1);
  config.runtime.cluster = cluster::ClusterSpec::paper_testbed(64);
  config.runtime.seed = 1;
  return config;
}

void submit_remote_read_jobs(mapreduce::Runtime& runtime) {
  for (SimTime at : {0.0, 30.0}) {
    mapreduce::JobSpec spec =
        workload::make_puma_job(workload::Puma::kTerasort, 8 * kGiB);
    spec.reduce_tasks = 8;
    runtime.submit(spec, at);
  }
}

TEST(Determinism, SolverCountersPinnedOnRemoteReadRun) {
  // Remote-reading maps cap their node's compute loads at the per-tick
  // network grant, so the tick must re-solve such a node when the grant
  // moves even though nothing else on it changed.  Every solver counter
  // and the makespan are pinned to the values the tick produced when this
  // test was written.
  const ExperimentConfig config = remote_read_config();
  mapreduce::Runtime runtime(config.runtime, make_policy(config),
                             make_scheduler(config));
  submit_remote_read_jobs(runtime);
  const metrics::RunResult result = runtime.run();
  ASSERT_TRUE(result.completed);
  EXPECT_EQ(runtime.remote_map_launches(), 54);
  const cluster::MaxMinSolver::Stats stats = runtime.solver_stats();
  EXPECT_EQ(stats.calls, 15707u);
  EXPECT_EQ(stats.cache_hits, 15281u);
  EXPECT_EQ(stats.cap_fast_hits, 0u);
  EXPECT_EQ(stats.full_solves, 426u);
  EXPECT_EQ(result.makespan, 364.75);
}

TEST(Determinism, TickWorkPinnedOnRemoteReadRun) {
  // The same run's node-solve and sampling work: a node rebuilds its loads
  // only when a launch, finish, phase change or moved grant marked it, and
  // a sample folds only the tasks inside each job's progress window.
  const ExperimentConfig config = remote_read_config();
  mapreduce::Runtime runtime(config.runtime, make_policy(config),
                             make_scheduler(config));
  submit_remote_read_jobs(runtime);
  ASSERT_TRUE(runtime.run().completed);
  const mapreduce::Runtime::TickWork work = runtime.tick_work();
  EXPECT_EQ(work.quiet_replays, 14805u);
  EXPECT_EQ(work.capacity_resolves, 0u);
  EXPECT_EQ(work.load_rebuilds, 336u);
  EXPECT_EQ(work.progress_terms, 5499u);
  EXPECT_EQ(work.settle_checks, 3904u);
}

// FNV-1a over the bit pattern of every time a run's JobResults record.
std::uint64_t job_times_digest(const metrics::RunResult& result) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  const auto add = [&hash](double value) {
    const auto word = std::bit_cast<std::uint64_t>(value);
    for (int byte = 0; byte < 8; ++byte) {
      hash ^= (word >> (8 * byte)) & 0xffu;
      hash *= 0x100000001b3ULL;
    }
  };
  add(result.makespan);
  for (const metrics::JobResult& job : result.jobs) {
    add(job.submit_time);
    add(job.start_time);
    add(job.maps_done_time);
    add(job.finish_time);
    add(job.deadline);
  }
  return hash;
}

TEST(Determinism, CongestedNetworkRunPinnedBitwise) {
  // A fabric of two NICs for 16 nodes: the shuffles saturate it, so the
  // network solves run water-fill rounds that freeze flows below their
  // caps.  No other end-to-end test drives a saturated network, and the
  // paper workloads never saturate one.  The makespan and every job time
  // are pinned to the bits the tick produced when this test was written.
  ExperimentConfig config = small_config(EngineKind::kSMapReduce, 1);
  config.runtime.cluster = cluster::ClusterSpec::paper_testbed(16);
  config.runtime.cluster.network.fabric_bandwidth =
      2.0 * config.runtime.cluster.workers[0].nic_bandwidth;
  config.runtime.seed = 3;
  mapreduce::Runtime runtime(config.runtime, make_policy(config),
                             make_scheduler(config));
  for (SimTime at : {0.0, 20.0}) {
    mapreduce::JobSpec spec =
        workload::make_puma_job(workload::Puma::kTerasort, 8 * kGiB);
    spec.reduce_tasks = 32;
    runtime.submit(spec, at);
  }
  const metrics::RunResult result = runtime.run();
  ASSERT_TRUE(result.completed);
  EXPECT_GT(runtime.network_work().rounds, 0u);
  EXPECT_EQ(runtime.network_work().certified, 94u);
  EXPECT_EQ(runtime.solver_stats().full_solves, 1484u);
  EXPECT_EQ(result.makespan, 223.5);
  EXPECT_EQ(job_times_digest(result), 0xfa866c15ce844fb4ULL);
}

TEST(Determinism, CapacityOnlyResolvesOnShuffleBackground) {
  // On 4 nodes the shuffle ingest shares nodes with running maps, so some
  // node-ticks change only their background and re-solve cached flows.
  const ExperimentConfig config = small_config(EngineKind::kSMapReduce, 1);
  mapreduce::Runtime runtime(config.runtime, make_policy(config),
                             make_scheduler(config));
  for (const JobSubmission& job : small_jobs()) runtime.submit(job.spec, job.submit_at);
  ASSERT_TRUE(runtime.run().completed);
  EXPECT_GT(runtime.tick_work().capacity_resolves, 0u);
}

}  // namespace
}  // namespace smr::driver
