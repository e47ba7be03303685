// Heartbeats that cannot launch anything must not consult the job
// scheduler: once every active job has placed all its tasks of a kind, the
// runtime skips job_order() for that kind.  The skip must be invisible in
// the output, so each run's jobs CSV is compared with a golden recorded
// before the skip existed.
#include <algorithm>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "smr/metrics/reporter.hpp"
#include "smr/mapreduce/runtime.hpp"
#include "smr/mapreduce/scheduler.hpp"

namespace smr::mapreduce {
namespace {

constexpr int kNodes = 64;

// Forwards to an inner scheduler and counts its calls per kind, and among
// them the calls made while no active job had a pending task of the kind.
class CountingScheduler final : public JobScheduler {
 public:
  struct Counts {
    int calls = 0;
    int idle = 0;
  };

  explicit CountingScheduler(std::unique_ptr<JobScheduler> inner)
      : inner_(std::move(inner)) {}

  using JobScheduler::job_order;

  std::string name() const override { return inner_->name(); }
  std::vector<std::size_t> job_order(const std::vector<Job>& jobs,
                                     std::span<const std::size_t> active,
                                     bool for_map) const override {
    Counts& counts = for_map ? maps : reduces;
    ++counts.calls;
    const bool eligible = std::ranges::any_of(active, [&](std::size_t j) {
      return (for_map ? jobs[j].maps_pending() : jobs[j].reduces_pending()) > 0;
    });
    if (!eligible) ++counts.idle;
    return inner_->job_order(jobs, active, for_map);
  }

  mutable Counts maps;
  mutable Counts reduces;

 private:
  std::unique_ptr<JobScheduler> inner_;
};

// HadoopV1's static slots (StaticSlotPolicy), counting heartbeats.
class CountingStaticPolicy final : public AllocationPolicy {
 public:
  std::string name() const override { return "HadoopV1"; }
  bool wants_heartbeat_stats() const override { return false; }
  void on_heartbeat(TaskTracker& /*tracker*/, const ClusterStats& /*stats*/) override {
    ++heartbeats;
  }

  int heartbeats = 0;
};

struct Outcome {
  metrics::RunResult result;
  int heartbeats = 0;
  CountingScheduler::Counts maps;
  CountingScheduler::Counts reduces;
};

// Two staggered jobs on 64 nodes that contend for map and reduce slots;
// the later one has the tighter deadline, so EDF and FIFO order them
// differently.
Outcome run_two_jobs(std::unique_ptr<JobScheduler> scheduler) {
  RuntimeConfig config;
  config.cluster = cluster::ClusterSpec::paper_testbed(kNodes);
  config.seed = 11;
  auto counting = std::make_unique<CountingScheduler>(std::move(scheduler));
  const CountingScheduler& counts = *counting;
  auto policy = std::make_unique<CountingStaticPolicy>();
  const CountingStaticPolicy& heartbeats = *policy;
  Runtime runtime(config, std::move(policy), std::move(counting));
  JobSpec first;
  first.name = "first";
  first.input_size = 64 * kGiB;
  first.reduce_tasks = 96;
  first.map_cpu_per_mib = 0.3;
  first.map_selectivity = 0.5;
  first.relative_deadline = 100000.0;
  JobSpec second = first;
  second.name = "second";
  second.input_size = 16 * kGiB;
  second.reduce_tasks = 48;
  second.relative_deadline = 600.0;
  runtime.submit(first, 0.0);
  runtime.submit(second, 30.0);
  Outcome outcome{runtime.run(), 0, {}, {}};
  outcome.heartbeats = heartbeats.heartbeats;
  outcome.maps = counts.maps;
  outcome.reduces = counts.reduces;
  return outcome;
}

std::string jobs_csv(const metrics::RunResult& result) {
  std::ostringstream out;
  metrics::write_jobs_csv(result, out);
  return out.str();
}

std::string golden(const std::string& scheduler) {
  const std::string path = std::string(SMR_SOURCE_DIR) +
                           "/tests/integration/golden/idle_heartbeat_64n_" +
                           scheduler + "_jobs.csv";
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "cannot read " << path;
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

void expect_idle_heartbeats_skip_scheduler(const Outcome& outcome,
                                           const std::string& scheduler) {
  ASSERT_TRUE(outcome.result.completed) << outcome.result.failure_reason;
  EXPECT_EQ(jobs_csv(outcome.result), golden(scheduler));
  // Every call had something to place: once a kind's tasks are all
  // placed, heartbeats stop calling the scheduler for it.  (Without the
  // skip, over a thousand calls per run find nothing to place.)
  EXPECT_GT(outcome.maps.calls, 0);
  EXPECT_GT(outcome.reduces.calls, 0);
  EXPECT_EQ(outcome.maps.idle, 0);
  EXPECT_EQ(outcome.reduces.idle, 0);
  EXPECT_LT(outcome.maps.calls, outcome.heartbeats);
  EXPECT_LT(outcome.reduces.calls, outcome.heartbeats);
}

TEST(IdleHeartbeats, SkipTheFifoScheduler) {
  expect_idle_heartbeats_skip_scheduler(
      run_two_jobs(std::make_unique<FifoScheduler>()), "fifo");
}

TEST(IdleHeartbeats, SkipTheDeadlineScheduler) {
  expect_idle_heartbeats_skip_scheduler(
      run_two_jobs(std::make_unique<DeadlineScheduler>()), "deadline");
}

}  // namespace
}  // namespace smr::mapreduce
