// Result containers produced by a simulation run.
//
// Timing definitions follow the paper's evaluation (Section V-A):
//   * "map time"    = from job start until the last map task finishes (the
//                     stretch where map tasks run in parallel with the first
//                     wave of shuffle phases).
//   * "reduce time" = from the barrier until the job finishes (only reduce
//                     tasks running).
//   * job throughput = input bytes / total execution time.
// For multi-job workloads (Figs. 8-9) execution time is measured from
// *submission* to finish, matching how Hadoop reports job runtime.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "smr/common/error.hpp"
#include "smr/common/types.hpp"

namespace smr::metrics {

struct JobResult {
  JobId id = kInvalidJob;
  std::string name;
  Bytes input_size = 0;
  Bytes shuffle_volume = 0;

  SimTime submit_time = kTimeNever;
  SimTime start_time = kTimeNever;
  SimTime maps_done_time = kTimeNever;
  SimTime finish_time = kTimeNever;

  /// Absolute SLO deadline (submit time + the spec's relative deadline);
  /// kTimeNever when the job carries no SLO.
  SimTime deadline = kTimeNever;

  /// True when the job was torn down after a task exhausted its retry
  /// budget; finish_time then records the teardown, not a success.
  bool failed = false;

  /// Successful completion: a failed job is never "finished" even though
  /// its teardown stamped finish_time.
  bool finished() const { return finish_time != kTimeNever && !failed; }

  /// Map-phase execution time (start → barrier).
  SimTime map_time() const { return maps_done_time - start_time; }
  /// Reduce tail execution time (barrier → finish).
  SimTime reduce_time() const { return finish_time - maps_done_time; }
  /// Total running time (start → finish).
  SimTime total_time() const { return finish_time - start_time; }
  /// Submission-to-finish time (multi-job reporting).
  SimTime execution_time() const { return finish_time - submit_time; }

  /// Job throughput in bytes/second of input processed.
  Rate throughput() const {
    SMR_CHECK(finished());
    return static_cast<double>(input_size) / total_time();
  }
  /// Aggregate map throughput in bytes/second over the map phase.
  Rate map_throughput() const {
    SMR_CHECK(finished());
    return static_cast<double>(input_size) / map_time();
  }
};

/// One progress observation for a job (percentages; map and reduce each
/// count 100, so a finished job sits at 200 — the paper's Fig. 4 axis).
struct ProgressSample {
  SimTime time = 0.0;
  double map_pct = 0.0;
  double reduce_pct = 0.0;
  double total_pct() const { return map_pct + reduce_pct; }
};

/// Cluster-averaged slot counts over time (for the slot timeline and the
/// lazy-changer diagnostics).
struct SlotSample {
  SimTime time = 0.0;
  double map_target = 0.0;
  double reduce_target = 0.0;
  double running_maps = 0.0;
  double running_reduces = 0.0;
};

struct RunResult {
  std::vector<JobResult> jobs;
  /// progress[j] is job j's progress series.
  std::vector<std::vector<ProgressSample>> progress;
  std::vector<SlotSample> slots;
  SimTime makespan = 0.0;
  /// True when every submitted job completed successfully before the time
  /// limit; false on a timeout, a failed job, or a degraded run (e.g. every
  /// worker node failed) — `failure_reason` then says why.
  bool completed = false;
  /// Human-readable reason when completed == false; empty otherwise.
  std::string failure_reason;
  /// Jobs torn down after a task exhausted max_attempts.
  int failed_jobs() const {
    int n = 0;
    for (const auto& job : jobs) n += job.failed ? 1 : 0;
    return n;
  }
  /// Discrete events the sim engine dispatched for this run (summed over
  /// trials by average_trials) — the denominator of events/sec profiling.
  std::uint64_t engine_events = 0;
  /// Max-min solver calls made by the run's compute/network models, and how
  /// many actually ran the water-filling pass (the rest were answered from
  /// the incremental solver's cache).  Summed over trials by
  /// average_trials; perf instrumentation only, never part of report JSON.
  std::uint64_t solver_calls = 0;
  std::uint64_t solver_full_solves = 0;

  const JobResult& job(std::size_t index) const {
    SMR_CHECK(index < jobs.size());
    return jobs[index];
  }

  /// Mean submission-to-finish time over all jobs (Figs. 8-9).
  SimTime mean_execution_time() const;
  /// Finish time of the last job, relative to the first submission.
  SimTime last_finish_time() const;
};

/// Element-wise mean of per-trial job results (the paper averages two
/// trials).  Trials must contain the same jobs in the same order.
RunResult average_trials(const std::vector<RunResult>& trials);

}  // namespace smr::metrics
