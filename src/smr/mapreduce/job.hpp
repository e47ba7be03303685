// A submitted MapReduce job and its runtime bookkeeping.
#pragma once

#include <string>
#include <vector>

#include "smr/common/types.hpp"
#include "smr/dfs/block_store.hpp"
#include "smr/mapreduce/job_spec.hpp"
#include "smr/mapreduce/task.hpp"

namespace smr::mapreduce {

struct Job {
  JobId id = kInvalidJob;
  JobSpec spec;
  dfs::FileId input_file = dfs::kInvalidFile;

  std::vector<MapTask> maps;
  std::vector<ReduceTask> reduces;

  SimTime submit_time = kTimeNever;
  SimTime start_time = kTimeNever;      // first task launch
  SimTime maps_done_time = kTimeNever;  // the synchronisation barrier
  SimTime finish_time = kTimeNever;

  /// Absolute completion deadline (submit_time + spec.relative_deadline;
  /// kTimeNever when the spec carries no SLO).  The DeadlineScheduler
  /// orders active jobs by this value.
  SimTime deadline = kTimeNever;

  int maps_assigned = 0;
  int maps_finished = 0;
  int reduces_assigned = 0;
  int reduces_finished = 0;

  /// Set when a task of this job exhausted max_attempts: the job was torn
  /// down (running attempts cancelled, pending tasks never scheduled) and
  /// finish_time records the teardown instant, not a success.
  bool failed = false;
  std::string failure_reason;

  /// Delay-scheduling state: consecutive slot offers this job declined
  /// because the offering node held none of its pending splits.
  int locality_skips = 0;

  // Cumulative data counters feeding the heartbeat statistics (Section III-C:
  // map input processing rate, map output rate, shuffle rate).
  double map_input_processed = 0.0;  // fluid: advances while maps run
  double map_output_produced = 0.0;  // jumps when a map task completes
  double bytes_shuffled = 0.0;       // fluid

  bool started() const { return start_time != kTimeNever; }
  bool maps_all_finished() const {
    return maps_finished == static_cast<int>(maps.size());
  }
  bool finished() const { return finish_time != kTimeNever; }
  int maps_pending() const {
    return static_cast<int>(maps.size()) - maps_assigned;
  }
  int reduces_pending() const {
    return static_cast<int>(reduces.size()) - reduces_assigned;
  }
  double map_completion_fraction() const {
    return maps.empty() ? 1.0
                        : static_cast<double>(maps_finished) /
                              static_cast<double>(maps.size());
  }

  /// The slice of one kind's tasks whose progress the position does not
  /// already fix.  Every task below `done` is kDone (progress 1.0); no task
  /// at or above `hi` has ever run, so each still weighs its submit-time
  /// progress: +0.0, or a constant for an empty phase, which submit() keeps
  /// below `hi`.  `done` advances at completion and drops to a requeued
  /// map's index; `hi` rises at a primary's launch.
  struct TaskWindow {
    int done = 0;
    int hi = 0;
  };
  TaskWindow map_window;
  TaskWindow reduce_window;

  /// Map progress 0..1 (mean task progress, Hadoop-style), bit for bit the
  /// in-order sum over every task: done leading 1.0 terms sum to exactly
  /// done, and a +0.0 tail leaves a non-negative sum unchanged.
  double map_progress() const;
  /// Reduce progress 0..1, the same way.
  double reduce_progress() const;
};

}  // namespace smr::mapreduce
