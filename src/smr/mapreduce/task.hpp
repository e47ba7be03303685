// Runtime state of map and reduce tasks (fluid task model).
#pragma once

#include "smr/common/types.hpp"

namespace smr::mapreduce {

enum class MapPhase { kMapping, kCombining, kSpilling, kDone };
enum class ReducePhase { kShuffling, kSorting, kReducing, kDone };

/// Sentinel progress threshold meaning "this attempt will not be failed by
/// the fault injector" (progress() never exceeds 1.0).
inline constexpr double kNeverFail = 2.0;

struct MapTask {
  TaskId id = kInvalidTask;
  JobId job = kInvalidJob;
  int split_index = -1;

  /// Node the task runs on; kInvalidNode while pending.
  NodeId node = kInvalidNode;
  /// Whether the input split has a replica on `node`.
  bool local = true;
  /// For non-local tasks: the replica node the split is read from.
  NodeId src_node = kInvalidNode;

  MapPhase phase = MapPhase::kMapping;
  Bytes input_size = 0;
  Bytes output_size = 0;
  /// Pre-combine output volume; 0 when the job has no combiner.
  Bytes combine_total = 0;

  /// Progress within the current phase, in bytes of that phase's unit
  /// (input bytes while mapping, output bytes while spilling).
  double phase_done = 0.0;

  /// Per-task multiplicative cost factor (~1.0; trial jitter).
  double cost_factor = 1.0;

  /// Fault injection: the current attempt fails once progress() passes this
  /// threshold (kNeverFail disables; redrawn per attempt at launch).
  double fail_at_progress = kNeverFail;
  /// Failed attempts of this task so far (speculative shadows count against
  /// their primary); max_attempts exhausts the owning job.
  int failed_attempts = 0;

  SimTime start_time = kTimeNever;
  SimTime finish_time = kTimeNever;

  bool running() const { return node != kInvalidNode && phase != MapPhase::kDone; }
  double phase_total() const {
    switch (phase) {
      case MapPhase::kMapping: return static_cast<double>(input_size);
      case MapPhase::kCombining: return static_cast<double>(combine_total);
      default: return static_cast<double>(output_size);
    }
  }
  double phase_remaining() const { return phase_total() - phase_done; }

  /// 0..1 overall progress (half weight per sub-phase).
  double progress() const;
};

struct ReduceTask {
  TaskId id = kInvalidTask;
  JobId job = kInvalidJob;
  int partition = -1;

  NodeId node = kInvalidNode;
  ReducePhase phase = ReducePhase::kShuffling;

  /// Total bytes this task will shuffle (uniform-partition assumption).
  Bytes partition_size = 0;

  /// Bytes of this partition already produced by finished map tasks
  /// (accumulates even before the task is scheduled).
  double available = 0.0;
  /// Bytes fetched so far; invariant fetched <= available.
  double fetched = 0.0;

  /// Progress within SORT / REDUCE phases (bytes merged / reduced).
  double phase_done = 0.0;

  double cost_factor = 1.0;

  /// Fault injection (see MapTask::fail_at_progress).
  double fail_at_progress = kNeverFail;
  int failed_attempts = 0;

  SimTime start_time = kTimeNever;
  SimTime shuffle_end_time = kTimeNever;
  SimTime finish_time = kTimeNever;

  bool running() const { return node != kInvalidNode && phase != ReducePhase::kDone; }
  double backlog() const { return available - fetched; }

  /// 0..1 overall progress, Hadoop-style: 1/3 shuffle + 1/3 sort + 1/3 reduce.
  double progress() const;
};

}  // namespace smr::mapreduce
