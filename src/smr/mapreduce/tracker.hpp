// TaskTracker: the per-node agent holding the working slots.
//
// Slot semantics follow the paper exactly:
//   * The job tracker sends slot-number commands in heartbeat responses
//     (Section III-C); `set_map_target` / `set_reduce_target` model that.
//   * The slot changer applies them through the *lazy policy* (Section
//     III-D): raising a target adds free slots immediately; lowering it
//     never terminates a running task — excess slots are retired as their
//     tasks finish.  The invariant is therefore
//         actual_slots == max(target, running_tasks)
//     and a new task may launch iff running_tasks < target.
#pragma once

#include <algorithm>
#include <vector>

#include "smr/common/error.hpp"
#include "smr/common/types.hpp"

namespace smr::mapreduce {

class TaskTracker {
 public:
  TaskTracker(NodeId node, int map_target, int reduce_target)
      : node_(node), map_target_(map_target), reduce_target_(reduce_target) {
    SMR_CHECK(node >= 0);
    SMR_CHECK(map_target >= 0 && reduce_target >= 0);
  }

  NodeId node() const { return node_; }

  // --- Targets (commands from the job tracker) ------------------------
  void set_map_target(int target) {
    SMR_CHECK(target >= 0);
    map_target_ = target;
  }
  void set_reduce_target(int target) {
    SMR_CHECK(target >= 0);
    reduce_target_ = target;
  }
  int map_target() const { return map_target_; }
  int reduce_target() const { return reduce_target_; }

  // --- Blacklisting -----------------------------------------------------
  /// A blacklisted tracker keeps heartbeating and finishes its running
  /// tasks (the lazy policy never kills), but receives no new assignments
  /// and is exempt from cluster slot-target totals.  Cleared when the node
  /// recovers from a failure (a fresh tracker process).
  void set_blacklisted(bool blacklisted) { blacklisted_ = blacklisted; }
  bool blacklisted() const { return blacklisted_; }

  // --- Actual slots under the lazy policy ------------------------------
  int map_slots() const { return std::max(map_target_, running_maps()); }
  int reduce_slots() const { return std::max(reduce_target_, running_reduces()); }
  int free_map_slots() const { return std::max(0, map_target_ - running_maps()); }
  int free_reduce_slots() const { return std::max(0, reduce_target_ - running_reduces()); }

  // --- Running tasks ----------------------------------------------------
  int running_maps() const { return static_cast<int>(running_map_tasks_.size()); }
  int running_reduces() const { return static_cast<int>(running_reduce_tasks_.size()); }
  const std::vector<TaskId>& running_map_tasks() const { return running_map_tasks_; }
  const std::vector<TaskId>& running_reduce_tasks() const { return running_reduce_tasks_; }

  // Every launch and finish changes what the runtime's fluid tick sees on
  // this node; the runtime marks the node dirty at each call site.
  void launch_map(TaskId task) {
    SMR_CHECK_MSG(free_map_slots() > 0, "no free map slot on node " << node_);
    running_map_tasks_.push_back(task);
  }
  void launch_reduce(TaskId task) {
    SMR_CHECK_MSG(free_reduce_slots() > 0, "no free reduce slot on node " << node_);
    running_reduce_tasks_.push_back(task);
  }
  void finish_map(TaskId task) {
    remove(running_map_tasks_, task);
  }
  void finish_reduce(TaskId task) {
    remove(running_reduce_tasks_, task);
  }

 private:
  static void remove(std::vector<TaskId>& tasks, TaskId task) {
    auto it = std::find(tasks.begin(), tasks.end(), task);
    SMR_CHECK_MSG(it != tasks.end(), "task " << task << " not running here");
    tasks.erase(it);
  }

  NodeId node_;
  int map_target_;
  int reduce_target_;
  bool blacklisted_ = false;
  std::vector<TaskId> running_map_tasks_;
  std::vector<TaskId> running_reduce_tasks_;
};

}  // namespace smr::mapreduce
