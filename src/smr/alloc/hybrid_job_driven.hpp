// Hybrid job-driven slot placement (after arXiv:1808.08040).
//
// Instead of capping jobs, this allocator *moves* the cluster's slot
// targets toward the data: every policy period the cluster-total map
// target is re-apportioned over the live nodes proportionally to the
// input bytes of pending map splits with a local replica
// (NodeStats::local_pending_input — job-driven map placement), and the
// cluster-total reduce target proportionally to the map output bytes
// already produced on each node (cum_map_output — locality-aware reduce
// assignment: reducers fetch least over the network where the most map
// output already lives).  Per-node targets are clamped to max_factor ×
// the node's initial target, with the clipped surplus re-spread over the
// unclamped nodes; when a weight vector is all-zero (no pending maps, no
// map output yet) the initial uniform targets are restored.  Totals are
// preserved, so the cluster never gains or loses capacity — slots only
// migrate.  Deterministic: node-order iteration, largest-remainder
// apportionment, no RNG.
#pragma once

#include <string>
#include <vector>

#include "smr/mapreduce/policy.hpp"

namespace smr::alloc {

struct HybridJobDrivenConfig {
  /// Per-node target ceiling, as a multiple of the node's initial target.
  double max_factor = 3.0;

  /// Throws SmrError naming the `hybridjobdriven:` option at fault and its
  /// value.
  void validate() const;
};

class HybridJobDrivenAllocator final : public mapreduce::AllocationPolicy {
 public:
  explicit HybridJobDrivenAllocator(HybridJobDrivenConfig config = {});

  std::string name() const override { return "HybridJobDriven"; }
  bool wants_heartbeat_stats() const override { return false; }
  bool wants_placement_stats() const override { return true; }

  void on_start(std::span<mapreduce::TaskTracker> trackers) override;
  void on_period(std::span<mapreduce::TaskTracker> trackers,
                 const mapreduce::ClusterStats& stats) override;

  // --- Introspection ----------------------------------------------------
  const HybridJobDrivenConfig& config() const { return config_; }
  /// Slot-target moves applied so far (map + reduce, absolute deltas).
  long long slots_moved() const { return slots_moved_; }

 private:
  /// Apportion `total` over the live nodes by `weights` with per-node
  /// ceilings, re-spreading any clipped surplus.
  std::vector<int> place(int total, const std::vector<double>& weights,
                         const std::vector<int>& ceiling) const;

  HybridJobDrivenConfig config_;
  std::vector<int> initial_map_;     // by node
  std::vector<int> initial_reduce_;  // by node
  long long slots_moved_ = 0;
};

}  // namespace smr::alloc
