#include "smr/alloc/hybrid_job_driven.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "smr/alloc/apportion.hpp"
#include "smr/common/error.hpp"
#include "smr/obs/decision_log.hpp"

namespace smr::alloc {

void HybridJobDrivenConfig::validate() const {
  if (!(max_factor >= 1.0)) {
    std::ostringstream bad;
    bad << "policy 'hybridjobdriven': option max_factor=" << max_factor
        << " must be at least 1";
    throw SmrError(bad.str());
  }
}

HybridJobDrivenAllocator::HybridJobDrivenAllocator(HybridJobDrivenConfig config)
    : config_(config) {
  config_.validate();
}

void HybridJobDrivenAllocator::on_start(
    std::span<mapreduce::TaskTracker> trackers) {
  initial_map_.clear();
  initial_reduce_.clear();
  for (const auto& tracker : trackers) {
    initial_map_.push_back(tracker.map_target());
    initial_reduce_.push_back(tracker.reduce_target());
  }
}

std::vector<int> HybridJobDrivenAllocator::place(
    int total, const std::vector<double>& weights,
    const std::vector<int>& ceiling) const {
  std::vector<int> result = largest_remainder(total, weights);
  // Clip to the ceilings and re-spread the surplus over nodes with
  // headroom, by the same weights; each pass either clips nobody new or
  // strictly shrinks the surplus, so at most nodes-many passes run.
  for (std::size_t pass = 0; pass < result.size(); ++pass) {
    int surplus = 0;
    std::vector<double> room_weights(weights.size(), 0.0);
    for (std::size_t n = 0; n < result.size(); ++n) {
      if (result[n] > ceiling[n]) {
        surplus += result[n] - ceiling[n];
        result[n] = ceiling[n];
      } else if (result[n] < ceiling[n]) {
        room_weights[n] = weights[n] > 0.0 ? weights[n] : 1.0;
      }
    }
    if (surplus == 0) break;
    const std::vector<int> extra = largest_remainder(surplus, room_weights);
    bool placed = false;
    for (std::size_t n = 0; n < result.size(); ++n) {
      if (extra[n] > 0) {
        result[n] += extra[n];
        placed = true;
      }
    }
    if (!placed) break;  // everywhere at ceiling: drop the surplus
  }
  return result;
}

void HybridJobDrivenAllocator::on_period(
    std::span<mapreduce::TaskTracker> trackers,
    const mapreduce::ClusterStats& stats) {
  if (!stats.has_active_job) return;
  if (initial_map_.size() < trackers.size()) {
    on_start(trackers);  // defensive: on_start missed (tests driving directly)
  }

  // Live nodes and cluster totals (dead/blacklisted nodes keep their
  // current targets and drop out of the apportionment).
  std::vector<std::size_t> live;
  int total_map = 0;
  int total_reduce = 0;
  for (std::size_t n = 0; n < trackers.size(); ++n) {
    const auto& node = stats.per_node[n];
    if (!node.alive || node.blacklisted) continue;
    live.push_back(n);
    total_map += initial_map_[n];
    total_reduce += initial_reduce_[n];
  }
  if (live.empty()) return;

  // Map weights: pending local input.  Reduce weights: map output already
  // on the node.  All-zero vectors fall back to uniform (initial layout).
  std::vector<double> map_weight(live.size(), 0.0);
  std::vector<double> reduce_weight(live.size(), 0.0);
  std::vector<int> map_ceiling(live.size(), 0);
  std::vector<int> reduce_ceiling(live.size(), 0);
  double map_sum = 0.0;
  double reduce_sum = 0.0;
  for (std::size_t i = 0; i < live.size(); ++i) {
    const auto& node = stats.per_node[live[i]];
    map_weight[i] = node.local_pending_input;
    reduce_weight[i] = node.cum_map_output;
    map_sum += map_weight[i];
    reduce_sum += reduce_weight[i];
    map_ceiling[i] = std::max(
        1, static_cast<int>(std::ceil(config_.max_factor *
                                      initial_map_[live[i]])));
    reduce_ceiling[i] = std::max(
        1, static_cast<int>(std::ceil(config_.max_factor *
                                      initial_reduce_[live[i]])));
  }
  if (map_sum <= 0.0) {
    for (std::size_t i = 0; i < live.size(); ++i) {
      map_weight[i] = static_cast<double>(initial_map_[live[i]]);
    }
  }
  if (reduce_sum <= 0.0) {
    for (std::size_t i = 0; i < live.size(); ++i) {
      reduce_weight[i] = static_cast<double>(initial_reduce_[live[i]]);
    }
  }

  const std::vector<int> map_place = place(total_map, map_weight, map_ceiling);
  const std::vector<int> reduce_place =
      place(total_reduce, reduce_weight, reduce_ceiling);

  int moved = 0;
  for (std::size_t i = 0; i < live.size(); ++i) {
    auto& tracker = trackers[live[i]];
    moved += std::abs(tracker.map_target() - map_place[i]) +
             std::abs(tracker.reduce_target() - reduce_place[i]);
    tracker.set_map_target(map_place[i]);
    tracker.set_reduce_target(reduce_place[i]);
  }
  slots_moved_ += moved;

  if (decision_log_ != nullptr) {
    obs::SlotDecision decision;
    decision.time = stats.now;
    decision.running_reduces = stats.running_reduces;
    decision.total_reduces = stats.total_reduces;
    decision.slow_start_passed = true;
    decision.action = obs::SlotAction::kHoldBalanced;
    std::ostringstream reason;
    reason << "placement: moved=" << moved << " live_nodes=" << live.size()
           << " map_total=" << total_map << " reduce_total=" << total_reduce;
    decision.reason = reason.str();
    decision_log_->record(std::move(decision));
  }
}

}  // namespace smr::alloc
