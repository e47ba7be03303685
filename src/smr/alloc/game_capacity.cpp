#include "smr/alloc/game_capacity.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "smr/alloc/apportion.hpp"
#include "smr/common/error.hpp"
#include "smr/obs/decision_log.hpp"

namespace smr::alloc {

namespace {

int live_capacity(std::span<mapreduce::TaskTracker> trackers,
                  const mapreduce::ClusterStats& stats) {
  int capacity = 0;
  for (const auto& tracker : trackers) {
    const auto n = static_cast<std::size_t>(tracker.node());
    if (n < stats.per_node.size() &&
        (!stats.per_node[n].alive || stats.per_node[n].blacklisted)) {
      continue;
    }
    capacity += tracker.map_target() + tracker.reduce_target();
  }
  return capacity;
}

}  // namespace

void GameCapacityConfig::validate() const {
  // User-facing: each field is one policy-spec option, so name it and its
  // value.
  std::ostringstream bad;
  if (!(max_iterations >= 1)) {
    bad << "max_iterations=" << max_iterations << " must be at least 1";
  } else if (!(tolerance > 0.0)) {
    bad << "tolerance=" << tolerance << " must be positive";
  } else if (!(deadline_weight >= 0.0)) {
    bad << "deadline_weight=" << deadline_weight << " must not be negative";
  } else if (!(urgency_scale > 0.0)) {
    bad << "urgency_scale=" << urgency_scale << " must be positive";
  } else if (!(min_share >= 0)) {
    bad << "min_share=" << min_share << " must not be negative";
  }
  if (!bad.str().empty()) {
    throw SmrError("policy 'gamecapacity': option " + bad.str());
  }
}

GameCapacityAllocator::GameCapacityAllocator(GameCapacityConfig config)
    : config_(config) {
  config_.validate();
}

void GameCapacityAllocator::on_period(
    std::span<mapreduce::TaskTracker> trackers,
    const mapreduce::ClusterStats& stats) {
  if (!stats.has_active_job) return;

  // Demands and utility weights, job-id order.
  std::vector<double> demand, weight;
  demand.reserve(stats.job_stats.size());
  weight.reserve(stats.job_stats.size());
  double demand_total = 0.0;
  for (const auto& js : stats.job_stats) {
    const double d = static_cast<double>(js.demand());
    demand.push_back(d);
    double w = 1.0;
    if (config_.deadline_weight > 0.0 && js.deadline != kTimeNever) {
      const double remaining = std::max(0.0, js.deadline - stats.now);
      w += config_.deadline_weight /
           (1.0 + remaining / config_.urgency_scale);
    }
    weight.push_back(w);
    demand_total += d;
  }

  const int capacity = live_capacity(trackers, stats);
  const auto cap_table_size =
      stats.job_stats.empty()
          ? std::size_t{0}
          : static_cast<std::size_t>(stats.job_stats.back().job) + 1;

  if (demand_total <= static_cast<double>(capacity)) {
    // No scarcity: the equilibrium gives everyone their full demand, so
    // every cap is lifted (single-job runs never feel the allocator).
    caps_.assign(cap_table_size, -1);
    if (decision_log_ != nullptr) {
      obs::SlotDecision decision;
      decision.time = stats.now;
      decision.running_reduces = stats.running_reduces;
      decision.total_reduces = stats.total_reduces;
      decision.slow_start_passed = true;
      decision.action = obs::SlotAction::kHoldBalanced;
      std::ostringstream reason;
      reason << "game: uncontended demand=" << demand_total
             << " capacity=" << capacity;
      decision.reason = reason.str();
      decision_log_->record(std::move(decision));
    }
    return;
  }

  // Tatonnement: bisect the slot price λ until the best responses
  // x_j(λ) = clamp(w_j/λ − 1, 0, d_j) clear capacity.  The bracket is
  // [λ_lo → everyone demands fully, λ_hi → nobody buys], so the clearing
  // price always lies inside it.
  const auto response_sum = [&](double price) {
    double sum = 0.0;
    for (std::size_t j = 0; j < demand.size(); ++j) {
      if (demand[j] <= 0.0) continue;
      const double x = weight[j] / price - 1.0;
      sum += std::clamp(x, 0.0, demand[j]);
    }
    return sum;
  };
  double lo = 1e-9;
  double hi = 2.0 * *std::max_element(weight.begin(), weight.end());
  const double target = static_cast<double>(capacity);
  int iterations = 0;
  bool converged = false;
  double price = hi;
  while (iterations < config_.max_iterations) {
    ++iterations;
    price = 0.5 * (lo + hi);
    const double sum = response_sum(price);
    if (std::abs(sum - target) <= config_.tolerance * std::max(target, 1.0)) {
      converged = true;
      break;
    }
    if (sum > target) {
      lo = price;  // too cheap: demand exceeds capacity
    } else {
      hi = price;
    }
  }
  last_iterations_ = iterations;
  last_converged_ = converged;
  last_price_ = price;
  ++equilibria_;

  // Freeze the equilibrium responses as integer caps.
  std::vector<double> shares(demand.size(), 0.0);
  for (std::size_t j = 0; j < demand.size(); ++j) {
    if (demand[j] <= 0.0) continue;
    shares[j] = std::clamp(weight[j] / price - 1.0, 0.0, demand[j]);
  }
  const std::vector<int> granted = largest_remainder(capacity, shares);
  caps_.assign(cap_table_size, -1);
  for (std::size_t j = 0; j < stats.job_stats.size(); ++j) {
    int cap = granted[j];
    if (config_.min_share > 0 && demand[j] > 0.0) {
      cap = std::max(cap, std::min(config_.min_share,
                                   static_cast<int>(demand[j])));
    }
    caps_[static_cast<std::size_t>(stats.job_stats[j].job)] = cap;
  }

  if (decision_log_ != nullptr) {
    obs::SlotDecision decision;
    decision.time = stats.now;
    decision.running_reduces = stats.running_reduces;
    decision.total_reduces = stats.total_reduces;
    decision.slow_start_passed = true;
    decision.action = obs::SlotAction::kHoldBalanced;
    std::ostringstream reason;
    reason << "game: jobs=" << stats.job_stats.size()
           << " capacity=" << capacity << " price=" << price
           << " iters=" << iterations << " converged=" << (converged ? 1 : 0);
    decision.reason = reason.str();
    decision_log_->record(std::move(decision));
  }
}

}  // namespace smr::alloc
