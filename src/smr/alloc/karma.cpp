#include "smr/alloc/karma.hpp"

#include <algorithm>
#include <sstream>

#include "smr/alloc/apportion.hpp"
#include "smr/common/error.hpp"
#include "smr/obs/decision_log.hpp"

namespace smr::alloc {

namespace {

/// Live cluster capacity: summed map + reduce targets over healthy nodes.
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

void KarmaConfig::validate() const {
  // User-facing: each field is one policy-spec option, so name it and its
  // value.
  std::ostringstream bad;
  if (!(init_credits >= 0.0)) {
    bad << "init_credits=" << init_credits << " must not be negative";
  } else if (!(donate_rate >= 0.0)) {
    bad << "donate_rate=" << donate_rate << " must not be negative";
  } else if (!(borrow_rate >= 0.0)) {
    bad << "borrow_rate=" << borrow_rate << " must not be negative";
  } else if (!(decay > 0.0 && decay <= 1.0)) {
    bad << "decay=" << decay << " must be in (0, 1]";
  }
  if (!bad.str().empty()) throw SmrError("policy 'karma': option " + bad.str());
}

KarmaAllocator::KarmaAllocator(KarmaConfig config) : config_(config) {
  config_.validate();
}

void KarmaAllocator::on_period(std::span<mapreduce::TaskTracker> trackers,
                               const mapreduce::ClusterStats& stats) {
  if (!stats.has_active_job) return;
  ++periods_;

  // Per-tenant demand (outstanding tasks), tenants in name order; every
  // tenant with an active job participates and opens a balance on first
  // sight.
  std::map<std::string, int> demand;
  for (const auto& js : stats.job_stats) {
    demand[js.tenant] += js.demand();
    balances_.try_emplace(js.tenant, config_.init_credits);
  }
  const int tenant_count = static_cast<int>(demand.size());
  if (tenant_count == 0) return;
  const int capacity = live_capacity(trackers, stats);

  // Equal entitlements (largest remainder over uniform weights).
  const std::vector<double> uniform(static_cast<std::size_t>(tenant_count), 1.0);
  const std::vector<int> entitlement = largest_remainder(capacity, uniform);

  // Donors fill the public pool with their surplus; borrowers queue up
  // with their deficits.
  struct Claim {
    const std::string* tenant;
    int entitled = 0;
    int want = 0;      // borrow request (deficit)
    int borrowed = 0;  // granted this period
    int donated = 0;
  };
  std::vector<Claim> claims;
  claims.reserve(demand.size());
  int pool = 0;
  {
    std::size_t i = 0;
    for (const auto& [tenant, d] : demand) {
      Claim claim;
      claim.tenant = &tenant;
      claim.entitled = entitlement[i++];
      if (d < claim.entitled) {
        claim.donated = claim.entitled - d;
        pool += claim.donated;
      } else {
        claim.want = d - claim.entitled;
      }
      claims.push_back(claim);
    }
  }
  const int pool_offered = pool;

  // Grant the pool one slot per round, richest balance first (name breaks
  // ties), while the borrower still wants slots and can afford the rate.
  std::vector<Claim*> borrowers;
  for (Claim& claim : claims) {
    if (claim.want > 0) borrowers.push_back(&claim);
  }
  std::stable_sort(borrowers.begin(), borrowers.end(),
                   [this](const Claim* a, const Claim* b) {
                     const double ba = balances_.at(*a->tenant);
                     const double bb = balances_.at(*b->tenant);
                     if (ba != bb) return ba > bb;
                     return *a->tenant < *b->tenant;
                   });
  bool granted_any = true;
  while (pool > 0 && granted_any) {
    granted_any = false;
    for (Claim* claim : borrowers) {
      if (pool == 0) break;
      if (claim->borrowed >= claim->want) continue;
      const double cost =
          config_.borrow_rate * static_cast<double>(claim->borrowed + 1);
      if (config_.borrow_rate > 0.0 && balances_.at(*claim->tenant) < cost) {
        continue;
      }
      ++claim->borrowed;
      --pool;
      granted_any = true;
    }
  }

  // Settle credits: borrowers pay per borrowed slot-period; donors split
  // the proceeds proportionally to their donations (only the borrowed
  // slot-periods mint credit, so donate_rate == borrow_rate conserves the
  // total balance).
  int borrowed_total = 0;
  for (const Claim& claim : claims) borrowed_total += claim.borrowed;
  for (const Claim& claim : claims) {
    if (claim.borrowed > 0) {
      const double paid = config_.borrow_rate * claim.borrowed;
      balances_[*claim.tenant] -= paid;
      burned_ += paid;
      borrowed_slot_periods_ += claim.borrowed;
    }
    if (claim.donated > 0 && borrowed_total > 0 && pool_offered > 0) {
      const double earned = config_.donate_rate *
                            static_cast<double>(borrowed_total) *
                            (static_cast<double>(claim.donated) /
                             static_cast<double>(pool_offered));
      balances_[*claim.tenant] += earned;
      minted_ += earned;
    }
    donated_slot_periods_ += claim.donated;
  }
  if (config_.decay < 1.0) {
    for (auto& [tenant, balance] : balances_) balance *= config_.decay;
  }

  // Tenant allocations -> per-job in-flight caps.  Donors are capped at
  // their demand (never binds); borrowers at entitlement + borrowed.
  caps_.assign(stats.job_stats.empty()
                   ? std::size_t{0}
                   : static_cast<std::size_t>(
                         stats.job_stats.back().job) + 1,
               -1);
  for (const Claim& claim : claims) {
    const int allocation = claim.want > 0
                               ? claim.entitled + claim.borrowed
                               : demand.at(*claim.tenant);
    // This tenant's jobs, in job-id order, weighted by their demand.
    std::vector<const mapreduce::JobStats*> jobs;
    std::vector<double> weights;
    for (const auto& js : stats.job_stats) {
      if (js.tenant != *claim.tenant) continue;
      jobs.push_back(&js);
      weights.push_back(static_cast<double>(js.demand()));
    }
    const std::vector<int> per_job = largest_remainder(allocation, weights);
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      caps_[static_cast<std::size_t>(jobs[i]->job)] = per_job[i];
    }
  }

  if (decision_log_ != nullptr) {
    obs::SlotDecision decision;
    decision.time = stats.now;
    decision.running_reduces = stats.running_reduces;
    decision.total_reduces = stats.total_reduces;
    decision.slow_start_passed = true;
    decision.action = obs::SlotAction::kHoldBalanced;
    std::ostringstream reason;
    reason << "karma: capacity=" << capacity << " tenants=" << tenant_count
           << " pool=" << pool_offered << " borrowed=" << borrowed_total;
    decision.reason = reason.str();
    decision_log_->record(std::move(decision));
  }
}

std::vector<std::pair<std::string, double>> KarmaAllocator::credit_balances()
    const {
  return {balances_.begin(), balances_.end()};
}

double KarmaAllocator::total_balance() const {
  double total = 0.0;
  for (const auto& [tenant, balance] : balances_) total += balance;
  return total;
}

}  // namespace smr::alloc
