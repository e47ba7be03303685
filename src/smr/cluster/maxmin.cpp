#include "smr/cluster/maxmin.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "smr/common/error.hpp"

namespace smr::cluster {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kEps = kMaxMinEps;
}  // namespace

std::vector<double> max_min_allocate(std::span<const double> capacities,
                                     std::span<const FlowDemand> flows) {
  const std::size_t nr = capacities.size();
  const std::size_t nf = flows.size();

  std::vector<double> remaining(capacities.begin(), capacities.end());
  // Saturation must be judged relative to the resource's scale: capacities
  // are bytes/s (~1e8), so absolute epsilons never trigger.
  std::vector<double> saturated_below(nr);
  for (std::size_t r = 0; r < nr; ++r) {
    SMR_CHECK_MSG(remaining[r] >= 0.0, "negative capacity for resource " << r);
    saturated_below[r] = kEps * (remaining[r] + 1.0);
  }
  for (const auto& flow : flows) {
    for (const auto& use : flow.uses) {
      SMR_CHECK_MSG(use.resource >= 0 && static_cast<std::size_t>(use.resource) < nr,
                    "flow uses unknown resource " << use.resource);
      SMR_CHECK(use.weight >= 0.0);
    }
  }

  std::vector<double> rates(nf, 0.0);
  std::vector<bool> frozen(nf, false);

  // A flow with a zero cap, or touching an (effectively) empty resource with
  // positive weight, can never move; freeze it up front.
  auto resource_empty = [&](int r) {
    const auto idx = static_cast<std::size_t>(r);
    return remaining[idx] <= saturated_below[idx];
  };
  std::size_t active = 0;
  for (std::size_t i = 0; i < nf; ++i) {
    const auto& flow = flows[i];
    bool dead = (flow.rate_cap != kNoCap && flow.rate_cap <= 0.0);
    for (const auto& use : flow.uses) {
      if (use.weight > 0.0 && resource_empty(use.resource)) dead = true;
    }
    frozen[i] = dead;
    if (!dead) ++active;
  }

  while (active > 0) {
    // Per-resource total weight over active flows.
    std::vector<double> sumw(nr, 0.0);
    double delta = kInf;
    for (std::size_t i = 0; i < nf; ++i) {
      if (frozen[i]) continue;
      const auto& flow = flows[i];
      if (flow.rate_cap != kNoCap) {
        delta = std::min(delta, flow.rate_cap - rates[i]);
      }
      for (const auto& use : flow.uses) {
        sumw[static_cast<std::size_t>(use.resource)] += use.weight;
      }
    }
    for (std::size_t r = 0; r < nr; ++r) {
      if (sumw[r] > 0.0) delta = std::min(delta, remaining[r] / sumw[r]);
    }
    SMR_CHECK_MSG(std::isfinite(delta),
                  "max_min_allocate: unbounded flow (no cap and no finite resource)");
    delta = std::max(delta, 0.0);

    for (std::size_t i = 0; i < nf; ++i) {
      if (!frozen[i]) rates[i] += delta;
    }
    for (std::size_t r = 0; r < nr; ++r) {
      remaining[r] -= delta * sumw[r];
      if (remaining[r] < 0.0) remaining[r] = 0.0;  // numerical guard
    }

    // Freeze flows that hit their cap or a saturated resource.
    std::size_t still_active = 0;
    for (std::size_t i = 0; i < nf; ++i) {
      if (frozen[i]) continue;
      const auto& flow = flows[i];
      bool freeze = false;
      if (flow.rate_cap != kNoCap && rates[i] >= flow.rate_cap - kEps * (1.0 + flow.rate_cap)) {
        rates[i] = flow.rate_cap;
        freeze = true;
      }
      for (const auto& use : flow.uses) {
        if (use.weight > 0.0 && resource_empty(use.resource)) freeze = true;
      }
      frozen[i] = freeze;
      if (!freeze) ++still_active;
    }
    // Progress guarantee: if nothing froze this round, every active flow
    // must have been capless and untouched by any saturated resource, which
    // contradicts delta being finite unless delta saturated something.
    SMR_CHECK_MSG(still_active < active || delta == 0.0,
                  "max_min_allocate failed to make progress");
    if (still_active == active && delta == 0.0) {
      // Degenerate: all remaining flows blocked at zero headroom.
      for (std::size_t i = 0; i < nf; ++i) frozen[i] = true;
      still_active = 0;
    }
    active = still_active;
  }
  return rates;
}

// ---------------------------------------------------------------------------
// MaxMinSolver — incremental re-solver.
//
// Every path below must stay bit-for-bit identical to max_min_allocate();
// the property suite (tests/cluster/maxmin_property_test.cpp) checks the
// equality over randomized mutation sequences.
// ---------------------------------------------------------------------------

bool MaxMinSolver::cache_usable(std::span<const double> capacities,
                                std::span<const FlowDemand> flows,
                                bool& caps_only) const {
  caps_only = false;
  if (!valid_) return false;
  if (capacities.size() != capacities_.size() || flows.size() != flows_.size()) {
    return false;
  }
  if (!std::equal(capacities.begin(), capacities.end(), capacities_.begin())) {
    return false;
  }
  for (std::size_t i = 0; i < flows.size(); ++i) {
    if (flows[i].uses != flows_[i].uses) return false;
    const double cap = flows[i].rate_cap;
    if (cap == flows_[i].rate_cap) continue;
    // A rate cap moved.  The degenerate all-blocked ending gives no
    // guarantee about the delta sequence, so it disables this path.
    if (degenerate_ || !cap_move_is_slack(cap, rates_[i], frozen_by_cap_[i])) {
      return false;
    }
    caps_only = true;
  }
  return true;
}

const std::vector<double>& MaxMinSolver::solve(std::span<const double> capacities,
                                               std::span<const FlowDemand> flows) {
  ++stats_.calls;
  bool caps_only = false;
  if (cache_usable(capacities, flows, caps_only)) {
    if (caps_only) {
      ++stats_.cap_fast_hits;
      // Keep the cached problem in sync so the next call compares against
      // the caps the caller actually passed.
      for (std::size_t i = 0; i < flows.size(); ++i) {
        flows_[i].rate_cap = flows[i].rate_cap;
      }
    } else {
      ++stats_.cache_hits;
    }
    return rates_;
  }

  ++stats_.full_solves;
  capacities_.assign(capacities.begin(), capacities.end());
  // Element-wise copy so each cached FlowDemand's `uses` buffer is reused.
  flows_.resize(flows.size());
  for (std::size_t i = 0; i < flows.size(); ++i) {
    flows_[i].rate_cap = flows[i].rate_cap;
    flows_[i].uses.assign(flows[i].uses.begin(), flows[i].uses.end());
  }
  valid_ = false;  // a throwing solve must not leave a half-written cache
  waterfill();
  valid_ = true;
  return rates_;
}

void MaxMinSolver::waterfill() {
  const std::size_t nr = capacities_.size();
  const std::size_t nf = flows_.size();

  rates_.assign(nf, 0.0);
  frozen_by_cap_.assign(nf, false);
  degenerate_ = false;

  remaining_.assign(capacities_.begin(), capacities_.end());
  saturated_below_.resize(nr);
  for (std::size_t r = 0; r < nr; ++r) {
    SMR_CHECK_MSG(remaining_[r] >= 0.0, "negative capacity for resource " << r);
    saturated_below_[r] = kEps * (remaining_[r] + 1.0);
  }
  for (const auto& flow : flows_) {
    for (const auto& use : flow.uses) {
      SMR_CHECK_MSG(use.resource >= 0 && static_cast<std::size_t>(use.resource) < nr,
                    "flow uses unknown resource " << use.resource);
      SMR_CHECK(use.weight >= 0.0);
    }
  }

  auto resource_empty = [&](int r) {
    const auto idx = static_cast<std::size_t>(r);
    return remaining_[idx] <= saturated_below_[idx];
  };

  // Active flow indices, ascending — the same visit order as the oracle's
  // skip-the-frozen scans, so every floating-point accumulation happens in
  // the identical sequence.
  active_.clear();
  for (std::size_t i = 0; i < nf; ++i) {
    const auto& flow = flows_[i];
    bool dead = (flow.rate_cap != kNoCap && flow.rate_cap <= 0.0);
    if (dead) frozen_by_cap_[i] = true;
    for (const auto& use : flow.uses) {
      if (use.weight > 0.0 && resource_empty(use.resource)) dead = true;
    }
    if (!dead) active_.push_back(static_cast<std::uint32_t>(i));
  }

  sumw_.resize(nr);
  while (!active_.empty()) {
    std::fill(sumw_.begin(), sumw_.end(), 0.0);
    double delta = kInf;
    for (const std::uint32_t i : active_) {
      const auto& flow = flows_[i];
      if (flow.rate_cap != kNoCap) {
        delta = std::min(delta, flow.rate_cap - rates_[i]);
      }
      for (const auto& use : flow.uses) {
        sumw_[static_cast<std::size_t>(use.resource)] += use.weight;
      }
    }
    for (std::size_t r = 0; r < nr; ++r) {
      if (sumw_[r] > 0.0) delta = std::min(delta, remaining_[r] / sumw_[r]);
    }
    SMR_CHECK_MSG(std::isfinite(delta),
                  "max_min_allocate: unbounded flow (no cap and no finite resource)");
    delta = std::max(delta, 0.0);

    for (const std::uint32_t i : active_) rates_[i] += delta;
    for (std::size_t r = 0; r < nr; ++r) {
      remaining_[r] -= delta * sumw_[r];
      if (remaining_[r] < 0.0) remaining_[r] = 0.0;  // numerical guard
    }

    // Freeze flows that hit their cap or a saturated resource; stable
    // in-place compaction keeps `active_` ascending.
    const std::size_t before = active_.size();
    std::size_t out = 0;
    for (const std::uint32_t i : active_) {
      const auto& flow = flows_[i];
      bool freeze = false;
      if (flow.rate_cap != kNoCap &&
          rates_[i] >= flow.rate_cap - kEps * (1.0 + flow.rate_cap)) {
        rates_[i] = flow.rate_cap;
        frozen_by_cap_[i] = true;
        freeze = true;
      }
      for (const auto& use : flow.uses) {
        if (use.weight > 0.0 && resource_empty(use.resource)) freeze = true;
      }
      if (!freeze) active_[out++] = i;
    }
    SMR_CHECK_MSG(out < before || delta == 0.0,
                  "max_min_allocate failed to make progress");
    if (out == before && delta == 0.0) {
      // Degenerate: all remaining flows blocked at zero headroom.
      degenerate_ = true;
      active_.clear();
    } else {
      active_.resize(out);
    }
  }
}

}  // namespace smr::cluster
