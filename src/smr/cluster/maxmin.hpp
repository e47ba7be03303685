// Generic max-min fair allocation with multi-resource demands
// ("progressive filling" / water-filling).
//
// Each flow i consumes weight w_{i,r} units of resource r per unit of its
// own rate, and may additionally carry a per-flow rate cap.  The allocator
// raises all uncapped, unfrozen flow rates at the same pace; whenever a
// resource saturates, every flow using it freezes at the current level.
// This is the standard fluid model for fair CPU scheduling and disk
// sharing.  Production code solves its two recurring problems with their
// own bit-identical water-fills over their fixed shapes: the per-node
// compute model (cluster::ComputeModel, two resources) and the
// cluster-wide network (cluster::NetworkModel, a port topology).  For both,
// max_min_allocate() is the oracle and MaxMinSolver the counter reference.
//
// Two entry points:
//   * max_min_allocate() — the reference ("oracle") implementation.  Kept
//     deliberately simple; the property suite and the incremental solvers
//     are all validated against it.
//   * MaxMinSolver — a stateful solver for callers that re-solve the same
//     (slowly changing) problem every simulation tick.  It caches the last
//     solution and skips the water-filling pass entirely when the inputs
//     are unchanged, or when only non-binding rate caps moved (the common
//     shuffle case: caps track task backlogs while the network is the
//     actual bottleneck).  Every path is bit-for-bit identical to the
//     oracle — see docs/PERF.md for the dirtiness rules and why partial
//     per-resource re-solving was rejected.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "smr/common/types.hpp"

namespace smr::cluster {

struct ResourceUse {
  /// Index into the capacities array.
  int resource = 0;
  /// Units of that resource consumed per unit of flow rate.
  double weight = 1.0;

  friend bool operator==(const ResourceUse&, const ResourceUse&) = default;
};

struct FlowDemand {
  /// Upper bound on this flow's rate (use kNoCap for none).
  double rate_cap = 0.0;
  /// Resources this flow consumes, with weights.  Empty means the flow is
  /// only limited by its cap.
  std::vector<ResourceUse> uses;

  friend bool operator==(const FlowDemand&, const FlowDemand&) = default;
};

inline constexpr double kNoCap = -1.0;

/// Relative slack of the water-fill's saturation and cap tests: resource r
/// is saturated once at most kMaxMinEps * (capacity_r + 1) of it remains,
/// and a flow is at its cap once its rate is within kMaxMinEps * (1 + cap).
inline constexpr double kMaxMinEps = 1e-9;

/// The cap-slack rule of the incremental solvers.  After a solve that did
/// not end in the degenerate all-blocked branch, a flow's cap may move to
/// `new_cap` with every rate unchanged when the flow was frozen by a
/// saturated resource (not clamped to its cap) and `new_cap` keeps a strict
/// epsilon margin above its cached `rate`: the cap then never wins a
/// round's delta minimisation and never trips the cap-freeze test.
inline bool cap_move_is_slack(double new_cap, double rate, bool frozen_by_cap) {
  if (frozen_by_cap) return false;
  return new_cap == kNoCap || new_cap - rate > kMaxMinEps * (1.0 + new_cap);
}

/// Compute the max-min fair rates.  `capacities[r]` is the total capacity of
/// resource r (>= 0).  Returns one rate per flow (>= 0).  Weights must be
/// >= 0; zero-capacity resources freeze their users at rate 0.
std::vector<double> max_min_allocate(std::span<const double> capacities,
                                     std::span<const FlowDemand> flows);

/// Stateful incremental re-solver.  One instance per recurring problem;
/// NOT thread-safe.  Its Stats are the counters every solver reports, and
/// the differential suites use it as the reference those counters must
/// match.
class MaxMinSolver {
 public:
  struct Stats {
    /// Total solve() calls.
    std::uint64_t calls = 0;
    /// Calls answered from the cache because nothing changed.
    std::uint64_t cache_hits = 0;
    /// Calls answered from the cache because only provably non-binding
    /// rate caps changed (see solve() for the exact rule).
    std::uint64_t cap_fast_hits = 0;
    /// Calls that ran the full water-filling pass.
    std::uint64_t full_solves = 0;
  };

  /// Solve (or re-use the cached solution of) the max-min problem.  The
  /// returned reference is invalidated by the next solve() call.
  ///
  /// Results are bit-identical to max_min_allocate(capacities, flows) in
  /// every case:
  ///   1. Inputs identical to the previous call — return the cached rates.
  ///   2. Same capacities/uses and only rate caps changed, and every
  ///      changed cap passes cap_move_is_slack() — the water-filling delta
  ///      sequence is provably unchanged, so the cached rates are returned.
  ///   3. Anything else — full re-solve (identical arithmetic to the
  ///      oracle, with scratch buffers reused across calls).
  const std::vector<double>& solve(std::span<const double> capacities,
                                   std::span<const FlowDemand> flows);

  const Stats& stats() const { return stats_; }

  /// Drop the cached solution (tests; also useful after mutating shared
  /// state the solver cannot see).
  void invalidate() { valid_ = false; }

 private:
  bool cache_usable(std::span<const double> capacities,
                    std::span<const FlowDemand> flows, bool& caps_only) const;
  void waterfill();

  // Cached problem + solution.
  std::vector<double> capacities_;
  std::vector<FlowDemand> flows_;
  std::vector<double> rates_;
  /// frozen_by_cap_[i]: flow i's final rate equals (was clamped to) its
  /// cap, so any cap change invalidates it.  Resource-frozen flows admit
  /// the cap-slack fast path instead.
  std::vector<bool> frozen_by_cap_;
  /// The last solve hit the degenerate all-blocked branch; be conservative
  /// and never fast-path on top of it.
  bool degenerate_ = false;
  bool valid_ = false;

  // Water-filling scratch (reused across solves to avoid reallocation).
  std::vector<double> remaining_;
  std::vector<double> saturated_below_;
  std::vector<double> sumw_;
  std::vector<std::uint32_t> active_;

  Stats stats_;
};

}  // namespace smr::cluster
