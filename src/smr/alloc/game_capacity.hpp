// Game-theoretic runtime capacity allocation (after Gianniti et al.,
// arXiv:1701.04763).
//
// Each policy period the active jobs bid for the cluster's live slot
// capacity C with concave utilities u_j(x) = w_j·log(1 + x), where w_j
// rises for deadline-urgent jobs.  Against a posted price λ per slot, job
// j's best response is x_j(λ) = clamp(w_j/λ − 1, 0, d_j) (d_j its
// outstanding demand).  The allocator runs a tatonnement loop — bisecting
// λ until the best responses clear capacity (Σ x_j ≈ C) or the iteration
// budget is spent — and freezes the resulting equilibrium shares as
// per-job in-flight caps.  When Σ d_j ≤ C the game is degenerate (no
// scarcity) and every cap is lifted, so single-job runs are untouched.
//
// Deterministic by construction: job-id iteration order, fixed bisection
// bracket, no RNG.  Like Karma it never edits tracker targets.
#pragma once

#include <string>
#include <vector>

#include "smr/mapreduce/policy.hpp"

namespace smr::alloc {

struct GameCapacityConfig {
  /// Bisection budget per period.
  int max_iterations = 64;
  /// Relative capacity-clearing tolerance: stop when |Σx − C| ≤ tol·C.
  double tolerance = 1e-6;
  /// Extra utility weight for deadline-urgent jobs (0 = deadline-blind).
  double deadline_weight = 0.0;
  /// Time scale (seconds) over which a looming deadline saturates the
  /// urgency term.
  double urgency_scale = 600.0;
  /// Floor share for any job with demand (post-equilibrium bump; may
  /// overshoot C — caps are bounds, not reservations).
  int min_share = 0;

  /// Throws SmrError naming the `gamecapacity:` option at fault and its
  /// value.
  void validate() const;
};

class GameCapacityAllocator final : public mapreduce::AllocationPolicy {
 public:
  explicit GameCapacityAllocator(GameCapacityConfig config = {});

  std::string name() const override { return "GameCapacity"; }
  bool wants_heartbeat_stats() const override { return false; }
  bool wants_job_stats() const override { return true; }

  void on_period(std::span<mapreduce::TaskTracker> trackers,
                 const mapreduce::ClusterStats& stats) override;

  const std::vector<int>* job_task_caps() const override { return &caps_; }

  // --- Introspection (the convergence/termination unit tests) -----------
  const GameCapacityConfig& config() const { return config_; }
  /// Bisection iterations spent by the most recent contended period.
  int last_iterations() const { return last_iterations_; }
  /// Whether that period hit the clearing tolerance (false = stopped on
  /// the iteration budget — still a valid, feasible allocation).
  bool last_converged() const { return last_converged_; }
  /// Equilibrium slot price of the most recent contended period.
  double last_price() const { return last_price_; }
  /// Contended periods solved so far (Σd > C).
  int equilibria_computed() const { return equilibria_; }

 private:
  GameCapacityConfig config_;
  std::vector<int> caps_;  // by JobId; -1 = unlimited
  int last_iterations_ = 0;
  bool last_converged_ = true;
  double last_price_ = 0.0;
  int equilibria_ = 0;
};

}  // namespace smr::alloc
