// Property tests for the max-min allocator, and a differential suite that
// drives MaxMinSolver through randomized mutation sequences checking every
// answer bit-for-bit against the max_min_allocate oracle.
//
// Properties checked on random instances:
//   * feasibility: no resource over capacity, no flow over its cap,
//     no negative rate;
//   * max-min fairness: every flow is either at its cap or uses at least
//     one saturated resource (otherwise its rate could be raised, which
//     contradicts max-min optimality);
//   * the solver's fast paths (exact-repeat and cap-slack) never diverge
//     from a fresh oracle solve — not even in the last bit.
#include "smr/cluster/maxmin.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "smr/common/error.hpp"
#include "smr/common/rng.hpp"

namespace smr::cluster {
namespace {

// Mirrors the allocator's internal saturation threshold: resource r counts
// as saturated when less than kEps * (1 + capacity) remains.
constexpr double kEps = 1e-9;

struct Problem {
  std::vector<double> capacities;
  std::vector<FlowDemand> flows;
};

bool bounded_by_use(const FlowDemand& flow) {
  for (const ResourceUse& use : flow.uses) {
    if (use.weight > 0.0) return true;
  }
  return false;
}

Problem random_problem(Rng& rng) {
  Problem p;
  const int resources = static_cast<int>(rng.uniform_int(1, 6));
  const int flows = static_cast<int>(rng.uniform_int(0, 12));
  p.capacities.resize(static_cast<std::size_t>(resources));
  for (double& c : p.capacities) {
    // ~10% zero-capacity resources to exercise the freeze-at-zero edge.
    c = rng.uniform() < 0.1 ? 0.0 : rng.uniform(0.1, 1000.0);
  }
  p.flows.resize(static_cast<std::size_t>(flows));
  for (FlowDemand& flow : p.flows) {
    // ~15% capped flows, ~10% use-less (cap-only) flows.
    flow.rate_cap = rng.uniform() < 0.15 ? rng.uniform(0.0, 200.0) : kNoCap;
    const int uses = rng.uniform() < 0.1 ? 0 : static_cast<int>(rng.uniform_int(1, 3));
    for (int u = 0; u < uses; ++u) {
      ResourceUse use;
      use.resource = static_cast<int>(rng.uniform_int(0, resources - 1));
      use.weight = rng.uniform() < 0.1 ? 0.0 : rng.uniform(0.01, 4.0);
      flow.uses.push_back(use);
    }
    // The allocator requires every flow bounded: a cap, or at least one
    // positive-weight use.  Cap the unbounded ones.
    if (flow.rate_cap == kNoCap && !bounded_by_use(flow)) {
      flow.rate_cap = rng.uniform(0.0, 200.0);
    }
  }
  return p;
}

void check_feasible_and_maxmin(const Problem& p, const std::vector<double>& rates) {
  ASSERT_EQ(rates.size(), p.flows.size());
  std::vector<double> used(p.capacities.size(), 0.0);
  for (std::size_t i = 0; i < p.flows.size(); ++i) {
    ASSERT_GE(rates[i], 0.0);
    if (p.flows[i].rate_cap != kNoCap) {
      ASSERT_LE(rates[i], p.flows[i].rate_cap * (1.0 + 1e-12) + 1e-12);
    }
    for (const ResourceUse& use : p.flows[i].uses) {
      used[static_cast<std::size_t>(use.resource)] += rates[i] * use.weight;
    }
  }
  // Conservation: consumption never exceeds capacity (beyond fp slop
  // proportional to the number of additions).
  for (std::size_t r = 0; r < p.capacities.size(); ++r) {
    ASSERT_LE(used[r], p.capacities[r] + 1e-6 * (1.0 + p.capacities[r]))
        << "resource " << r << " over capacity";
  }
  // Max-min: a flow below its cap must touch a saturated resource, or have
  // no positive-weight use at all and no cap (the unbounded-degenerate
  // case, where the allocator freezes everything at 0).
  for (std::size_t i = 0; i < p.flows.size(); ++i) {
    const double cap = p.flows[i].rate_cap;
    if (cap != kNoCap && rates[i] >= cap - kEps * (1.0 + cap)) continue;
    bool has_weighted_use = false;
    bool touches_saturated = false;
    for (const ResourceUse& use : p.flows[i].uses) {
      if (use.weight <= 0.0) continue;
      has_weighted_use = true;
      const auto r = static_cast<std::size_t>(use.resource);
      if (p.capacities[r] - used[r] <= 1e-6 * (1.0 + p.capacities[r])) {
        touches_saturated = true;
      }
    }
    if (has_weighted_use) {
      ASSERT_TRUE(touches_saturated)
          << "flow " << i << " is below its cap (" << rates[i]
          << ") but uses no saturated resource — rate could be raised";
    }
  }
}

TEST(MaxMinProperty, RandomInstancesAreFeasibleAndMaxMin) {
  Rng rng(0xfeedULL);
  for (int trial = 0; trial < 1000; ++trial) {
    const Problem p = random_problem(rng);
    const auto rates = max_min_allocate(p.capacities, p.flows);
    SCOPED_TRACE("trial " + std::to_string(trial));
    check_feasible_and_maxmin(p, rates);
  }
}

TEST(MaxMinProperty, ZeroCapacityFreezesUsersAtZero) {
  const std::vector<double> caps{0.0, 100.0};
  std::vector<FlowDemand> flows(2);
  flows[0].rate_cap = kNoCap;
  flows[0].uses = {{0, 1.0}, {1, 1.0}};
  flows[1].rate_cap = kNoCap;
  flows[1].uses = {{1, 1.0}};
  const auto rates = max_min_allocate(caps, flows);
  EXPECT_EQ(rates[0], 0.0);
  EXPECT_DOUBLE_EQ(rates[1], 100.0);
}

TEST(MaxMinProperty, EmptyUsesWithCapStopsAtCap) {
  const std::vector<double> caps{50.0};
  std::vector<FlowDemand> flows(1);
  flows[0].rate_cap = 7.5;
  const auto rates = max_min_allocate(caps, flows);
  EXPECT_DOUBLE_EQ(rates[0], 7.5);
}

TEST(MaxMinProperty, ZeroWeightUseDoesNotConsume) {
  const std::vector<double> caps{10.0};
  std::vector<FlowDemand> flows(2);
  flows[0].rate_cap = 3.0;
  flows[0].uses = {{0, 0.0}};  // weightless: only the cap binds
  flows[1].rate_cap = kNoCap;
  flows[1].uses = {{0, 1.0}};
  const auto rates = max_min_allocate(caps, flows);
  EXPECT_DOUBLE_EQ(rates[0], 3.0);
  EXPECT_DOUBLE_EQ(rates[1], 10.0);
}

// Differential harness: every solve() answer must equal a fresh oracle run
// bit-for-bit, across mutation patterns chosen to hit all three solver
// paths (exact repeat, cap-slack fast path, full re-solve).
class SolverDifferential {
 public:
  explicit SolverDifferential(Rng& rng) : rng_(&rng), problem_(random_problem(rng)) {}

  void check_once() {
    const std::vector<double> expected =
        max_min_allocate(problem_.capacities, problem_.flows);
    const std::vector<double>& actual =
        solver_.solve(problem_.capacities, problem_.flows);
    ASSERT_EQ(actual.size(), expected.size());
    for (std::size_t i = 0; i < expected.size(); ++i) {
      // Bitwise comparison: 0.0 == -0.0 would pass EXPECT_EQ, so compare
      // through memcmp-equivalent double equality + signbit.
      ASSERT_EQ(actual[i], expected[i]) << "flow " << i;
      ASSERT_EQ(std::signbit(actual[i]), std::signbit(expected[i])) << "flow " << i;
    }
  }

  void mutate() {
    const double which = rng_->uniform();
    if (which < 0.25) {
      // Repeat unchanged (exact cache hit path).
      return;
    }
    if (which < 0.55 && !problem_.flows.empty()) {
      // Move a random flow's cap only — sometimes slack, sometimes binding.
      // Dropping the cap entirely is only legal when a use bounds the flow.
      FlowDemand& flow =
          problem_.flows[static_cast<std::size_t>(rng_->uniform_int(
              0, static_cast<std::int64_t>(problem_.flows.size()) - 1))];
      flow.rate_cap = rng_->uniform() < 0.3 && bounded_by_use(flow)
                          ? kNoCap
                          : rng_->uniform(0.0, 400.0);
      return;
    }
    if (which < 0.75 && !problem_.capacities.empty()) {
      // Nudge a capacity (always a full re-solve).
      problem_.capacities[static_cast<std::size_t>(rng_->uniform_int(
          0, static_cast<std::int64_t>(problem_.capacities.size()) - 1))] =
          rng_->uniform(0.0, 1000.0);
      return;
    }
    // Fresh problem (shape change).
    problem_ = random_problem(*rng_);
  }

  const MaxMinSolver::Stats& stats() const { return solver_.stats(); }

 private:
  Rng* rng_;
  Problem problem_;
  MaxMinSolver solver_;
};

TEST(MaxMinSolverDifferential, RandomMutationSequencesMatchOracleBitwise) {
  Rng rng(0xa110cULL);
  int total_checks = 0;
  for (int sequence = 0; sequence < 50; ++sequence) {
    SolverDifferential diff(rng);
    for (int step = 0; step < 40; ++step) {
      SCOPED_TRACE("sequence " + std::to_string(sequence) + " step " +
                   std::to_string(step));
      diff.check_once();
      ++total_checks;
      diff.mutate();
    }
    // Every path should be reachable across the suite; assert per-sequence
    // only that the counters are consistent.
    const auto& stats = diff.stats();
    EXPECT_EQ(stats.calls, stats.cache_hits + stats.cap_fast_hits + stats.full_solves);
  }
  EXPECT_GE(total_checks, 2000);
}

TEST(MaxMinSolverDifferential, ExactRepeatHitsCache) {
  MaxMinSolver solver;
  const std::vector<double> caps{100.0};
  std::vector<FlowDemand> flows(2);
  flows[0].rate_cap = kNoCap;
  flows[0].uses = {{0, 1.0}};
  flows[1].rate_cap = kNoCap;
  flows[1].uses = {{0, 1.0}};
  const auto first = solver.solve(caps, flows);
  EXPECT_DOUBLE_EQ(first[0], 50.0);
  solver.solve(caps, flows);
  solver.solve(caps, flows);
  EXPECT_EQ(solver.stats().calls, 3u);
  EXPECT_EQ(solver.stats().full_solves, 1u);
  EXPECT_EQ(solver.stats().cache_hits, 2u);
}

TEST(MaxMinSolverDifferential, SlackCapMoveHitsFastPath) {
  MaxMinSolver solver;
  const std::vector<double> caps{100.0};
  std::vector<FlowDemand> flows(2);
  flows[0].rate_cap = 90.0;  // far above the 50/50 fair share
  flows[0].uses = {{0, 1.0}};
  flows[1].rate_cap = kNoCap;
  flows[1].uses = {{0, 1.0}};
  solver.solve(caps, flows);
  flows[0].rate_cap = 80.0;  // still far above; provably non-binding
  const auto rates = solver.solve(caps, flows);
  EXPECT_DOUBLE_EQ(rates[0], 50.0);
  EXPECT_DOUBLE_EQ(rates[1], 50.0);
  EXPECT_EQ(solver.stats().cap_fast_hits, 1u);
  EXPECT_EQ(solver.stats().full_solves, 1u);
  // Cap moving below the rate must force a re-solve, and bind.
  flows[0].rate_cap = 20.0;
  const auto rebound = solver.solve(caps, flows);
  EXPECT_DOUBLE_EQ(rebound[0], 20.0);
  EXPECT_DOUBLE_EQ(rebound[1], 80.0);
  EXPECT_EQ(solver.stats().full_solves, 2u);
}

TEST(MaxMinSolverDifferential, BindingCapFlowNeverFastPaths) {
  MaxMinSolver solver;
  const std::vector<double> caps{100.0};
  std::vector<FlowDemand> flows(2);
  flows[0].rate_cap = 10.0;  // binds: frozen by cap, not by the resource
  flows[0].uses = {{0, 1.0}};
  flows[1].rate_cap = kNoCap;
  flows[1].uses = {{0, 1.0}};
  solver.solve(caps, flows);
  flows[0].rate_cap = 15.0;  // above the old rate, but flow was cap-frozen
  const auto rates = solver.solve(caps, flows);
  EXPECT_DOUBLE_EQ(rates[0], 15.0);
  EXPECT_DOUBLE_EQ(rates[1], 85.0);
  EXPECT_EQ(solver.stats().cap_fast_hits, 0u);
  EXPECT_EQ(solver.stats().full_solves, 2u);
}

TEST(MaxMinSolverDifferential, InvalidateForcesResolve) {
  MaxMinSolver solver;
  const std::vector<double> caps{60.0};
  std::vector<FlowDemand> flows(1);
  flows[0].rate_cap = kNoCap;
  flows[0].uses = {{0, 2.0}};
  solver.solve(caps, flows);
  solver.invalidate();
  const auto rates = solver.solve(caps, flows);
  EXPECT_DOUBLE_EQ(rates[0], 30.0);
  EXPECT_EQ(solver.stats().full_solves, 2u);
  EXPECT_EQ(solver.stats().cache_hits, 0u);
}

TEST(MaxMinSolverDifferential, FailedSolveIsNotCached) {
  MaxMinSolver solver;
  std::vector<FlowDemand> flows(1);
  flows[0].rate_cap = kNoCap;
  flows[0].uses = {{0, 1.0}};
  solver.solve(std::vector<double>{10.0}, flows);
  const std::vector<double> negative{-1.0};
  EXPECT_THROW(solver.solve(negative, flows), SmrError);
  // The same bad input must throw again, not hit a half-written cache.
  EXPECT_THROW(solver.solve(negative, flows), SmrError);
}

TEST(MaxMinSolverDifferential, EmptyProblemRoundTrips) {
  MaxMinSolver solver;
  const auto rates = solver.solve({}, {});
  EXPECT_TRUE(rates.empty());
  solver.solve({}, {});
  EXPECT_EQ(solver.stats().cache_hits, 1u);
}

}  // namespace
}  // namespace smr::cluster
