// Differential suite for the node's two-resource water-fill.
//
// ComputeModel::solve_cached() must return exactly what the generic oracle
// (ComputeModel::solve(): build_problem() + max_min_allocate()) returns, bit
// for bit, and count its calls exactly as a MaxMinSolver fed the same
// build_problem() output would.  Random mutation sequences cover every
// cache path (exact cache hit, cap-slack fast path, full solve) across load
// counts, CPU-only / disk-only / mixed / cap-only loads, cap kinds,
// multi-core threads, background load above capacity and paging.  The error
// paths must throw the oracle's SmrError.
#include "smr/cluster/compute_model.hpp"

#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "smr/common/error.hpp"
#include "smr/common/rng.hpp"

namespace smr::cluster {
namespace {

constexpr double kMiBf = static_cast<double>(kMiB);

enum class Kind { kCpu, kDisk, kBoth, kCapOnly };

std::int64_t pick(Rng& rng, std::size_t size) {
  return rng.uniform_int(0, static_cast<std::int64_t>(size) - 1);
}

NodeSpec random_node(Rng& rng) {
  NodeSpec node;
  const int cores[] = {2, 8, 16};
  const double speeds[] = {0.5, 1.0, 1.7};
  const double disks[] = {40.0, 160.0, 500.0};
  node.cores = cores[pick(rng, 3)];
  node.cpu_speed = speeds[pick(rng, 3)];
  node.disk_bandwidth = disks[pick(rng, 3)] * kMiBf;
  return node;
}

double random_cap(Rng& rng, bool allow_none) {
  const double which = rng.uniform();
  if (allow_none && which < 0.3) return kNoCap;
  if (which < 0.4) return 0.0;
  if (which < 0.7) return rng.uniform(1e10, 1e11);  // slack
  return rng.uniform(0.5, 40.0) * kMiBf;             // binding
}

PhaseLoad random_load(Rng& rng) {
  PhaseLoad load;
  const auto kind = static_cast<Kind>(pick(rng, 4));
  // CPU weights around 1e-7 core-s/byte put the CPU and a ~100 MiB/s disk
  // in the same range, so either can bind.
  if (kind == Kind::kCpu || kind == Kind::kBoth) {
    load.cpu_per_byte = std::pow(10.0, rng.uniform(-9.0, -6.0));
  }
  if (kind == Kind::kDisk || kind == Kind::kBoth) {
    load.disk_per_byte = rng.uniform(0.2, 2.5);
  }
  load.rate_cap = random_cap(rng, kind != Kind::kCapOnly);
  const double cores[] = {1.0, 1.0, 0.5, 2.0, 8.0};
  load.max_cores = cores[pick(rng, 5)];
  return load;
}

class NodeDifferential {
 public:
  /// With `reuse_flows`, a step whose loads did not move since the last one
  /// calls solve_capacities() alone on the cached flows, as the runtime
  /// does for a node whose only change is its occupancy or background.
  explicit NodeDifferential(Rng& rng, bool reuse_flows = false)
      : rng_(&rng), node_(random_node(rng)), reuse_flows_(reuse_flows) {
    fresh_occupancy();
    fresh_background();
    fresh_loads();
  }

  void check_once() {
    const std::vector<double> expected = ComputeModel::solve(node_, occ_, background_, loads_);
    const bool capacities_only = reuse_flows_ && !loads_moved_;
    loads_moved_ = false;
    if (capacities_only) ++capacity_only_calls_;
    const std::vector<double>& actual =
        capacities_only ? model_.solve_capacities(node_, occ_, background_)
                        : model_.solve_cached(node_, occ_, background_, loads_);
    ASSERT_EQ(actual.size(), expected.size());
    for (std::size_t i = 0; i < expected.size(); ++i) {
      ASSERT_EQ(std::bit_cast<std::uint64_t>(actual[i]),
                std::bit_cast<std::uint64_t>(expected[i]))
          << "load " << i << ": " << actual[i] << " vs " << expected[i];
    }
    last_rates_ = expected;
    if (!loads_.empty()) {
      ComputeModel::build_problem(node_, occ_, background_, loads_, capacities_, demands_);
      mirror_.solve(capacities_, demands_);
    }
    const MaxMinSolver::Stats& got = model_.solver_stats();
    const MaxMinSolver::Stats& want = mirror_.stats();
    ASSERT_EQ(got.calls, want.calls);
    ASSERT_EQ(got.cache_hits, want.cache_hits);
    ASSERT_EQ(got.cap_fast_hits, want.cap_fast_hits);
    ASSERT_EQ(got.full_solves, want.full_solves);
  }

  void mutate() {
    const double which = rng_->uniform();
    if (which < 0.2) return;  // exact repeat
    if (which < 0.5 && !loads_.empty()) {
      // Cap-only move, usually relative to the load's current rate so the
      // slack fast path gets exercised.
      const auto f = static_cast<std::size_t>(pick(*rng_, loads_.size()));
      const double kind = rng_->uniform();
      const double rate = f < last_rates_.size() ? last_rates_[f] : 0.0;
      PhaseLoad& load = loads_[f];
      loads_moved_ = true;
      const bool needs_cap = load.cpu_per_byte <= 0.0 && load.disk_per_byte <= 0.0;
      if (kind < 0.5) {
        load.rate_cap = rate * rng_->uniform(1.5, 3.0) + 1.0;
      } else if (kind < 0.65) {
        load.rate_cap = rate * rng_->uniform(0.2, 0.9);
      } else {
        load.rate_cap = random_cap(*rng_, !needs_cap);
      }
      return;
    }
    if (which < 0.6) {
      fresh_occupancy();
      return;
    }
    if (which < 0.7) {
      fresh_background();
      return;
    }
    loads_moved_ = true;
    if (which < 0.8 && !loads_.empty()) {
      // A coefficient changes: the flow's resource uses move.
      PhaseLoad& load = loads_[static_cast<std::size_t>(pick(*rng_, loads_.size()))];
      const PhaseLoad fresh = random_load(*rng_);
      if (load.cpu_per_byte > 0.0 && fresh.cpu_per_byte > 0.0) {
        load.cpu_per_byte = fresh.cpu_per_byte;
      } else if (load.disk_per_byte > 0.0) {
        load.disk_per_byte = fresh.disk_per_byte + 0.1;
      } else {
        load.max_cores = fresh.max_cores;
      }
      return;
    }
    if (which < 0.92) {
      if (loads_.size() > 1 && rng_->uniform() < 0.5) {
        loads_.erase(loads_.begin() + pick(*rng_, loads_.size()));
      } else if (loads_.size() < 12) {
        loads_.insert(loads_.begin() + pick(*rng_, loads_.size() + 1), random_load(*rng_));
      }
      return;
    }
    fresh_loads();
  }

  const MaxMinSolver::Stats& stats() const { return model_.solver_stats(); }
  int capacity_only_calls() const { return capacity_only_calls_; }

 private:
  void fresh_occupancy() {
    occ_.threads = static_cast<int>(rng_->uniform_int(0, 40));
    occ_.io_streams = static_cast<int>(rng_->uniform_int(0, 20));
    // Sometimes past the node's memory, so paging shrinks both capacities.
    const double fill = rng_->uniform() < 0.3 ? rng_->uniform(1.0, 2.5) : rng_->uniform(0.0, 1.0);
    occ_.memory_demand =
        static_cast<Bytes>(fill * static_cast<double>(node_.available_memory()));
  }

  void fresh_background() {
    const double which = rng_->uniform();
    if (which < 0.4) {
      background_ = {};
    } else if (which < 0.75) {
      background_.cpu_cores = rng_->uniform(0.0, 0.5) * node_.cores;
      background_.disk_rate = rng_->uniform(0.0, 0.5) * node_.disk_bandwidth;
    } else {
      // Above capacity: both resources floor at their remnants.
      background_.cpu_cores = 3.0 * node_.cores;
      background_.disk_rate = 3.0 * node_.disk_bandwidth;
    }
  }

  void fresh_loads() {
    loads_.clear();
    const auto count = rng_->uniform_int(1, 12);
    for (std::int64_t i = 0; i < count; ++i) loads_.push_back(random_load(*rng_));
  }

  Rng* rng_;
  NodeSpec node_;
  bool reuse_flows_ = false;
  bool loads_moved_ = true;
  int capacity_only_calls_ = 0;
  Occupancy occ_;
  BackgroundLoad background_;
  std::vector<PhaseLoad> loads_;
  ComputeModel model_;
  MaxMinSolver mirror_;
  std::vector<double> last_rates_;
  std::array<double, 2> capacities_{};
  std::vector<FlowDemand> demands_;
};

TEST(ComputeSolverDifferential, RandomMutationSequencesMatchOracleBitwise) {
  Rng rng(0xc0deULL);
  MaxMinSolver::Stats total;
  int checks = 0;
  for (int sequence = 0; sequence < 300; ++sequence) {
    NodeDifferential diff(rng);
    for (int step = 0; step < 60; ++step) {
      SCOPED_TRACE("sequence " + std::to_string(sequence) + " step " + std::to_string(step));
      diff.check_once();
      if (testing::Test::HasFatalFailure()) return;
      ++checks;
      diff.mutate();
    }
    const MaxMinSolver::Stats& stats = diff.stats();
    EXPECT_EQ(stats.calls, stats.cache_hits + stats.cap_fast_hits + stats.full_solves);
    total.cache_hits += stats.cache_hits;
    total.cap_fast_hits += stats.cap_fast_hits;
    total.full_solves += stats.full_solves;
  }
  EXPECT_EQ(checks, 300 * 60);
  // Every cache path was taken somewhere in the suite.
  EXPECT_GT(total.cache_hits, 100u);
  EXPECT_GT(total.cap_fast_hits, 100u);
  EXPECT_GT(total.full_solves, 100u);
}

// The runtime's capacities-only path: steps whose loads did not move skip
// take_loads(), and the answer and the counters must still be the oracle's
// and the mirror's.
TEST(ComputeSolverDifferential, CapacityOnlyResolvesMatchOracleBitwise) {
  Rng rng(0xb9c0ULL);
  int capacity_only = 0;
  MaxMinSolver::Stats total;
  for (int sequence = 0; sequence < 200; ++sequence) {
    NodeDifferential diff(rng, /*reuse_flows=*/true);
    for (int step = 0; step < 60; ++step) {
      SCOPED_TRACE("sequence " + std::to_string(sequence) + " step " + std::to_string(step));
      diff.check_once();
      if (testing::Test::HasFatalFailure()) return;
      diff.mutate();
    }
    capacity_only += diff.capacity_only_calls();
    total.cache_hits += diff.stats().cache_hits;
    total.full_solves += diff.stats().full_solves;
  }
  EXPECT_GT(capacity_only, 2000);
  EXPECT_GT(total.cache_hits, 100u);
  EXPECT_GT(total.full_solves, 100u);
}

// Disk-bound loads whose caps sit far above their share: moving the caps
// must take the fast path and return the oracle's rates.
TEST(ComputeSolverDifferential, SlackCapMoveHitsFastPath) {
  const NodeSpec node;
  const Occupancy occ{4, 4, 0};
  std::vector<PhaseLoad> loads(4, PhaseLoad{0.0, 1.0, 1e10, 1.0});
  ComputeModel model;
  model.solve_cached(node, occ, {}, loads);
  for (PhaseLoad& load : loads) load.rate_cap = 2e10;
  const std::vector<double> rates = model.solve_cached(node, occ, {}, loads);
  EXPECT_EQ(model.solver_stats().cap_fast_hits, 1u);
  EXPECT_EQ(model.solver_stats().full_solves, 1u);
  EXPECT_EQ(rates, ComputeModel::solve(node, occ, {}, loads));
  // Dropping a cap entirely is slack too.
  loads[1].rate_cap = kNoCap;
  EXPECT_EQ(model.solve_cached(node, occ, {}, loads), ComputeModel::solve(node, occ, {}, loads));
  EXPECT_EQ(model.solver_stats().cap_fast_hits, 2u);
  // A binding cap forces a full solve.
  loads[0].rate_cap = 1.0 * kMiBf;
  EXPECT_EQ(model.solve_cached(node, occ, {}, loads), ComputeModel::solve(node, occ, {}, loads));
  EXPECT_EQ(model.solver_stats().full_solves, 2u);
  EXPECT_EQ(model.solver_stats().calls, 4u);
}

// A cap-frozen flow's cap cannot move on the fast path, even upward.
TEST(ComputeSolverDifferential, CapFrozenFlowResolvesOnCapMove) {
  const NodeSpec node;
  std::vector<PhaseLoad> loads{{0.0, 1.0, 5.0 * kMiBf, 1.0}, {0.0, 0.0, 3.0 * kMiBf, 1.0}};
  ComputeModel model;
  model.solve_cached(node, {}, {}, loads);
  loads[1].rate_cap = 4.0 * kMiBf;
  EXPECT_EQ(model.solve_cached(node, {}, {}, loads), ComputeModel::solve(node, {}, {}, loads));
  EXPECT_EQ(model.solver_stats().cap_fast_hits, 0u);
  EXPECT_EQ(model.solver_stats().full_solves, 2u);
}

// An infinite disk weight makes the disk's candidate 0 and its remaining
// capacity NaN, so the first round freezes nothing: the degenerate
// all-blocked ending.  No cap move may take the fast path after it.
TEST(ComputeSolverDifferential, DegenerateSolveNeverTakesFastPath) {
  const NodeSpec node;
  const double inf = std::numeric_limits<double>::infinity();
  std::vector<PhaseLoad> loads{{0.0, inf, 1e10, 1.0}, {0.0, 1.0, 1e10, 1.0}};
  ComputeModel model;
  EXPECT_EQ(model.solve_cached(node, {}, {}, loads), ComputeModel::solve(node, {}, {}, loads));
  loads[1].rate_cap = 2e10;
  EXPECT_EQ(model.solve_cached(node, {}, {}, loads), ComputeModel::solve(node, {}, {}, loads));
  EXPECT_EQ(model.solver_stats().cap_fast_hits, 0u);
  EXPECT_EQ(model.solver_stats().full_solves, 2u);
}

// The runtime's quiescent-node path counts as the cache hit it replaces.
TEST(ComputeSolverDifferential, CountMemoHitIsACallAndACacheHit) {
  ComputeModel model;
  const std::vector<PhaseLoad> loads{{1e-7, 1.0, kNoCap, 1.0}};
  model.solve_cached(NodeSpec{}, {}, {}, loads);
  model.count_memo_hit();
  EXPECT_EQ(model.solver_stats().calls, 2u);
  EXPECT_EQ(model.solver_stats().cache_hits, 1u);
  EXPECT_EQ(model.solver_stats().full_solves, 1u);
}

TEST(ComputeSolverDifferential, EmptyLoadsAreNotACall) {
  ComputeModel model;
  EXPECT_TRUE(model.solve_cached(NodeSpec{}, {}, {}, {}).empty());
  EXPECT_EQ(model.solver_stats().calls, 0u);
}

// The SmrError message of `call`, or "no SmrError".
std::string error_of(const std::function<void()>& call) {
  try {
    call();
  } catch (const SmrError& error) {
    return error.what();
  }
  return "no SmrError";
}

// The part of a message after the source location.
std::string message_part(const std::string& what) {
  const auto at = what.find(" — ");
  return at == std::string::npos ? what : what.substr(at);
}

// A load with no resource use and no cap is rejected with the oracle's
// error before the solver sees it: the counters and the cache are untouched.
TEST(ComputeModel, UnboundedLoadThrowsLikeOracle) {
  const NodeSpec node;
  const std::vector<PhaseLoad> good{{1e-7, 1.0, kNoCap, 1.0}};
  const std::vector<PhaseLoad> bad{{1e-7, 1.0, kNoCap, 1.0}, {0.0, 0.0, kNoCap, 1.0}};
  ComputeModel model;
  model.solve_cached(node, {}, {}, good);
  const std::string oracle = error_of([&] { ComputeModel::solve(node, {}, {}, bad); });
  EXPECT_EQ(message_part(oracle), " — phase with no resource use and no cap would be unbounded");
  EXPECT_EQ(error_of([&] { model.solve_cached(node, {}, {}, bad); }), oracle);
  EXPECT_EQ(error_of([&] { model.solve_cached(node, {}, {}, bad); }), oracle);
  EXPECT_EQ(model.solver_stats().calls, 1u);
  model.solve_cached(node, {}, {}, good);
  EXPECT_EQ(model.solver_stats().cache_hits, 1u);
}

// An infinite cap passes the load check but never bounds a round, so a load
// with no resource use fails inside the water-fill.  The failed solve leaves
// nothing cached, so the same call (which compares equal to the problem
// that failed) throws again.
TEST(ComputeModel, UnboundedFlowThrowsLikeOracleAndIsNotCached) {
  const NodeSpec node;
  const std::vector<PhaseLoad> loads{{1e-7, 1.0, kNoCap, 1.0},
                                     {0.0, 0.0, std::numeric_limits<double>::infinity(), 1.0}};
  const std::string oracle =
      message_part(error_of([&] { ComputeModel::solve(node, {}, {}, loads); }));
  EXPECT_EQ(oracle, " — max_min_allocate: unbounded flow (no cap and no finite resource)");
  ComputeModel model;
  model.solve_cached(node, {}, {}, std::span(loads).first(1));
  EXPECT_EQ(message_part(error_of([&] { model.solve_cached(node, {}, {}, loads); })), oracle);
  EXPECT_EQ(message_part(error_of([&] { model.solve_cached(node, {}, {}, loads); })), oracle);
  EXPECT_EQ(model.solver_stats().calls, 3u);
  EXPECT_EQ(model.solver_stats().full_solves, 3u);
}

}  // namespace
}  // namespace smr::cluster
