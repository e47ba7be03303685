// Per-node contention model: how fast each running task sub-phase
// progresses given everything else on the node.
//
// This is the substrate for the paper's central empirical fact (Section II-B,
// Fig. 1): aggregate task throughput rises with the number of working slots,
// then falls past a *thrashing point*, and the thrashing point differs per
// workload.  Three mechanisms produce the hump:
//
//   1. Core sharing + scheduling overhead: effective CPU capacity is
//      cores * thread_efficiency(threads), which declines slowly per thread
//      and faster once runnable threads exceed the core count.
//   2. Disk contention: concurrent streams share disk bandwidth and pay a
//      seek penalty per extra stream (spinning disks).
//   3. Memory paging: once the summed working sets exceed available memory,
//      a quadratic paging penalty hits both CPU and disk capacity — this is
//      the cliff that makes throughput *fall*, not just flatten.
//
// Workloads with heavy spill traffic and big working sets (reduce-heavy,
// e.g. Terasort) hit mechanisms 2 and 3 at low slot counts; lean map-heavy
// workloads (e.g. Grep) climb much further before thrashing — exactly the
// ordering in the paper's Fig. 1.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "smr/cluster/maxmin.hpp"
#include "smr/cluster/node.hpp"
#include "smr/common/types.hpp"

namespace smr::cluster {

/// One running task sub-phase on a node, expressed as demands per byte of
/// its own progress.
struct PhaseLoad {
  /// CPU-seconds (of a speed-1.0 core) per byte of progress.
  double cpu_per_byte = 0.0;
  /// Disk bytes (read + write combined) per byte of progress.
  double disk_per_byte = 0.0;
  /// External rate cap in bytes/s (e.g. a network grant for remote reads or
  /// shuffle); kNoCap if none.
  double rate_cap = kNoCap;
  /// Maximum cores a single thread can use (1.0 for ordinary tasks).
  double max_cores = 1.0;
};

/// Aggregated background load on a node that is not part of the flows being
/// solved (shuffle merge CPU, shuffle spill disk writes).
struct BackgroundLoad {
  double cpu_cores = 0.0;    // cores consumed
  double disk_rate = 0.0;    // bytes/s of disk bandwidth consumed
};

/// Node-level occupancy used for the efficiency factors.
struct Occupancy {
  int threads = 0;        // runnable threads (all resident task threads)
  int io_streams = 0;     // concurrent disk streams
  Bytes memory_demand = 0;  // summed working sets of resident tasks
};

class ComputeModel {
 public:
  /// Multiplicative CPU efficiency for `threads` runnable threads.
  static double thread_efficiency(const NodeSpec& node, int threads);

  /// Multiplicative slowdown once memory is oversubscribed (1.0 when the
  /// demand fits; < 1 beyond).
  static double paging_factor(const NodeSpec& node, Bytes memory_demand);

  /// Disk efficiency for `streams` concurrent I/O streams.
  static double disk_efficiency(const NodeSpec& node, int streams);

  /// Effective CPU capacity in speed-1.0 core-equivalents.
  static double effective_cpu(const NodeSpec& node, const Occupancy& occ);

  /// Effective disk bandwidth in bytes/s.
  static double effective_disk(const NodeSpec& node, const Occupancy& occ);

  /// Solve for the progress rate (bytes/s) of every sub-phase on one node.
  /// `background` is subtracted from capacity first (floored at a small
  /// positive remnant so foreground work always creeps forward).
  ///
  /// Stateless reference path ("oracle"): build_problem() solved by the
  /// generic max_min_allocate().  The stateful solve_cached() below is
  /// bit-identical and is what the runtime calls every tick.
  static std::vector<double> solve(const NodeSpec& node, const Occupancy& occ,
                                   const BackgroundLoad& background,
                                   std::span<const PhaseLoad> loads);

  /// The generic max-min problem behind `loads`: capacities [CPU, disk] and
  /// one demand per load.  Used by solve() and by tests that cross-check the
  /// node's own water-fill against MaxMinSolver.
  static void build_problem(const NodeSpec& node, const Occupancy& occ,
                            const BackgroundLoad& background,
                            std::span<const PhaseLoad> loads,
                            std::array<double, 2>& capacities,
                            std::vector<FlowDemand>& demands);

  /// Same result as solve(), bit for bit, from the model's own water-fill
  /// over the shape every node problem has: two resources and, per load, a
  /// CPU weight, a disk weight and a cap (see docs/PERF.md §9).  Its cache
  /// follows MaxMinSolver's rules exactly: an unchanged problem is answered
  /// from the cache, and one where only non-binding caps moved passes
  /// cap_move_is_slack() and skips the water-fill too.  Keep one instance
  /// per simulated node (the node spec must not change between calls); NOT
  /// thread-safe.  The returned reference is invalidated by the next call.
  /// It is take_loads() followed by solve_capacities().
  const std::vector<double>& solve_cached(const NodeSpec& node, const Occupancy& occ,
                                          const BackgroundLoad& background,
                                          std::span<const PhaseLoad> loads);

  /// solve_cached()'s first step: translate `loads` (non-empty) into flows
  /// and compare them with the cached problem's, the weight and cap half of
  /// the cache rule.  The cached problem takes the new flows either way.
  void take_loads(const NodeSpec& node, std::span<const PhaseLoad> loads);

  /// solve_cached()'s second step: the rates of the flows last taken under
  /// these capacities, from the cache when the rule allows, else from the
  /// water-fill.  Called again without a take_loads() in between, the flows
  /// are the solved ones, so the rule reduces to equal capacities: the
  /// runtime's path for a node whose only change is its background.
  const std::vector<double>& solve_capacities(const NodeSpec& node, const Occupancy& occ,
                                              const BackgroundLoad& background);

  /// The rates of the last solve, which an unchanged problem reproduces.
  const std::vector<double>& rates() const { return rates_; }

  /// Counters of solve_cached(), equal to those of a MaxMinSolver fed
  /// build_problem() for every call with a non-empty load list.
  const MaxMinSolver::Stats& solver_stats() const { return stats_; }

  /// Count a call the caller answered itself from unchanged inputs (the
  /// runtime's quiescent-node tick path) as the cache hit solve_cached()
  /// would have scored, so the stats read as if it had been called.
  void count_memo_hit() {
    ++stats_.calls;
    ++stats_.cache_hits;
  }

 private:
  /// One load as the water-fill sees it: its weight on CPU and on disk
  /// (0.0 for an unused resource; a used one always weighs > 0) and its cap.
  struct Flow {
    double cpu_w = 0.0;
    double disk_w = 0.0;
    double cap = kNoCap;
  };

  /// The one translation of a load into a flow, shared by the oracle and the
  /// cached path so the arithmetic (and the error) is identical.
  static Flow to_flow(const NodeSpec& node, const PhaseLoad& load);
  static std::array<double, 2> capacities_for(const NodeSpec& node,
                                              const Occupancy& occ,
                                              const BackgroundLoad& background);
  void waterfill();

  MaxMinSolver::Stats stats_;
  std::vector<double> empty_;

  // Cached problem (structure of arrays, one entry per flow) and solution.
  bool valid_ = false;
  std::array<double, 2> capacities_{};
  std::vector<double> cpu_w_;
  std::vector<double> disk_w_;
  std::vector<double> cap_;
  std::vector<double> rates_;
  std::vector<unsigned char> frozen_by_cap_;
  bool degenerate_ = false;
  /// What take_loads() found against the cached problem, which the next
  /// solve_capacities() reads and resets to kSame.
  enum class FlowMatch : unsigned char { kDiffer, kSame, kSlackCapsMoved };
  FlowMatch flows_ = FlowMatch::kDiffer;

  // This call's flows, swapped into the cached problem once compared, and
  // the water-fill's active list; both reused across calls.
  std::vector<double> next_cpu_w_;
  std::vector<double> next_disk_w_;
  std::vector<double> next_cap_;
  std::vector<std::uint32_t> active_;
};

}  // namespace smr::cluster
