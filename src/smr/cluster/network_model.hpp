// Cluster-wide network allocation for shuffle traffic and remote map-input
// reads.
//
// Resources: one receive port and one transmit port per node plus the
// switch fabric.  Shuffle fetches are "diffuse" flows — a reduce task pulls
// its partition from every node that holds finished map output — so a
// shuffle flow loads its receiver's port with weight 1 and every transmit
// port with weight 1/N.  Remote reads are point-to-point.
//
// Per-receiver incast: when a node hosts many concurrent fetch streams
// (reducers × parallel copier threads) its receive goodput degrades per
// NetworkSpec::incast_efficiency.  This is the mechanism behind the paper's
// repeated caution that "a large number of reduce slots can cause network
// jam" (Sections III-B3, IV-A2, V-C).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "smr/cluster/maxmin.hpp"
#include "smr/cluster/node.hpp"
#include "smr/common/types.hpp"

namespace smr::cluster {

struct NetFlow {
  /// Receiving node (must be valid).
  NodeId dst = kInvalidNode;
  /// Sending node, or kInvalidNode for a diffuse flow (pulls uniformly from
  /// all nodes — the shuffle case).
  NodeId src = kInvalidNode;
  /// Per-flow cap in bytes/s (e.g. the receiver's CPU-side ingest bound),
  /// or kNoCap.
  double rate_cap = kNoCap;
};

/// `k` sequential additions x = fl(x + w), exactly as the loop rounds them,
/// in O(binades crossed) steps instead of O(k): within one binade every
/// addition adds the same rounded multiple of the ulp, so a run is one
/// integer add, plus one ordinary addition at each binade crossing.  An
/// exact half-ulp tie, where ties-to-even reads x's last bit, is stepped.
/// Requires 0 < w <= x, both finite and normal.  Adds the steps taken to
/// `steps`.
double add_run(double x, double w, std::uint64_t k, std::uint64_t& steps);

class NetworkModel {
 public:
  /// Work counters of the water-fill behind allocate_cached(), summed over
  /// its full solves.  Deterministic: the same calls count the same on any
  /// host.
  struct WaterfillStats {
    /// Water-fill rounds (level raises).
    std::uint64_t rounds = 0;
    /// Delta-log steps replayed into a port by sync().
    std::uint64_t replayed_steps = 0;
    /// Weight falls on a queued port, recorded without a sync.
    std::uint64_t deferred_reweighs = 0;
    /// Deferred weight segments replayed when their port came due.
    std::uint64_t replayed_segments = 0;
    /// Additions and add_run() steps of the point-port folds.
    std::uint64_t fold_steps = 0;
    /// Full solves the uncongestion certificate answered without a
    /// water-fill (see caps_fit()).
    std::uint64_t certified = 0;
  };

  explicit NetworkModel(const ClusterSpec& spec) : spec_(&spec) {}

  /// Allocate rates for `flows`.  `fetch_streams_per_node[d]` is the number
  /// of concurrent TCP fetch streams terminating at node d (drives the
  /// incast penalty on d's receive port); pass an empty span to disable.
  ///
  /// Stateless reference path ("oracle"): build_problem() solved by the
  /// generic max_min_allocate().  allocate_cached() below is bit-identical
  /// and is what the runtime calls every tick.
  std::vector<double> allocate(std::span<const NetFlow> flows,
                               std::span<const int> fetch_streams_per_node) const;

  /// Same result as allocate(), bit for bit, from the model's own
  /// water-fill over the fixed port topology (rx ports, tx ports, one
  /// fabric; see docs/PERF.md §8).  Its cache follows MaxMinSolver's rules
  /// exactly: unchanged problems are answered from the cache, and shuffle
  /// ticks where only non-binding (backlog-tracking) rate caps moved pass
  /// cap_move_is_slack() and skip the water-fill too.  A raw-input memo
  /// short-circuits even earlier: bit-equal (flows, fetch_streams) skip the
  /// capacity build and the comparison — the common steady-shuffle tick,
  /// where every cap is pinned at the fetch cap.  A full solve whose caps
  /// fit every resource with room to spare is its caps, and skips the
  /// water-fill (the uncongestion certificate, docs/PERF.md §16).
  /// NOT thread-safe; the returned reference is invalidated by the next
  /// call.
  const std::vector<double>& allocate_cached(std::span<const NetFlow> flows,
                                             std::span<const int> fetch_streams_per_node);

  /// Counters of allocate_cached(), equal to those of a MaxMinSolver fed
  /// build_problem() for every call with a non-empty flow list (a memo hit
  /// counts as the cache hit that solver would have scored).
  const MaxMinSolver::Stats& solver_stats() const { return stats_; }

  const WaterfillStats& waterfill_stats() const { return work_; }

  /// The generic max-min problem behind `flows`: capacities laid out as
  /// [0, n) receive ports, [n, 2n) transmit ports, 2n fabric, and one demand
  /// per flow.  Used by allocate() and by tests that cross-check the
  /// topology-specific solver against MaxMinSolver.
  void build_problem(std::span<const NetFlow> flows,
                     std::span<const int> fetch_streams_per_node,
                     std::vector<double>& capacities,
                     std::vector<FlowDemand>& demands) const;

 private:
  static constexpr std::uint32_t kNoSegment = ~std::uint32_t{0};

  /// A resource other than the fabric, updated lazily: `remaining` is exact
  /// as of round `synced`, and the rounds since are replayed from the delta
  /// log only when the water-fill needs the value (see waterfill()).
  struct Port {
    double remaining = 0.0;
    double saturated_below = 0.0;
    /// Weight sum of the live flows on it, since the end of its last
    /// deferred segment (or since `synced` when it has none).
    double sumw = 0.0;
    std::uint32_t synced = 0;
    /// Its deferred segments, oldest first: segments_[first], chained by
    /// `next` to segments_[last].
    std::uint32_t first = kNoSegment;
    std::uint32_t last = kNoSegment;
    /// Bumped whenever the port is re-queued or retired: older heap
    /// entries are stale.
    std::uint32_t version = 0;
    bool queued = false;
    bool tx = false;
  };
  /// A port is due once the level may reach `key` (a lower bound on the
  /// level where its candidate could win or it could saturate).
  struct Due {
    double key = 0.0;
    std::uint32_t port = 0;
    std::uint32_t version = 0;
    /// With std::greater the heap pops the soonest key first.
    friend bool operator>(const Due& a, const Due& b) { return a.key > b.key; }
  };
  /// A weight sum a queued port had until round `end` (exclusive).
  struct Segment {
    double sumw = 0.0;
    std::uint32_t end = 0;
    std::uint32_t next = kNoSegment;
  };
  /// A tx port with an active point flow at the start of the solve.  Its
  /// weight sum is the ordered fold of its live point flows (1.0 each) and
  /// the live diffuse flows (1/n each).
  struct PointPort {
    std::uint32_t port = 0;
    /// Live point flows, ascending: point_flows_[begin, end).
    std::uint32_t begin = 0;
    std::uint32_t end = 0;
    bool dirty = false;
  };
  /// A capped flow and its cap, kept together so the cap-sorted list is
  /// sorted and scanned without touching flows_.
  struct Capped {
    double cap = 0.0;
    std::uint32_t flow = 0;
  };

  void port_capacities(std::span<const int> fetch_streams_per_node,
                       std::vector<double>& capacities) const;
  void check_flows(std::span<const NetFlow> flows) const;
  bool cache_usable(std::span<const NetFlow> flows, bool& caps_only) const;
  bool caps_fit();
  void waterfill();
  double fold(const PointPort& point, double diffuse_weight);
  std::uint32_t add_port(double capacity, double sumw, bool tx);
  void replay(Port& port, std::uint32_t end, double sumw);
  void sync(Port& port);
  void requeue(std::uint32_t id, double level, double margin);
  void reweigh(std::uint32_t id, double sumw, double level, double margin);
  PointPort& point_port(NodeId src) {
    return point_ports_[static_cast<std::size_t>(tx_slot_[static_cast<std::size_t>(src)])];
  }

  const ClusterSpec* spec_;
  MaxMinSolver::Stats stats_;
  WaterfillStats work_;
  std::vector<double> empty_;

  // Cached problem (the last call's raw inputs) and its solution.
  bool valid_ = false;
  std::vector<NetFlow> flows_;
  std::vector<int> streams_;
  std::vector<double> capacities_;
  std::vector<double> rates_;
  std::vector<bool> frozen_by_cap_;
  bool degenerate_ = false;

  // Certificate scratch, sized at the first full solve: the positive caps
  // summed per rx port [0, n) and per point tx port [n, 2n), the entries
  // written this solve, and the spec's least tx capacity (NaN when some
  // capacity of the spec could be negative or NaN).
  std::vector<double> load_;
  std::vector<std::uint32_t> loaded_;
  double tx_floor_ = 0.0;

  // Water-fill scratch, reused across solves.
  std::vector<double> next_capacities_;
  std::vector<double> deltas_;
  std::vector<Port> ports_;
  std::vector<Segment> segments_;
  std::vector<Due> due_;
  std::vector<std::uint32_t> touched_;
  std::vector<std::uint32_t> active_;
  std::vector<std::uint32_t> diffuse_;
  std::vector<Capped> by_cap_;
  std::vector<std::uint32_t> frozen_;
  std::vector<unsigned char> live_;
  std::vector<std::uint32_t> rx_live_;
  std::vector<std::uint32_t> rx_port_;
  std::vector<std::uint32_t> point_dirty_;
  std::vector<int> tx_slot_;
  std::vector<PointPort> point_ports_;
  std::vector<std::uint32_t> point_flows_;
  std::vector<double> group_capacities_;
  std::vector<std::uint32_t> groups_;
  std::vector<double> diffuse_sum_;
};

}  // namespace smr::cluster
