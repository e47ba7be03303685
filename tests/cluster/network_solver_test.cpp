// Differential suite for the network's topology-specific water-fill.
//
// NetworkModel::allocate_cached() must return exactly what the generic
// oracle (NetworkModel::allocate(): build_problem() + max_min_allocate())
// returns, bit for bit, and count its calls exactly as a MaxMinSolver fed
// the same build_problem() output would.  Random mutation sequences cover
// every cache path (raw-input memo, exact cache hit, cap-slack fast path,
// full solve) across cluster sizes, flow mixes, cap kinds, incast stream
// counts on both sides of the knee, and zero-capacity or heterogeneous
// NICs.  The error paths must throw the oracle's SmrError.
#include "smr/cluster/network_model.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <limits>
#include <string>
#include <vector>

#include "smr/common/error.hpp"
#include "smr/common/rng.hpp"

namespace smr::cluster {
namespace {

constexpr double kMiBf = static_cast<double>(kMiB);
constexpr double kInf = std::numeric_limits<double>::infinity();

enum class Mix { kDiffuse, kPoint, kInterleaved };
enum class Nics { kHomogeneous, kFewSpeeds, kAllDistinct, kSomeZero };

std::int64_t pick(Rng& rng, std::size_t size) {
  return rng.uniform_int(0, static_cast<std::int64_t>(size) - 1);
}

ClusterSpec random_spec(int n, Nics nics, Rng& rng) {
  ClusterSpec spec = ClusterSpec::paper_testbed(n);
  for (NodeSpec& node : spec.workers) {
    switch (nics) {
      case Nics::kHomogeneous:
        break;
      case Nics::kFewSpeeds: {
        const double speeds[] = {58.5, 117.0, 234.0};
        node.nic_bandwidth = speeds[pick(rng, 3)] * kMiBf;
        break;
      }
      case Nics::kAllDistinct:
        node.nic_bandwidth = rng.uniform(40.0, 250.0) * kMiBf;
        break;
      case Nics::kSomeZero:
        if (rng.uniform() < 0.15) node.nic_bandwidth = 0.0;
        break;
    }
  }
  // Sometimes an oversubscribed fabric, so the fabric binds too.
  if (rng.uniform() < 0.3) spec.network.fabric_bandwidth *= rng.uniform(0.05, 0.5);
  return spec;
}

double random_cap(Rng& rng) {
  const double which = rng.uniform();
  if (which < 0.2) return kNoCap;
  if (which < 0.3) return 0.0;
  if (which < 0.65) return rng.uniform(1e9, 1e10);  // slack
  return rng.uniform(1.0, 30.0) * kMiBf;            // binding
}

// One allocate_cached() call against the oracle: its rates bitwise (value
// and sign bit), and its counters against a MaxMinSolver fed the same
// build_problem() output.
void check_against_oracle(NetworkModel& model, MaxMinSolver& mirror,
                          const std::vector<NetFlow>& flows, const std::vector<int>& streams,
                          std::vector<double>& rates) {
  rates = model.allocate(flows, streams);
  const std::vector<double>& actual = model.allocate_cached(flows, streams);
  ASSERT_EQ(actual.size(), rates.size());
  for (std::size_t i = 0; i < rates.size(); ++i) {
    ASSERT_EQ(actual[i], rates[i]) << "flow " << i;
    ASSERT_EQ(std::signbit(actual[i]), std::signbit(rates[i])) << "flow " << i;
  }
  if (!flows.empty()) {
    std::vector<double> capacities;
    std::vector<FlowDemand> demands;
    model.build_problem(flows, streams, capacities, demands);
    mirror.solve(capacities, demands);
  }
  const MaxMinSolver::Stats& got = model.solver_stats();
  const MaxMinSolver::Stats& want = mirror.stats();
  ASSERT_EQ(got.calls, want.calls);
  ASSERT_EQ(got.cache_hits, want.cache_hits);
  ASSERT_EQ(got.cap_fast_hits, want.cap_fast_hits);
  ASSERT_EQ(got.full_solves, want.full_solves);
}

class NetDifferential {
 public:
  NetDifferential(int n, Mix mix, Nics nics, Rng& rng)
      : rng_(&rng), n_(n), mix_(mix), spec_(random_spec(n, nics, rng)), model_(spec_) {
    // A few "hot" senders carry several point flows each.
    for (int k = 0; k < 3; ++k) {
      hot_.push_back(static_cast<NodeId>(pick(rng, static_cast<std::size_t>(n))));
    }
    fresh_flows();
    fresh_streams();
  }

  void check_once() { check_against_oracle(model_, mirror_, flows_, streams_, last_rates_); }

  void mutate() {
    const double which = rng_->uniform();
    if (which < 0.2) return;  // exact repeat: the raw-input memo
    if (which < 0.45 && !flows_.empty()) {
      // Cap-only move, usually relative to the flow's current rate so the
      // slack fast path gets exercised.
      const auto f = static_cast<std::size_t>(pick(*rng_, flows_.size()));
      const double kind = rng_->uniform();
      const double rate = f < last_rates_.size() ? last_rates_[f] : 0.0;
      if (kind < 0.5) {
        flows_[f].rate_cap = rate * rng_->uniform(1.5, 3.0) + 1.0;
      } else if (kind < 0.65) {
        flows_[f].rate_cap = rate * rng_->uniform(0.2, 0.9);
      } else {
        flows_[f].rate_cap = random_cap(*rng_);
      }
      return;
    }
    if (which < 0.55 && !streams_.empty()) {
      // Stream change below the knee: capacities stay bit-equal, so the
      // memo misses but the cache hits.
      streams_[static_cast<std::size_t>(pick(*rng_, streams_.size()))] =
          static_cast<int>(rng_->uniform_int(0, spec_.network.incast_knee_streams));
      return;
    }
    if (which < 0.65) {
      fresh_streams();
      return;
    }
    if (which < 0.8 && !flows_.empty()) {
      NetFlow& flow = flows_[static_cast<std::size_t>(pick(*rng_, flows_.size()))];
      if (rng_->uniform() < 0.5) {
        flow.dst = static_cast<NodeId>(pick(*rng_, static_cast<std::size_t>(n_)));
      } else {
        flow.src = random_src();
      }
      return;
    }
    if (which < 0.9) {
      if (!flows_.empty() && rng_->uniform() < 0.5) {
        flows_.erase(flows_.begin() + pick(*rng_, flows_.size()));
      } else {
        flows_.insert(flows_.begin() + pick(*rng_, flows_.size() + 1), random_flow());
      }
      return;
    }
    fresh_flows();
  }

  const MaxMinSolver::Stats& stats() const { return model_.solver_stats(); }
  const NetworkModel::WaterfillStats& work() const { return model_.waterfill_stats(); }

 private:
  NodeId random_src() {
    const bool diffuse =
        mix_ == Mix::kDiffuse || (mix_ == Mix::kInterleaved && rng_->uniform() < 0.5);
    if (diffuse) return kInvalidNode;
    if (rng_->uniform() < 0.5) return hot_[static_cast<std::size_t>(pick(*rng_, hot_.size()))];
    return static_cast<NodeId>(pick(*rng_, static_cast<std::size_t>(n_)));
  }

  NetFlow random_flow() {
    NetFlow flow;
    flow.dst = static_cast<NodeId>(pick(*rng_, static_cast<std::size_t>(n_)));
    flow.src = random_src();
    flow.rate_cap = random_cap(*rng_);
    return flow;
  }

  void fresh_flows() {
    const auto count = rng_->uniform_int(0, std::min<std::int64_t>(3 * n_ + 4, 48));
    flows_.clear();
    for (std::int64_t i = 0; i < count; ++i) flows_.push_back(random_flow());
  }

  void fresh_streams() {
    streams_.clear();
    if (rng_->uniform() < 0.2) return;  // incast disabled
    const int knee = spec_.network.incast_knee_streams;
    const int counts[] = {0, 3, knee, knee + 1, knee + 8, 60};
    for (int d = 0; d < n_; ++d) streams_.push_back(counts[pick(*rng_, 6)]);
  }

  Rng* rng_;
  int n_;
  Mix mix_;
  ClusterSpec spec_;
  NetworkModel model_;
  MaxMinSolver mirror_;
  std::vector<NodeId> hot_;
  std::vector<NetFlow> flows_;
  std::vector<int> streams_;
  std::vector<double> last_rates_;
};

TEST(NetworkSolverDifferential, RandomMutationSequencesMatchOracleBitwise) {
  Rng rng(0x0e7ULL);
  MaxMinSolver::Stats total;
  NetworkModel::WaterfillStats work;
  int checks = 0;
  for (const int n : {1, 2, 7, 64, 300}) {
    // The oracle walks every diffuse flow's n tx uses each round, so the
    // large clusters get fewer steps.
    const int sequences = n >= 300 ? 2 : n >= 64 ? 3 : 6;
    const int steps = n >= 300 ? 25 : 40;
    for (const Mix mix : {Mix::kDiffuse, Mix::kPoint, Mix::kInterleaved}) {
      for (const Nics nics :
           {Nics::kHomogeneous, Nics::kFewSpeeds, Nics::kAllDistinct, Nics::kSomeZero}) {
        for (int sequence = 0; sequence < sequences; ++sequence) {
          NetDifferential diff(n, mix, nics, rng);
          for (int step = 0; step < steps; ++step) {
            SCOPED_TRACE("n " + std::to_string(n) + " mix " +
                         std::to_string(static_cast<int>(mix)) + " nics " +
                         std::to_string(static_cast<int>(nics)) + " sequence " +
                         std::to_string(sequence) + " step " + std::to_string(step));
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
          work.rounds += diff.work().rounds;
          work.certified += diff.work().certified;
        }
      }
    }
  }
  EXPECT_GE(checks, 5000);
  // Every cache path was taken somewhere in the suite.
  EXPECT_GT(total.cache_hits, 0u);
  EXPECT_GT(total.cap_fast_hits, 0u);
  EXPECT_GT(total.full_solves, 0u);
  // Full solves took both the certificate and the water-fill.
  EXPECT_GT(work.certified, 0u);
  EXPECT_GT(work.rounds, 0u);
}

// A steady shuffle tick: every diffuse flow is held by its receive port,
// the caps track backlogs far above the granted rate.  Moving them must
// take the fast path and return the oracle's rates.
TEST(NetworkSolverDifferential, SlackCapMoveHitsFastPath) {
  const ClusterSpec spec = ClusterSpec::paper_testbed(8);
  NetworkModel net(spec);
  std::vector<NetFlow> flows;
  for (int d = 0; d < 8; ++d) {
    flows.push_back({d, kInvalidNode, 1e10});
    flows.push_back({d, (d + 3) % 8, 1e10});
  }
  net.allocate_cached(flows, {});
  for (NetFlow& flow : flows) flow.rate_cap = 2e10;
  const std::vector<double> rates = net.allocate_cached(flows, {});
  EXPECT_EQ(net.solver_stats().cap_fast_hits, 1u);
  EXPECT_EQ(net.solver_stats().full_solves, 1u);
  EXPECT_EQ(rates, net.allocate(flows, {}));
  // A binding cap forces a full solve.
  flows[0].rate_cap = 1.0;
  EXPECT_EQ(net.allocate_cached(flows, {}), net.allocate(flows, {}));
  EXPECT_EQ(net.solver_stats().full_solves, 2u);
  EXPECT_EQ(net.waterfill_stats().certified, 0u);  // the receive ports bind
}

// Stream counts that leave every receive capacity bit-equal miss the raw
// memo but hit the cache; crossing the knee re-solves.
TEST(NetworkSolverDifferential, StreamChangeBelowKneeHitsCache) {
  const ClusterSpec spec = ClusterSpec::paper_testbed(4);
  NetworkModel net(spec);
  const std::vector<NetFlow> flows{{0, kInvalidNode, kNoCap}, {1, 2, kNoCap}};
  std::vector<int> streams{1, 0, 0, 0};
  net.allocate_cached(flows, streams);
  streams[0] = spec.network.incast_knee_streams;
  net.allocate_cached(flows, streams);
  EXPECT_EQ(net.solver_stats().cache_hits, 1u);
  EXPECT_EQ(net.solver_stats().full_solves, 1u);
  streams[0] = spec.network.incast_knee_streams + 1;
  EXPECT_EQ(net.allocate_cached(flows, streams), net.allocate(flows, streams));
  EXPECT_EQ(net.solver_stats().full_solves, 2u);
}

// With one node a diffuse flow and a point flow from node 0 are the same
// problem, so swapping one for the other is a cache hit.
TEST(NetworkSolverDifferential, OneNodeDiffuseEqualsPointFromNodeZero) {
  const ClusterSpec spec = ClusterSpec::paper_testbed(1);
  NetworkModel net(spec);
  std::vector<NetFlow> flows{{0, kInvalidNode, kNoCap}, {0, 0, 5.0 * kMiBf}};
  const std::vector<double> first = net.allocate_cached(flows, {});
  flows[0].src = 0;
  EXPECT_EQ(net.allocate_cached(flows, {}), first);
  EXPECT_EQ(net.solver_stats().cache_hits, 1u);
  EXPECT_EQ(first, net.allocate(flows, {}));
}

// A tick of the 2 000-node `bigcluster` shape: ~30 reducers shuffling
// (diffuse flows, most pinned at the 12 MiB/s fetch cap, a few below it on
// their backlog) and ~200 remote map reads (point flows, capped by their
// remaining bytes or the reader's CPU), some from a few hot senders; as in
// `bigcluster`, no resource saturates.  Flows are in the runtime's order:
// by receiver, shuffles first.
// kLoose is that tick, which the uncongestion certificate answers without
// a water-fill.  In kTight, a third of the reads come from the hot
// senders, whose NICs are cut along with the fabric, so that ports
// saturate after several of their flows have frozen at their caps.
// kFabricBound is the loose tick on a fabric of 95 % of its caps' sum: the
// water-fill freezes most flows at their caps, with their ports' weight
// falls deferred, before the fabric saturates.
enum class Load { kLoose, kTight, kFabricBound };

const char* load_name(Load load) {
  return load == Load::kLoose ? "loose" : load == Load::kTight ? "tight" : "fabric-bound";
}

struct BigclusterTick {
  ClusterSpec spec;
  std::vector<NetFlow> flows;
  std::vector<int> streams;
};

BigclusterTick bigcluster_tick(Rng& rng, Load load) {
  const bool tight = load == Load::kTight;
  constexpr int kNodes = 2000;
  constexpr double kFetchCap = 12.0 * kMiBf;
  constexpr int kParallelCopies = 5;
  BigclusterTick tick{ClusterSpec::paper_testbed(kNodes), {}, {}};
  std::vector<NodeId> hot;
  for (int k = 0; k < 6; ++k) hot.push_back(static_cast<NodeId>(pick(rng, kNodes)));
  if (tight) {
    for (const NodeId h : hot) {
      NodeSpec& node = tick.spec.workers[static_cast<std::size_t>(h)];
      node.nic_bandwidth = rng.uniform(60.0, 160.0) * kMiBf;
    }
    tick.spec.network.fabric_bandwidth = rng.uniform(1500.0, 2500.0) * kMiBf;
  }
  struct Entry {
    NetFlow flow;
    bool point = false;
  };
  std::vector<Entry> entries;
  const auto diffuse = rng.uniform_int(26, 34);
  for (std::int64_t r = 0; r < diffuse; ++r) {
    const double cap = rng.uniform() < 0.8 ? kFetchCap : rng.uniform(0.5, 12.0) * kMiBf;
    entries.push_back({{static_cast<NodeId>(pick(rng, kNodes)), kInvalidNode, cap}, false});
  }
  const auto points = rng.uniform_int(180, 220);
  for (std::int64_t m = 0; m < points; ++m) {
    const NodeId src = rng.uniform() < (tight ? 0.35 : 0.12)
                           ? hot[static_cast<std::size_t>(pick(rng, hot.size()))]
                           : static_cast<NodeId>(pick(rng, kNodes));
    const double cap = rng.uniform(1.0, tight ? 45.0 : 20.0) * kMiBf;
    entries.push_back({{static_cast<NodeId>(pick(rng, kNodes)), src, cap}, true});
  }
  std::stable_sort(entries.begin(), entries.end(), [](const Entry& a, const Entry& b) {
    return a.flow.dst != b.flow.dst ? a.flow.dst < b.flow.dst : a.point < b.point;
  });
  tick.streams.assign(kNodes, 0);
  for (const Entry& entry : entries) {
    tick.flows.push_back(entry.flow);
    if (!entry.point) tick.streams[static_cast<std::size_t>(entry.flow.dst)] += kParallelCopies;
  }
  if (load == Load::kFabricBound) {
    double caps = 0.0;
    for (const NetFlow& flow : tick.flows) caps += flow.rate_cap;
    tick.spec.network.fabric_bandwidth = 0.95 * caps;
  }
  return tick;
}

// The differential suite above stops at 300 nodes.  At `bigcluster` scale
// the point ports fold hundreds of diffuse terms and the queued ports take
// many deferred weight falls; in the tight variant ports come due after
// them and saturate, so the deferred segments are replayed and read.  The
// loose tick is certified: every flow at its cap, no round run.
TEST(NetworkSolverDifferential, BigclusterShapedSolvesMatchOracleBitwise) {
  Rng rng(0xb16c1ULL);
  for (const Load load : {Load::kLoose, Load::kTight, Load::kFabricBound}) {
    NetworkModel::WaterfillStats work;
    std::size_t below_cap = 0;
    for (int solve = 0; solve < 4; ++solve) {
      SCOPED_TRACE(std::string(load_name(load)) + " solve " + std::to_string(solve));
      const BigclusterTick tick = bigcluster_tick(rng, load);
      NetworkModel net(tick.spec);
      const std::vector<double> expected = net.allocate(tick.flows, tick.streams);
      const std::vector<double>& actual = net.allocate_cached(tick.flows, tick.streams);
      ASSERT_EQ(actual.size(), expected.size());
      for (std::size_t i = 0; i < expected.size(); ++i) {
        ASSERT_EQ(actual[i], expected[i]) << "flow " << i;
        ASSERT_EQ(std::signbit(actual[i]), std::signbit(expected[i])) << "flow " << i;
        if (actual[i] < tick.flows[i].rate_cap) ++below_cap;
      }
      EXPECT_EQ(net.solver_stats().full_solves, 1u);
      const NetworkModel::WaterfillStats& got = net.waterfill_stats();
      work.rounds += got.rounds;
      work.replayed_steps += got.replayed_steps;
      work.deferred_reweighs += got.deferred_reweighs;
      work.replayed_segments += got.replayed_segments;
      work.fold_steps += got.fold_steps;
      work.certified += got.certified;
    }
    if (load == Load::kLoose) {
      EXPECT_EQ(below_cap, 0u);  // every flow froze at its cap
      EXPECT_EQ(work.certified, 4u);
      EXPECT_EQ(work.rounds, 0u);
      continue;
    }
    // A resource saturated (flows froze below their caps) after queued
    // ports took deferred weight falls.
    EXPECT_EQ(work.certified, 0u);
    EXPECT_GT(below_cap, 0u);
    EXPECT_GT(work.deferred_reweighs, 0u);
    if (load == Load::kTight) {
      // Ports with deferred segments came due and were replayed under them.
      EXPECT_GT(work.replayed_segments, 0u);
      EXPECT_GT(work.replayed_steps, 0u);
    }
  }
}

// Scales every positive finite cap by one factor, so that the most loaded
// resource carries caps, weighted as the flows use it, summing to
// (1 + offset) times its capacity.  Leaves the caps alone when no resource
// carries a positive cap or a loaded one has no capacity.
void scale_to_boundary(const NetworkModel& model, std::vector<NetFlow>& flows,
                       const std::vector<int>& streams, double offset) {
  std::vector<double> capacities;
  std::vector<FlowDemand> demands;
  model.build_problem(flows, streams, capacities, demands);
  std::vector<double> load(capacities.size(), 0.0);
  for (std::size_t f = 0; f < flows.size(); ++f) {
    const double cap = flows[f].rate_cap;
    if (!(cap > 0.0) || !std::isfinite(cap)) continue;
    for (const ResourceUse& use : demands[f].uses) {
      load[static_cast<std::size_t>(use.resource)] += use.weight * cap;
    }
  }
  double ratio = 0.0;
  for (std::size_t r = 0; r < load.size(); ++r) {
    if (load[r] > 0.0) ratio = std::max(ratio, load[r] / capacities[r]);
  }
  if (ratio == 0.0 || !std::isfinite(ratio)) return;
  const double scale = (1.0 + offset) / ratio;
  for (NetFlow& flow : flows) {
    if (flow.rate_cap > 0.0 && std::isfinite(flow.rate_cap)) flow.rate_cap *= scale;
  }
}

// The uncongestion certificate at its edge: random 16- and 2 000-node
// problems whose most loaded resource carries caps within 1e-6 (relative)
// of its capacity, on either side.  Below it by more than the margin the
// certificate holds; closer, it declines and the water-fill freezes every
// flow at its cap; above, a resource saturates.  Point, diffuse, zero,
// absent and NaN caps, incast streams and oversubscribed fabrics are
// mixed in.  Each solve must equal the oracle bit for bit, and so must the
// call after one cap moves, which reads frozen_by_cap_ through the
// cap-slack rule.
TEST(NetworkSolverDifferential, CertificateBoundaryMatchesOracleBitwise) {
  Rng rng(0xce27ULL);
  std::uint64_t certified = 0;
  std::uint64_t waterfilled = 0;
  for (const int n : {16, 2000}) {
    const int problems = n == 16 ? 600 : 24;
    for (int p = 0; p < problems; ++p) {
      SCOPED_TRACE("n " + std::to_string(n) + " problem " + std::to_string(p));
      BigclusterTick tick;
      if (n == 16) {
        const Nics nics[] = {Nics::kHomogeneous, Nics::kFewSpeeds, Nics::kAllDistinct};
        tick.spec = random_spec(n, nics[pick(rng, 3)], rng);
        const auto count = rng.uniform_int(1, 48);
        for (std::int64_t i = 0; i < count; ++i) {
          const bool diffuse = rng.uniform() < 0.4;
          tick.flows.push_back({static_cast<NodeId>(pick(rng, n)),
                                diffuse ? kInvalidNode : static_cast<NodeId>(pick(rng, n)),
                                rng.uniform(1.0, 30.0) * kMiBf});
        }
        if (rng.uniform() < 0.5) {
          // A receiver whose two highest caps nearly tie: at the boundary
          // the port has almost nothing left when the lower one freezes,
          // so without the margin it would read saturated while the higher
          // one still sits a little below its cap.
          const auto dst = static_cast<NodeId>(pick(rng, n));
          const double top = rng.uniform(20.0, 40.0) * kMiBf;
          const auto below = rng.uniform_int(8, 20);
          for (std::int64_t i = 0; i < below; ++i) {
            tick.flows.push_back(
                {dst, static_cast<NodeId>(pick(rng, n)), top * rng.uniform(0.5, 0.95)});
          }
          tick.flows.push_back({dst, static_cast<NodeId>(pick(rng, n)), top});
          tick.flows.push_back(
              {dst, static_cast<NodeId>(pick(rng, n)), top * (1.0 + rng.uniform(1.5e-9, 1.5e-8))});
        }
        const int knee = tick.spec.network.incast_knee_streams;
        for (int d = 0; d < n; ++d) {
          tick.streams.push_back(rng.uniform() < 0.3 ? knee + static_cast<int>(pick(rng, 20)) : 0);
        }
      } else {
        tick = bigcluster_tick(rng, rng.uniform() < 0.5 ? Load::kLoose : Load::kTight);
      }
      // Caps the certificate reads past (zero) or declines on (absent, NaN).
      for (NetFlow& flow : tick.flows) {
        const double which = rng.uniform();
        if (which < 0.08) flow.rate_cap = 0.0;
        if (which >= 0.08 && which < 0.09) flow.rate_cap = -0.0;
      }
      if (rng.uniform() < 0.1) {
        NetFlow& flow = tick.flows[static_cast<std::size_t>(pick(rng, tick.flows.size()))];
        flow.rate_cap = rng.uniform() < 0.5 ? kNoCap : std::numeric_limits<double>::quiet_NaN();
      }
      NetworkModel model(tick.spec);
      const double offset =
          (rng.uniform() < 0.5 ? -1.0 : 1.0) * std::exp(rng.uniform(std::log(1e-12), std::log(1e-6)));
      scale_to_boundary(model, tick.flows, tick.streams, offset);

      MaxMinSolver mirror;
      std::vector<double> rates;
      check_against_oracle(model, mirror, tick.flows, tick.streams, rates);
      if (testing::Test::HasFatalFailure()) return;
      const NetworkModel::WaterfillStats& work = model.waterfill_stats();
      certified += work.certified;
      waterfilled += model.solver_stats().full_solves - work.certified;

      // One cap moves: above its rate (the cap-slack rule reads whether its
      // cap froze it), below it, or away.
      const auto f = static_cast<std::size_t>(pick(rng, tick.flows.size()));
      const double kind = rng.uniform();
      tick.flows[f].rate_cap = kind < 0.6   ? rates[f] * rng.uniform(1.5, 3.0) + 1.0
                               : kind < 0.8 ? rates[f] * rng.uniform(0.2, 0.9)
                                            : kNoCap;
      check_against_oracle(model, mirror, tick.flows, tick.streams, rates);
      if (testing::Test::HasFatalFailure()) return;
    }
  }
  // Both sides of the certificate were taken many times.
  EXPECT_GT(certified, 80u);
  EXPECT_GT(waterfilled, 300u);
}

// The water-fill's work counters on one seeded `bigcluster`-shaped solve.
// They are deterministic, so a change that brings back replaying retired
// ports or the O(diffuse) fold, or stops certifying the loose tick, shows
// here on any host.
TEST(NetworkModel, WaterfillCountersPinnedOnBigclusterShapedSolve) {
  struct Pin {
    Load load;
    NetworkModel::WaterfillStats work;
  };
  // {rounds, replayed steps, deferred weight falls, replayed segments, fold
  // steps, certified}
  const Pin pins[] = {{Load::kLoose, {0, 0, 0, 0, 0, 1}},
                      {Load::kTight, {43, 120, 528, 20, 1715, 0}},
                      {Load::kFabricBound, {162, 0, 1378, 0, 2495, 0}}};
  for (const Pin& pin : pins) {
    SCOPED_TRACE(load_name(pin.load));
    Rng rng(0x5eed2000ULL);
    const BigclusterTick tick = bigcluster_tick(rng, pin.load);
    NetworkModel net(tick.spec);
    net.allocate_cached(tick.flows, tick.streams);
    const NetworkModel::WaterfillStats& work = net.waterfill_stats();
    EXPECT_EQ(work.rounds, pin.work.rounds);
    EXPECT_EQ(work.replayed_steps, pin.work.replayed_steps);
    EXPECT_EQ(work.deferred_reweighs, pin.work.deferred_reweighs);
    EXPECT_EQ(work.replayed_segments, pin.work.replayed_segments);
    EXPECT_EQ(work.fold_steps, pin.work.fold_steps);
    EXPECT_EQ(work.certified, pin.work.certified);
  }
}

// add_run() against the loop it replaces, bit for bit: 1/n weights for
// n up to 20 000 (dyadic ones among them), runs up to 30 000 long, sums
// from 1 up to far past where 1/n falls below half an ulp, sums a few
// ulps either side of a binade edge, and sums in the binade where 1/n is
// an odd multiple of half an ulp, so that every addition is a tie.
TEST(NetworkModel, AddRunMatchesSteppingLoop) {
  Rng rng(0xadd5ULL);
  std::uint64_t ties = 0;
  std::uint64_t edges = 0;
  for (int c = 0; c < 200000; ++c) {
    const double kind_n = rng.uniform();
    std::int64_t n = 0;
    if (kind_n < 0.15) {
      n = std::int64_t{1} << rng.uniform_int(0, 14);  // 1 .. 16 384, with 16 and 1 024
    } else if (kind_n < 0.6) {
      n = static_cast<std::int64_t>(std::exp(rng.uniform(0.0, std::log(20000.0))));
    } else {
      n = rng.uniform_int(1, 20000);
    }
    const double w = 1.0 / static_cast<double>(n);
    const auto k = static_cast<std::uint64_t>(std::exp(rng.uniform(0.0, std::log(30001.0))) - 1.0);
    double x = 0.0;
    const double kind_x = rng.uniform();
    if (kind_x < 0.3) {
      x = rng.uniform(1.0, 300.0);
    } else if (kind_x < 0.45) {
      x = std::ldexp(rng.uniform(1.0, 2.0), static_cast<int>(rng.uniform_int(8, 45)));
    } else if (kind_x < 0.75) {
      // A few ulps either side of 2^e.
      const double edge = std::ldexp(1.0, static_cast<int>(rng.uniform_int(0, 30)));
      x = edge;
      const auto offset = rng.uniform_int(-40, 40);
      for (std::int64_t j = 0; j < std::abs(offset); ++j) {
        x = std::nextafter(x, offset < 0 ? 0.0 : kInf);
      }
      ++edges;
    } else {
      // The binade whose half ulp is w's lowest set bit: fl(x + w) is a tie.
      int lowest = 0;
      std::frexp(w, &lowest);
      lowest -= 53 - std::countr_zero(std::bit_cast<std::uint64_t>(w) | (std::uint64_t{1} << 52));
      x = std::ldexp(rng.uniform(1.0, 2.0), lowest + 53);
      ++ties;
    }
    if (x < w) x = w;
    double want = x;
    for (std::uint64_t i = 0; i < k; ++i) want += w;
    std::uint64_t steps = 0;
    const double got = add_run(x, w, k, steps);
    ASSERT_EQ(std::bit_cast<std::uint64_t>(got), std::bit_cast<std::uint64_t>(want))
        << "x " << x << " n " << n << " k " << k;
    ASSERT_LE(steps, k);
  }
  EXPECT_GT(ties, 40000u);
  EXPECT_GT(edges, 50000u);
}

// The part of an SmrError message after the source location.
std::string check_message(const std::function<void()>& call) {
  try {
    call();
  } catch (const SmrError& error) {
    const std::string what = error.what();
    return what.substr(what.find(" — ") == std::string::npos ? 0 : what.find(" — "));
  }
  return "no SmrError";
}

TEST(NetworkModel, InvalidSrcThrows) {
  const ClusterSpec spec = ClusterSpec::paper_testbed(4);
  NetworkModel net(spec);
  const std::vector<NetFlow> flows{{0, kInvalidNode, kNoCap}, {1, 4, kNoCap}};
  EXPECT_THROW(net.allocate(flows, {}), SmrError);
  EXPECT_THROW(net.allocate_cached(flows, {}), SmrError);
  const std::string oracle = check_message([&] { net.allocate(flows, {}); });
  EXPECT_EQ(oracle, " — flow with invalid src 4");
  EXPECT_EQ(check_message([&] { net.allocate_cached(flows, {}); }), oracle);
}

TEST(NetworkModel, InvalidDstThrowsOnCachedPath) {
  const ClusterSpec spec = ClusterSpec::paper_testbed(4);
  NetworkModel net(spec);
  const std::vector<NetFlow> flows{{-1, 2, kNoCap}};
  const std::string oracle = check_message([&] { net.allocate(flows, {}); });
  EXPECT_EQ(oracle, " — flow with invalid dst -1");
  EXPECT_EQ(check_message([&] { net.allocate_cached(flows, {}); }), oracle);
}

TEST(NetworkModel, NegativeCapacityThrowsLikeOracle) {
  ClusterSpec spec = ClusterSpec::paper_testbed(4);
  spec.workers[2].nic_bandwidth = -1.0;  // rx port 2 and tx port 6
  NetworkModel net(spec);
  const std::vector<NetFlow> flows{{0, 1, kNoCap}};
  const std::string oracle = check_message([&] { net.allocate(flows, {}); });
  EXPECT_EQ(oracle, " — negative capacity for resource 2");
  EXPECT_EQ(check_message([&] { net.allocate_cached(flows, {}); }), oracle);
  // A failed solve leaves nothing cached: the same call throws again.
  EXPECT_EQ(check_message([&] { net.allocate_cached(flows, {}); }), oracle);
}

}  // namespace
}  // namespace smr::cluster
