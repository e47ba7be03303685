#include "smr/cluster/network_model.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <functional>
#include <limits>

#include "smr/common/error.hpp"

namespace smr::cluster {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kUnitRoundoff = std::numeric_limits<double>::epsilon() / 2.0;

double saturated_below(double capacity) { return kMaxMinEps * (capacity + 1.0); }

bool same_flow(const NetFlow& a, const NetFlow& b) {
  return a.dst == b.dst && a.src == b.src && a.rate_cap == b.rate_cap;
}

}  // namespace

void NetworkModel::port_capacities(std::span<const int> fetch_streams_per_node,
                                   std::vector<double>& capacities) const {
  const auto& spec = *spec_;
  const int n = spec.worker_count();
  SMR_CHECK(fetch_streams_per_node.empty() ||
            fetch_streams_per_node.size() == static_cast<std::size_t>(n));

  // Resource layout: [0, n) receive ports, [n, 2n) transmit ports, 2n fabric.
  capacities.assign(static_cast<std::size_t>(2 * n) + 1, 0.0);
  for (int i = 0; i < n; ++i) {
    const auto& node = spec.workers[static_cast<std::size_t>(i)];
    double rx = node.nic_bandwidth;
    if (!fetch_streams_per_node.empty()) {
      rx *= spec.network.incast_efficiency(fetch_streams_per_node[static_cast<std::size_t>(i)]);
    }
    capacities[static_cast<std::size_t>(i)] = rx;
    capacities[static_cast<std::size_t>(n + i)] = node.nic_bandwidth;
  }
  capacities[static_cast<std::size_t>(2 * n)] = spec.network.fabric_bandwidth;
}

void NetworkModel::check_flows(std::span<const NetFlow> flows) const {
  const int n = spec_->worker_count();
  for (const NetFlow& flow : flows) {
    SMR_CHECK_MSG(flow.dst >= 0 && flow.dst < n, "flow with invalid dst " << flow.dst);
    if (flow.src != kInvalidNode) {
      SMR_CHECK_MSG(flow.src >= 0 && flow.src < n, "flow with invalid src " << flow.src);
    }
  }
}

void NetworkModel::build_problem(std::span<const NetFlow> flows,
                                 std::span<const int> fetch_streams_per_node,
                                 std::vector<double>& capacities,
                                 std::vector<FlowDemand>& demands) const {
  port_capacities(fetch_streams_per_node, capacities);
  check_flows(flows);
  const int n = spec_->worker_count();
  const double diffuse_weight = 1.0 / static_cast<double>(n);
  demands.resize(flows.size());
  for (std::size_t f = 0; f < flows.size(); ++f) {
    const auto& flow = flows[f];
    FlowDemand& d = demands[f];
    d.rate_cap = flow.rate_cap;
    d.uses.clear();
    d.uses.push_back({flow.dst, 1.0});                       // receive port
    d.uses.push_back({2 * n, 1.0});                          // fabric
    if (flow.src == kInvalidNode) {
      // Diffuse: spread across every transmit port.
      for (int s = 0; s < n; ++s) d.uses.push_back({n + s, diffuse_weight});
    } else {
      d.uses.push_back({n + flow.src, 1.0});
    }
  }
}

std::vector<double> NetworkModel::allocate(
    std::span<const NetFlow> flows, std::span<const int> fetch_streams_per_node) const {
  if (flows.empty()) return {};
  std::vector<double> capacities;
  std::vector<FlowDemand> demands;
  build_problem(flows, fetch_streams_per_node, capacities, demands);
  return max_min_allocate(capacities, demands);
}

const std::vector<double>& NetworkModel::allocate_cached(
    std::span<const NetFlow> flows, std::span<const int> fetch_streams_per_node) {
  if (flows.empty()) return empty_;

  // Raw-input memo: capacities and demands are pure functions of (flows,
  // fetch_streams) for the instance's fixed cluster spec, so bit-equal raw
  // inputs are guaranteed to reproduce the previous result without
  // rebuilding the capacities or running the cache comparison.
  if (valid_ && flows.size() == flows_.size() &&
      fetch_streams_per_node.size() == streams_.size() &&
      std::equal(flows.begin(), flows.end(), flows_.begin(), same_flow) &&
      std::equal(fetch_streams_per_node.begin(), fetch_streams_per_node.end(),
                 streams_.begin())) {
    ++stats_.calls;
    ++stats_.cache_hits;
    return rates_;
  }

  port_capacities(fetch_streams_per_node, next_capacities_);
  check_flows(flows);
  ++stats_.calls;
  bool caps_only = false;
  const bool reuse = cache_usable(flows, caps_only);
  flows_.assign(flows.begin(), flows.end());
  streams_.assign(fetch_streams_per_node.begin(), fetch_streams_per_node.end());
  if (reuse) {
    ++(caps_only ? stats_.cap_fast_hits : stats_.cache_hits);
    return rates_;
  }

  ++stats_.full_solves;
  capacities_.swap(next_capacities_);
  valid_ = false;  // a throwing solve must not leave a half-written cache
  if (caps_fit()) {
    // Every flow freezes at its cap, as the water-fill would write it.
    ++work_.certified;
    const std::size_t nf = flows_.size();
    rates_.resize(nf);
    for (std::size_t i = 0; i < nf; ++i) {
      rates_[i] = flows_[i].rate_cap > 0.0 ? flows_[i].rate_cap : 0.0;
    }
    frozen_by_cap_.assign(nf, true);
    degenerate_ = false;
  } else {
    waterfill();
  }
  valid_ = true;
  return rates_;
}

// The uncongestion certificate (docs/PERF.md §16).  When every flow has a
// finite cap and each resource's positive caps, weighted as its flows use
// it, stay below its capacity by more than the water-fill's saturation
// threshold and rounding, no round saturates a resource: each round's
// delta is the lowest live cap's, and every live flow freezes at its own
// cap.  A flow with a cap <= 0 freezes at +0.0 by its cap either way.
// O(flows): rx ports and point tx ports are summed in load_, and the tx
// ports without a point flow carry only the diffuse share, checked against
// the least tx capacity.
bool NetworkModel::caps_fit() {
  const int n = spec_->worker_count();
  const auto un = static_cast<std::size_t>(n);
  if (load_.empty()) {
    load_.assign(2 * un, 0.0);
    // Every capacity is >= 0 and not NaN for any stream counts when these
    // hold, so the water-fill's capacity check cannot fail.
    const NetworkSpec& network = spec_->network;
    bool sound = network.fabric_bandwidth >= 0.0 && network.incast_overhead >= 0.0 &&
                 std::isfinite(network.incast_overhead);
    tx_floor_ = kInf;
    for (const NodeSpec& node : spec_->workers) {
      sound = sound && node.nic_bandwidth >= 0.0 && std::isfinite(node.nic_bandwidth);
      tx_floor_ = std::min(tx_floor_, node.nic_bandwidth);
    }
    if (!sound) tx_floor_ = std::numeric_limits<double>::quiet_NaN();
  }
  if (std::isnan(tx_floor_)) return false;

  const double margin = 1e-9 + 16.0 * kUnitRoundoff * static_cast<double>(flows_.size() + 8);
  const auto fits = [margin](double load, double capacity) {
    return load * (1.0 + 4.0 * margin) + 4.0 * saturated_below(capacity) + margin * capacity <
           capacity;
  };
  const auto add = [this](std::size_t resource, double cap) {
    if (load_[resource] == 0.0) loaded_.push_back(static_cast<std::uint32_t>(resource));
    load_[resource] += cap;
  };
  bool fit = true;
  double fabric = 0.0;
  double diffuse = 0.0;
  loaded_.clear();
  for (const NetFlow& flow : flows_) {
    const double cap = flow.rate_cap;
    if (cap == kNoCap || std::isnan(cap)) {
      fit = false;
      break;
    }
    if (cap <= 0.0) continue;
    add(static_cast<std::size_t>(flow.dst), cap);
    fabric += cap;
    if (flow.src == kInvalidNode) {
      diffuse += cap;
    } else {
      add(un + static_cast<std::size_t>(flow.src), cap);
    }
  }
  const double diffuse_share = diffuse / static_cast<double>(n);
  fit = fit && (fabric == 0.0 || fits(fabric, capacities_[2 * un])) &&
        (diffuse == 0.0 || fits(diffuse_share, tx_floor_));
  for (const std::uint32_t r : loaded_) {
    fit = fit && fits(r < un ? load_[r] : load_[r] + diffuse_share, capacities_[r]);
    load_[r] = 0.0;
  }
  return fit;
}

// MaxMinSolver's cache rule on the generic problem, read off the topology:
// equal capacities, equal resource uses (same dst and src), and every moved
// cap slack.
bool NetworkModel::cache_usable(std::span<const NetFlow> flows, bool& caps_only) const {
  caps_only = false;
  if (!valid_ || flows.size() != flows_.size()) return false;
  if (!std::equal(next_capacities_.begin(), next_capacities_.end(), capacities_.begin(),
                  capacities_.end())) {
    return false;
  }
  // With one node a diffuse flow's only tx use is port 0 at weight 1/1,
  // the same use as a point flow from node 0.
  const bool one_node = spec_->worker_count() == 1;
  for (std::size_t i = 0; i < flows.size(); ++i) {
    const NetFlow& now = flows[i];
    const NetFlow& was = flows_[i];
    if (now.dst != was.dst || (now.src != was.src && !one_node)) return false;
    if (now.rate_cap == was.rate_cap) continue;
    if (degenerate_ || !cap_move_is_slack(now.rate_cap, rates_[i], frozen_by_cap_[i])) {
      return false;
    }
    caps_only = true;
  }
  return true;
}

double add_run(double x, double w, std::uint64_t k, std::uint64_t& steps) {
  constexpr std::uint64_t kHidden = std::uint64_t{1} << 52;
  constexpr std::uint64_t kTop = std::uint64_t{1} << 53;  // significands in [kHidden, kTop)
  const auto wbits = std::bit_cast<std::uint64_t>(w);
  const std::uint64_t wsig = (wbits & (kHidden - 1)) | kHidden;
  const auto wexp = static_cast<int>(wbits >> 52);
  while (k > 0) {
    ++steps;
    const auto bits = std::bit_cast<std::uint64_t>(x);
    // w in units of u, x's ulp: q + rem / 2^shift.
    const int shift = static_cast<int>(bits >> 52) - wexp;
    if (shift > 53) return x;  // w < u/2: every addition rounds back to x
    const std::uint64_t q = wsig >> shift;
    const std::uint64_t rem = wsig & ((std::uint64_t{1} << shift) - 1);
    const std::uint64_t half = shift == 0 ? 0 : std::uint64_t{1} << (shift - 1);
    if (shift > 0 && rem == half) {  // a tie: the rounding reads x's last bit
      x += w;
      --k;
      continue;
    }
    const std::uint64_t r = q + (rem > half ? 1 : 0);  // fl(x + w) = x + r·u in the binade
    if (r == 0) return x;
    // Addition i (from 0) stays in the binade iff x + i·r·u + w < 2^(e+1),
    // i.e. sig + i·r + q <= kTop - 1 in units of u, whatever rem is.
    const std::uint64_t room = kTop - 1 - ((bits & (kHidden - 1)) | kHidden);
    const std::uint64_t in_binade = q > room ? 0 : (room - q) / r + 1;
    const std::uint64_t m = std::min(in_binade, k);
    x = std::bit_cast<double>(bits + m * r);  // a carry lands exactly on 2^(e+1)
    k -= m;
    if (k > 0) {  // crosses into the next binade
      x += w;
      --k;
    }
  }
  return x;
}

// The oracle's sum for this port: its live flows in ascending index order,
// diffuse ones adding 1/n and the port's point flows adding 1.0.  A binary
// search in the sorted diffuse list counts each run of diffuse terms; the
// first run, from 0, is diffuse_sum_, and every later one is added to a sum
// >= 1 by add_run().
double NetworkModel::fold(const PointPort& point, double diffuse_weight) {
  if (point.begin == point.end) return diffuse_sum_[diffuse_.size()];
  auto d = diffuse_.cbegin();
  double sumw = 0.0;
  for (std::uint32_t k = point.begin; k < point.end; ++k) {
    const auto next = std::lower_bound(d, diffuse_.cend(), point_flows_[k]);
    const auto run = static_cast<std::uint64_t>(next - d);
    sumw = k == point.begin ? diffuse_sum_[run]
                            : add_run(sumw, diffuse_weight, run, work_.fold_steps);
    sumw += 1.0;
    ++work_.fold_steps;
    d = next;
  }
  return add_run(sumw, diffuse_weight, static_cast<std::uint64_t>(diffuse_.cend() - d),
                 work_.fold_steps);
}

std::uint32_t NetworkModel::add_port(double capacity, double sumw, bool tx) {
  Port port;
  port.remaining = capacity;
  port.saturated_below = saturated_below(capacity);
  port.sumw = sumw;
  port.tx = tx;
  ports_.push_back(port);
  return static_cast<std::uint32_t>(ports_.size() - 1);
}

// The oracle's update of this resource for rounds [synced, end), under the
// weight sum it had throughout.
void NetworkModel::replay(Port& port, std::uint32_t end, double sumw) {
  for (std::uint32_t k = port.synced; k < end; ++k) {
    port.remaining -= deltas_[k] * sumw;
    if (port.remaining < 0.0) port.remaining = 0.0;  // numerical guard
  }
  work_.replayed_steps += end - port.synced;
  port.synced = end;
}

// Replay every round since the port's last sync: each deferred segment
// under its own weight, in order, then the rest under the current one.
void NetworkModel::sync(Port& port) {
  for (std::uint32_t s = port.first; s != kNoSegment; s = segments_[s].next) {
    replay(port, segments_[s].end, segments_[s].sumw);
    ++work_.replayed_segments;
  }
  port.first = port.last = kNoSegment;
  replay(port, static_cast<std::uint32_t>(deltas_.size()), port.sumw);
}

// Every caller has just synced the port (or it has seen no round yet).
void NetworkModel::requeue(std::uint32_t id, double level, double margin) {
  Port& port = ports_[id];
  const double reach = level + port.remaining / port.sumw;
  double key = reach - margin * reach - port.saturated_below / port.sumw;
  if (std::isnan(key)) key = kInf;  // infinite remaining: due only on an unbounded round
  ++port.version;
  port.queued = true;
  due_.push_back({key, id, port.version});
  std::push_heap(due_.begin(), due_.end(), std::greater<>{});
}

// Weights only fall during a solve.  A queued port is not due, so it keeps
// its key, a lower bound under the heavier weight and so under the lighter
// one, and the weight it had until now becomes a deferred segment that
// sync() replays when the port comes due.  A port popped this round was
// synced by it and is requeued under the new weight.
void NetworkModel::reweigh(std::uint32_t id, double sumw, double level, double margin) {
  Port& port = ports_[id];
  const double old = port.sumw;
  port.sumw = sumw;
  if (sumw == 0.0) {
    ++port.version;  // no live flow uses it, now or later: retire it unsynced
    port.queued = false;
    return;
  }
  if (!port.queued) {
    requeue(id, level, margin);
    return;
  }
  ++work_.deferred_reweighs;
  const auto now = static_cast<std::uint32_t>(deltas_.size());
  const std::uint32_t since = port.first == kNoSegment ? port.synced : segments_[port.last].end;
  if (since == now) return;  // the old weight saw no round
  const auto id_segment = static_cast<std::uint32_t>(segments_.size());
  segments_.push_back({old, now, kNoSegment});
  (port.first == kNoSegment ? port.first : segments_[port.last].next) = id_segment;
  port.last = id_segment;
}

// Progressive filling with max_min_allocate()'s exact arithmetic, on the
// network's shape (the argument is docs/PERF.md §8):
//   * every active flow gains the same delta each round from 0, so all
//     share one `level`; a flow's rate is written once, when it freezes;
//   * rx and fabric weights are 1.0, so their weight sums are exact counts;
//   * a tx port without a live point flow sums k diffuse weights, the
//     precomputed diffuse_sum_[k]; ports with one fold their own terms;
//   * tx ports without a point flow at the start share one remaining value
//     per starting capacity (same subtractions from the same start);
//   * every delta candidate is strictly positive, so visiting them in a
//     different order than the oracle cannot change the minimum, and only
//     the lowest live cap can win: fl(cap - level) is monotone in cap.
//
// Ports (every resource but the fabric) are lazy.  Each keeps its exact
// remaining value as of its last sync and is replayed from the delta log,
// under the weights it had (see reweigh()), only when it comes due.  It is
// due once the level may reach `key` = reach - margin * reach -
// saturated_below / sumw, where reach = level + remaining / sumw at the
// sync.  Until then, by the error
// bounds below, its candidate stays >= every round's delta and it stays
// above its saturation threshold, so it cannot change any round: each
// replayed step is within 2u * remaining of exact, the level within
// u * level per round, the rounds are at most the active flows + 1, and
// margin = 16u * (flows + 8) + 1e-9 covers their sum with room to spare.
void NetworkModel::waterfill() {
  const int n = spec_->worker_count();
  const auto un = static_cast<std::size_t>(n);
  const std::size_t nf = flows_.size();
  rates_.assign(nf, 0.0);
  frozen_by_cap_.assign(nf, false);
  degenerate_ = false;

  for (std::size_t r = 0; r < capacities_.size(); ++r) {
    SMR_CHECK_MSG(capacities_[r] >= 0.0, "negative capacity for resource " << r);
  }
  const double* rx_capacity = capacities_.data();
  const double* tx_capacity = rx_capacity + n;
  double fabric = capacities_[2 * un];
  const double fabric_saturated = saturated_below(fabric);
  // Any empty tx port blocks every diffuse flow; once true it stays true.
  bool tx_empty = false;
  for (std::size_t s = 0; s < un; ++s) {
    if (tx_capacity[s] <= saturated_below(tx_capacity[s])) tx_empty = true;
  }

  // A flow with a zero cap, or touching an empty resource, never moves.
  rx_live_.assign(un, 0);
  tx_slot_.assign(un, 0);  // point-flow count per tx port, then its slot
  active_.clear();
  diffuse_.clear();
  live_.assign(nf, 0);
  for (std::size_t i = 0; i < nf; ++i) {
    const NetFlow& flow = flows_[i];
    const auto dst = static_cast<std::size_t>(flow.dst);
    const bool diffuse = flow.src == kInvalidNode;
    bool dead = flow.rate_cap != kNoCap && flow.rate_cap <= 0.0;
    if (dead) frozen_by_cap_[i] = true;
    if (rx_capacity[dst] <= saturated_below(rx_capacity[dst]) || fabric <= fabric_saturated) {
      dead = true;
    }
    if (diffuse ? tx_empty
                : tx_capacity[flow.src] <= saturated_below(tx_capacity[flow.src])) {
      dead = true;
    }
    if (dead) continue;
    live_[i] = 1;
    active_.push_back(static_cast<std::uint32_t>(i));
    ++rx_live_[dst];
    if (diffuse) {
      diffuse_.push_back(static_cast<std::uint32_t>(i));
    } else {
      ++tx_slot_[static_cast<std::size_t>(flow.src)];
    }
  }

  // The ports: receive ports in use, tx ports with a point flow (each with
  // an ascending slice of point_flows_), and one per capacity group of the
  // other tx ports when diffuse flows load them.
  ports_.clear();
  segments_.clear();
  due_.clear();
  deltas_.clear();
  rx_port_.resize(un);
  for (std::size_t d = 0; d < un; ++d) {
    if (rx_live_[d] > 0) {
      rx_port_[d] = add_port(rx_capacity[d], static_cast<double>(rx_live_[d]), false);
    }
  }
  point_ports_.clear();
  point_flows_.resize(active_.size() - diffuse_.size());
  group_capacities_.clear();
  std::uint32_t offset = 0;
  for (std::size_t s = 0; s < un; ++s) {
    const int points = tx_slot_[s];
    if (points == 0) {
      tx_slot_[s] = -1;
      if (!diffuse_.empty() &&
          (group_capacities_.empty() || group_capacities_.back() != tx_capacity[s])) {
        group_capacities_.push_back(tx_capacity[s]);
      }
      continue;
    }
    PointPort point;
    point.port = add_port(tx_capacity[s], 0.0, true);
    point.begin = point.end = offset;
    offset += static_cast<std::uint32_t>(points);
    tx_slot_[s] = static_cast<int>(point_ports_.size());
    point_ports_.push_back(point);
  }
  for (const std::uint32_t i : active_) {
    if (flows_[i].src != kInvalidNode) point_flows_[point_port(flows_[i].src).end++] = i;
  }
  const double diffuse_weight = 1.0 / static_cast<double>(n);
  diffuse_sum_.assign(diffuse_.size() + 1, 0.0);
  for (std::size_t k = 1; k < diffuse_sum_.size(); ++k) {
    diffuse_sum_[k] = diffuse_sum_[k - 1] + diffuse_weight;
  }
  for (const PointPort& point : point_ports_) {
    ports_[point.port].sumw = fold(point, diffuse_weight);
  }
  std::sort(group_capacities_.begin(), group_capacities_.end());
  group_capacities_.erase(std::unique(group_capacities_.begin(), group_capacities_.end()),
                          group_capacities_.end());
  groups_.clear();
  for (const double capacity : group_capacities_) {
    groups_.push_back(add_port(capacity, diffuse_sum_[diffuse_.size()], true));
  }

  // Capped flows by cap (a NaN cap never wins a round or freezes a flow).
  by_cap_.clear();
  for (const std::uint32_t i : active_) {
    const double cap = flows_[i].rate_cap;
    if (cap != kNoCap && !std::isnan(cap)) by_cap_.push_back({cap, i});
  }
  std::sort(by_cap_.begin(), by_cap_.end(),
            [](const Capped& a, const Capped& b) { return a.cap < b.cap; });

  const double margin =
      1e-9 + 16.0 * kUnitRoundoff * static_cast<double>(active_.size() + 8);
  for (std::uint32_t id = 0; id < ports_.size(); ++id) requeue(id, 0.0, margin);

  double level = 0.0;
  std::size_t live = active_.size();
  std::size_t lowest_cap = 0;
  while (live > 0) {
    while (lowest_cap < by_cap_.size() && live_[by_cap_[lowest_cap].flow] == 0) ++lowest_cap;
    double delta = kInf;
    if (lowest_cap < by_cap_.size()) {
      delta = std::min(delta, by_cap_[lowest_cap].cap - level);
    }
    const auto fabric_sumw = static_cast<double>(live);
    delta = std::min(delta, fabric / fabric_sumw);
    // Bring in every port that may now matter.
    touched_.clear();
    while (!due_.empty()) {
      const Due top = due_.front();
      Port& port = ports_[top.port];
      if (top.version == port.version && !(top.key <= level + delta)) break;
      std::pop_heap(due_.begin(), due_.end(), std::greater<>{});
      due_.pop_back();
      if (top.version != port.version) continue;  // stale entry
      port.queued = false;
      sync(port);
      delta = std::min(delta, port.remaining / port.sumw);
      touched_.push_back(top.port);
    }
    SMR_CHECK_MSG(std::isfinite(delta),
                  "max_min_allocate: unbounded flow (no cap and no finite resource)");
    delta = std::max(delta, 0.0);
    level += delta;
    deltas_.push_back(delta);
    ++work_.rounds;

    fabric -= delta * fabric_sumw;
    if (fabric < 0.0) fabric = 0.0;
    const bool fabric_empty = fabric <= fabric_saturated;
    bool saturated = fabric_empty;
    for (const std::uint32_t id : touched_) {
      Port& port = ports_[id];
      port.remaining -= delta * port.sumw;
      if (port.remaining < 0.0) port.remaining = 0.0;
      port.synced = static_cast<std::uint32_t>(deltas_.size());
      if (port.remaining <= port.saturated_below) {
        saturated = true;
        if (port.tx) tx_empty = true;
      }
    }

    // Freeze flows that hit their cap (only caps within a few eps of the
    // level can), then, if a resource saturated, the flows it blocks.
    frozen_.clear();
    const double cap_bound = level + 4.0 * kMaxMinEps * (1.0 + level);
    for (std::size_t k = lowest_cap; k < by_cap_.size(); ++k) {
      const std::uint32_t i = by_cap_[k].flow;
      const double cap = by_cap_[k].cap;
      if (cap > cap_bound) break;
      if (live_[i] != 0 && level >= cap - kMaxMinEps * (1.0 + cap)) {
        rates_[i] = cap;
        frozen_by_cap_[i] = true;
        live_[i] = 0;
        frozen_.push_back(i);
      }
    }
    if (saturated) {
      std::size_t out = 0;
      for (const std::uint32_t i : active_) {
        if (live_[i] == 0) continue;
        // A port not synced this round holds a value at or above its true
        // one, which is above its threshold: only this round's can read empty.
        const NetFlow& flow = flows_[i];
        auto empty = [&](std::uint32_t id) {
          return ports_[id].remaining <= ports_[id].saturated_below;
        };
        const bool blocked =
            fabric_empty || empty(rx_port_[static_cast<std::size_t>(flow.dst)]) ||
            (flow.src == kInvalidNode ? tx_empty : empty(point_port(flow.src).port));
        if (blocked) {
          rates_[i] = level;
          live_[i] = 0;
          frozen_.push_back(i);
        } else {
          active_[out++] = i;
        }
      }
      active_.resize(out);
    }
    SMR_CHECK_MSG(!frozen_.empty() || delta == 0.0, "max_min_allocate failed to make progress");
    if (frozen_.empty()) {
      // Degenerate: all remaining flows blocked at zero headroom.
      degenerate_ = true;
      for (const std::uint32_t i : active_) {
        if (live_[i] != 0) rates_[i] = level;
      }
      break;
    }
    live -= frozen_.size();

    // The frozen flows' ports change weight.  Re-weighing an rx port once
    // per frozen flow is exact: no round passes between the calls.  A tx
    // fold waits until the diffuse list is compacted.
    bool diffuse_froze = false;
    point_dirty_.clear();
    for (const std::uint32_t i : frozen_) {
      const NetFlow& flow = flows_[i];
      const auto dst = static_cast<std::size_t>(flow.dst);
      reweigh(rx_port_[dst], static_cast<double>(--rx_live_[dst]), level, margin);
      if (flow.src == kInvalidNode) {
        diffuse_froze = true;
      } else if (PointPort& point = point_port(flow.src); !point.dirty) {
        point.dirty = true;
        point_dirty_.push_back(
            static_cast<std::uint32_t>(tx_slot_[static_cast<std::size_t>(flow.src)]));
      }
    }
    if (diffuse_froze) {
      std::erase_if(diffuse_, [&](std::uint32_t i) { return live_[i] == 0; });
      for (const std::uint32_t id : groups_) {
        if (ports_[id].sumw > 0.0) reweigh(id, diffuse_sum_[diffuse_.size()], level, margin);
      }
      for (std::uint32_t slot = 0; slot < point_ports_.size(); ++slot) {
        PointPort& point = point_ports_[slot];
        if (!point.dirty && ports_[point.port].sumw > 0.0) {
          point.dirty = true;
          point_dirty_.push_back(slot);
        }
      }
    }
    for (const std::uint32_t slot : point_dirty_) {
      PointPort& point = point_ports_[slot];
      point.dirty = false;
      point.end = static_cast<std::uint32_t>(
          std::remove_if(point_flows_.begin() + point.begin, point_flows_.begin() + point.end,
                         [&](std::uint32_t i) { return live_[i] == 0; }) -
          point_flows_.begin());
      reweigh(point.port, fold(point, diffuse_weight), level, margin);
    }
    for (const std::uint32_t id : touched_) {
      if (!ports_[id].queued && ports_[id].sumw > 0.0) requeue(id, level, margin);
    }
  }
}

}  // namespace smr::cluster
