#include "smr/cluster/compute_model.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>

#include "smr/common/error.hpp"

namespace smr::cluster {

namespace {
// Foreground work never fully starves even under extreme background load.
constexpr double kMinCpuRemnant = 0.05;                                   // cores
constexpr double kMinDiskRemnant = 1.0 * static_cast<double>(kMiB);       // bytes/s
constexpr double kInf = std::numeric_limits<double>::infinity();
}  // namespace

double ComputeModel::thread_efficiency(const NodeSpec& node, int threads) {
  SMR_CHECK(threads >= 0);
  if (threads <= 1) return 1.0;
  const double extra = static_cast<double>(threads - 1);
  const double beyond_cores = static_cast<double>(std::max(0, threads - node.cores));
  return 1.0 / (1.0 + node.thread_overhead * extra + node.sched_overhead * beyond_cores);
}

double ComputeModel::paging_factor(const NodeSpec& node, Bytes memory_demand) {
  SMR_CHECK(memory_demand >= 0);
  const double available = static_cast<double>(node.available_memory());
  const double demand = static_cast<double>(memory_demand);
  if (demand <= available) return 1.0;
  const double over = demand / available - 1.0;
  return 1.0 / (1.0 + node.paging_penalty * over * over);
}

double ComputeModel::disk_efficiency(const NodeSpec& node, int streams) {
  SMR_CHECK(streams >= 0);
  if (streams <= 1) return 1.0;
  return 1.0 / (1.0 + node.seek_overhead * static_cast<double>(streams - 1));
}

double ComputeModel::effective_cpu(const NodeSpec& node, const Occupancy& occ) {
  return static_cast<double>(node.cores) * node.cpu_speed *
         thread_efficiency(node, occ.threads) * paging_factor(node, occ.memory_demand);
}

double ComputeModel::effective_disk(const NodeSpec& node, const Occupancy& occ) {
  return node.disk_bandwidth * disk_efficiency(node, occ.io_streams) *
         paging_factor(node, occ.memory_demand);
}

ComputeModel::Flow ComputeModel::to_flow(const NodeSpec& node, const PhaseLoad& load) {
  Flow flow;
  // A single thread can use at most `max_cores` cores; that caps the rate
  // of CPU-bearing phases regardless of idle capacity elsewhere.
  double cap = load.rate_cap;
  if (load.cpu_per_byte > 0.0) {
    const double single_thread =
        load.max_cores * node.cpu_speed / load.cpu_per_byte;
    cap = (cap == kNoCap) ? single_thread : std::min(cap, single_thread);
    flow.cpu_w = load.cpu_per_byte;
  }
  if (load.disk_per_byte > 0.0) flow.disk_w = load.disk_per_byte;
  SMR_CHECK_MSG(cap != kNoCap || flow.cpu_w > 0.0 || flow.disk_w > 0.0,
                "phase with no resource use and no cap would be unbounded");
  flow.cap = cap;
  return flow;
}

std::array<double, 2> ComputeModel::capacities_for(const NodeSpec& node,
                                                   const Occupancy& occ,
                                                   const BackgroundLoad& background) {
  return {std::max(kMinCpuRemnant, effective_cpu(node, occ) - background.cpu_cores),
          std::max(kMinDiskRemnant, effective_disk(node, occ) - background.disk_rate)};
}

void ComputeModel::build_problem(const NodeSpec& node, const Occupancy& occ,
                                 const BackgroundLoad& background,
                                 std::span<const PhaseLoad> loads,
                                 std::array<double, 2>& capacities,
                                 std::vector<FlowDemand>& demands) {
  enum : int { kCpu = 0, kDisk = 1 };
  capacities = capacities_for(node, occ, background);
  demands.resize(loads.size());
  for (std::size_t i = 0; i < loads.size(); ++i) {
    const Flow flow = to_flow(node, loads[i]);
    FlowDemand& demand = demands[i];
    demand.rate_cap = flow.cap;
    demand.uses.clear();
    if (flow.cpu_w > 0.0) demand.uses.push_back({kCpu, flow.cpu_w});
    if (flow.disk_w > 0.0) demand.uses.push_back({kDisk, flow.disk_w});
  }
}

std::vector<double> ComputeModel::solve(const NodeSpec& node, const Occupancy& occ,
                                        const BackgroundLoad& background,
                                        std::span<const PhaseLoad> loads) {
  if (loads.empty()) return {};
  std::array<double, 2> capacities;
  std::vector<FlowDemand> demands;
  build_problem(node, occ, background, loads, capacities, demands);
  return max_min_allocate(capacities, demands);
}

const std::vector<double>& ComputeModel::solve_cached(
    const NodeSpec& node, const Occupancy& occ, const BackgroundLoad& background,
    std::span<const PhaseLoad> loads) {
  if (loads.empty()) return empty_;
  take_loads(node, loads);
  return solve_capacities(node, occ, background);
}

// MaxMinSolver's cache rule on the derived problem, less the capacities:
// equal resource uses and every moved cap slack.  A used resource always
// weighs > 0 and an unused one 0.0, so equal uses are exactly equal weights.
void ComputeModel::take_loads(const NodeSpec& node, std::span<const PhaseLoad> loads) {
  const std::size_t nf = loads.size();
  next_cpu_w_.resize(nf);
  next_disk_w_.resize(nf);
  next_cap_.resize(nf);
  for (std::size_t i = 0; i < nf; ++i) {
    const Flow flow = to_flow(node, loads[i]);
    next_cpu_w_[i] = flow.cpu_w;
    next_disk_w_[i] = flow.disk_w;
    next_cap_[i] = flow.cap;
  }

  FlowMatch match = valid_ && nf == cap_.size() ? FlowMatch::kSame : FlowMatch::kDiffer;
  for (std::size_t i = 0; i < nf && match != FlowMatch::kDiffer; ++i) {
    if (next_cpu_w_[i] != cpu_w_[i] || next_disk_w_[i] != disk_w_[i]) {
      match = FlowMatch::kDiffer;
    } else if (next_cap_[i] != cap_[i]) {
      // A rate cap moved.  The degenerate all-blocked ending gives no
      // guarantee about the delta sequence, so it disables this path.
      match = !degenerate_ && cap_move_is_slack(next_cap_[i], rates_[i],
                                                frozen_by_cap_[i] != 0)
                  ? FlowMatch::kSlackCapsMoved
                  : FlowMatch::kDiffer;
    }
  }
  flows_ = match;
  cpu_w_.swap(next_cpu_w_);
  disk_w_.swap(next_disk_w_);
  cap_.swap(next_cap_);
}

const std::vector<double>& ComputeModel::solve_capacities(
    const NodeSpec& node, const Occupancy& occ, const BackgroundLoad& background) {
  const std::array<double, 2> capacities = capacities_for(node, occ, background);
  ++stats_.calls;
  const FlowMatch flows = flows_;
  flows_ = FlowMatch::kSame;  // the cached problem is this call's from here
  if (valid_ && flows != FlowMatch::kDiffer && capacities == capacities_) {
    ++(flows == FlowMatch::kSlackCapsMoved ? stats_.cap_fast_hits : stats_.cache_hits);
    return rates_;
  }

  ++stats_.full_solves;
  capacities_ = capacities;
  valid_ = false;  // a throwing solve must not leave a half-written cache
  waterfill();
  valid_ = true;
  return rates_;
}

// Progressive filling with max_min_allocate()'s exact arithmetic, on the
// node's shape (the argument is docs/PERF.md §9):
//   * every active flow gains the same delta each round from 0, so all
//     share one `level`; a flow's rate is written once, when it freezes;
//   * the weight sums fold every active flow in ascending order, an unused
//     resource adding 0.0, which leaves a sum bit-unchanged;
//   * the cap candidate is fl(min cap - level): fl(cap - level) is monotone
//     in cap, and no candidate is NaN or -0.0, so the order in which the
//     minimum is taken cannot change it.
void ComputeModel::waterfill() {
  const std::size_t nf = cap_.size();
  rates_.assign(nf, 0.0);
  frozen_by_cap_.assign(nf, 0);
  degenerate_ = false;

  double cpu = capacities_[0];
  double disk = capacities_[1];
  SMR_CHECK_MSG(cpu >= 0.0, "negative capacity for resource " << 0);
  SMR_CHECK_MSG(disk >= 0.0, "negative capacity for resource " << 1);
  // Saturation is relative to the resource's scale, as in the oracle.
  const double cpu_saturated = kMaxMinEps * (cpu + 1.0);
  const double disk_saturated = kMaxMinEps * (disk + 1.0);
  bool cpu_empty = cpu <= cpu_saturated;
  bool disk_empty = disk <= disk_saturated;
  auto blocked = [&](std::uint32_t i) {
    return (cpu_w_[i] > 0.0 && cpu_empty) || (disk_w_[i] > 0.0 && disk_empty);
  };

  // A flow with a zero cap, or touching an empty resource, never moves.
  active_.clear();
  for (std::uint32_t i = 0; i < nf; ++i) {
    const double cap = cap_[i];
    const bool dead = cap != kNoCap && cap <= 0.0;
    if (dead) frozen_by_cap_[i] = 1;
    if (!dead && !blocked(i)) active_.push_back(i);
  }

  double level = 0.0;
  while (!active_.empty()) {
    double cpu_sumw = 0.0;
    double disk_sumw = 0.0;
    double lowest_cap = kInf;
    for (const std::uint32_t i : active_) {
      cpu_sumw += cpu_w_[i];
      disk_sumw += disk_w_[i];
      // std::min keeps its first argument against a NaN cap, which never
      // wins a round in the oracle either.
      if (cap_[i] != kNoCap) lowest_cap = std::min(lowest_cap, cap_[i]);
    }
    double delta = lowest_cap - level;  // kInf when no live cap
    if (cpu_sumw > 0.0) delta = std::min(delta, cpu / cpu_sumw);
    if (disk_sumw > 0.0) delta = std::min(delta, disk / disk_sumw);
    SMR_CHECK_MSG(std::isfinite(delta),
                  "max_min_allocate: unbounded flow (no cap and no finite resource)");
    delta = std::max(delta, 0.0);
    level += delta;

    cpu -= delta * cpu_sumw;
    if (cpu < 0.0) cpu = 0.0;  // numerical guard
    disk -= delta * disk_sumw;
    if (disk < 0.0) disk = 0.0;
    cpu_empty = cpu <= cpu_saturated;
    disk_empty = disk <= disk_saturated;

    // Freeze flows that hit their cap or a saturated resource; stable
    // in-place compaction keeps `active_` ascending.
    const std::size_t before = active_.size();
    std::size_t out = 0;
    for (const std::uint32_t i : active_) {
      const double cap = cap_[i];
      if (cap != kNoCap && level >= cap - kMaxMinEps * (1.0 + cap)) {
        rates_[i] = cap;
        frozen_by_cap_[i] = 1;
      } else if (blocked(i)) {
        rates_[i] = level;
      } else {
        active_[out++] = i;
      }
    }
    SMR_CHECK_MSG(out < before || delta == 0.0,
                  "max_min_allocate failed to make progress");
    if (out == before && delta == 0.0) {
      // Degenerate: all remaining flows blocked at zero headroom.
      degenerate_ = true;
      for (const std::uint32_t i : active_) rates_[i] = level;
      active_.clear();
    } else {
      active_.resize(out);
    }
  }
}

}  // namespace smr::cluster
