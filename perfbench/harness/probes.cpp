#include "probes.hpp"

#include <algorithm>

#include "smr/alloc/registry.hpp"
#include "smr/common/error.hpp"
#include "smr/obs/self_profile.hpp"

namespace perfbench {

using smr::obs::Stopwatch;
namespace mr = smr::mapreduce;

namespace {

Layers* g_sink = nullptr;

/// The runtime skips shuffle flows whose backlog is within one byte.
constexpr double kByteEps = 1.0;

}  // namespace

void Layers::add_runtime(const mr::Runtime& runtime, std::uint64_t engine_events,
                         std::size_t engine_peak_pending) {
  events += engine_events;
  peak_pending = std::max<std::uint64_t>(peak_pending, engine_peak_pending);
  const smr::cluster::MaxMinSolver::Stats stats = runtime.solver_stats();
  solver_calls += stats.calls;
  full_solves += stats.full_solves;
  cache_hits += stats.cache_hits;
  cap_fast_hits += stats.cap_fast_hits;
  for (const mr::Runtime::ShardStats& shard : runtime.shard_stats()) {
    shard_stall_s += shard.barrier_stall_s;
    shard_entries_peak = std::max(shard_entries_peak, shard.entries_peak);
  }
}

void set_probe_sink(Layers* layers) { g_sink = layers; }

smr::alloc::PolicySpec probe_spec(const std::string& inner) {
  smr::alloc::PolicySpec spec;
  spec.name = kProbePolicy;
  spec.options.emplace_back("inner", inner);
  return spec;
}

void register_probe_policy() {
  smr::alloc::AllocatorRegistry& registry = smr::alloc::AllocatorRegistry::instance();
  if (registry.known(kProbePolicy)) return;
  registry.register_policy(
      kProbePolicy, {},
      [](const smr::alloc::PolicySpec& spec, const smr::alloc::PolicyContext& context)
          -> std::unique_ptr<mr::AllocationPolicy> {
        SMR_CHECK_MSG(g_sink != nullptr, "probe policy built without a sink");
        // "inner" names the wrapped policy; every other option is its own.
        smr::alloc::PolicySpec inner;
        for (const auto& [key, value] : spec.options) {
          if (key == "inner") {
            inner.name = value;
          } else {
            inner.options.emplace_back(key, value);
          }
        }
        if (inner.name.empty()) throw smr::SmrError("perfbench_probe needs inner=<policy>");
        return std::make_unique<ForwardingPolicy>(
            smr::alloc::AllocatorRegistry::instance().create(inner, context), *g_sink);
      });
}

void ForwardingPolicy::on_heartbeat(mr::TaskTracker& tracker,
                                    const mr::ClusterStats& stats) {
  const Stopwatch clock;
  inner_->on_heartbeat(tracker, stats);
  layers_->heartbeat_s += clock.seconds();
  ++layers_->heartbeat_calls;
}

void ForwardingPolicy::on_period(std::span<mr::TaskTracker> trackers,
                                 const mr::ClusterStats& stats) {
  const Stopwatch clock;
  inner_->on_period(trackers, stats);
  layers_->period_s += clock.seconds();
  ++layers_->period_calls;
  if (runtime_ != nullptr) {
    const Stopwatch replay;
    replay_network();
    layers_->replay_s += replay.seconds();
  }
}

// Rebuild the flow set the runtime's network stage collects each tick, in
// its node order: per receiving node, its shuffling reduces with a backlog
// (diffuse pulls) and then its maps reading a remote split (point flows),
// with the same rate caps and incast stream counts.  Speculative shadow
// attempts are private to the runtime and are not replayed.
void ForwardingPolicy::replay_network() {
  const mr::RuntimeConfig& config = runtime_->config();
  const int nodes = config.cluster.worker_count();
  const double dt = config.tick;
  struct Entry {
    smr::NodeId dst;
    bool remote_map;
    smr::cluster::NetFlow flow;
  };
  std::vector<Entry> entries;
  for (const mr::Job& job : runtime_->jobs()) {
    if (job.finished()) continue;
    for (const mr::ReduceTask& task : job.reduces) {
      if (!task.running() || task.phase != mr::ReducePhase::kShuffling ||
          task.backlog() <= kByteEps) {
        continue;
      }
      smr::cluster::NetFlow flow;
      flow.dst = task.node;
      flow.rate_cap = std::min(task.backlog() / dt, job.spec.shuffle_fetch_cap);
      entries.push_back({task.node, false, flow});
    }
    for (const mr::MapTask& task : job.maps) {
      if (!task.running() || task.phase != mr::MapPhase::kMapping || task.local) {
        continue;
      }
      const double cpu_per_byte = job.spec.map_cpu_per_mib /
                                  static_cast<double>(smr::kMiB) * task.cost_factor;
      const double cpu_speed =
          config.cluster.workers[static_cast<std::size_t>(task.node)].cpu_speed;
      smr::cluster::NetFlow flow;
      flow.dst = task.node;
      flow.src = task.src_node;
      flow.rate_cap = std::min(task.phase_remaining() / dt, cpu_speed / cpu_per_byte);
      entries.push_back({task.node, true, flow});
    }
  }
  if (entries.empty()) return;
  std::stable_sort(entries.begin(), entries.end(), [](const Entry& a, const Entry& b) {
    return a.dst != b.dst ? a.dst < b.dst : a.remote_map < b.remote_map;
  });
  flows_.clear();
  streams_.assign(static_cast<std::size_t>(nodes), 0);
  for (const Entry& entry : entries) {
    flows_.push_back(entry.flow);
    if (!entry.remote_map) {
      streams_[static_cast<std::size_t>(entry.dst)] += std::min(config.parallel_copies, nodes);
    }
  }
  // A fresh model has an empty cache, so this is always a full water-fill.
  smr::cluster::NetworkModel model(config.cluster);
  const Stopwatch clock;
  model.allocate_cached(flows_, streams_);
  layers_->net_solve_us.push_back(clock.seconds() * 1e6);
  layers_->net_flows.push_back(static_cast<double>(flows_.size()));
}

std::vector<std::size_t> ForwardingScheduler::job_order(
    const std::vector<mr::Job>& jobs, std::span<const std::size_t> active,
    bool for_map) const {
  const Stopwatch clock;
  std::vector<std::size_t> order = inner_->job_order(jobs, active, for_map);
  layers_->scheduler_s += clock.seconds();
  ++layers_->scheduler_calls;
  return order;
}

}  // namespace perfbench
