// Benchmark-side probes: per-layer host time measured around calls into
// the simulator's public interfaces, with nothing instrumented inside it.
//
//   * ForwardingPolicy wraps any registered AllocationPolicy and times its
//     heartbeat and period callbacks.  It is registered in the allocator
//     registry as "perfbench_probe:inner=<name>[,<inner options>]", so it
//     also reaches the runtime a ServeSession builds for itself.
//   * ForwardingScheduler wraps a JobScheduler and times job_order().
//   * Once attached to a Runtime, the policy probe also rebuilds the live
//     network flow set from Runtime::jobs() every policy period and times
//     one full water-fill of it (the network replay).
//
// Every wrapper forwards each virtual unchanged, so a probed simulation
// must reproduce the unprobed output digest exactly.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "smr/alloc/registry.hpp"
#include "smr/cluster/network_model.hpp"
#include "smr/mapreduce/policy.hpp"
#include "smr/mapreduce/runtime.hpp"
#include "smr/mapreduce/scheduler.hpp"

namespace perfbench {

/// Per-layer accumulators of one traced iteration.  Times are host
/// seconds; counters are whatever the layer reports.
struct Layers {
  double workload_build_s = 0.0;
  double construct_s = 0.0;
  double run_s = 0.0;
  double scheduler_s = 0.0;
  std::uint64_t scheduler_calls = 0;
  double heartbeat_s = 0.0;
  std::uint64_t heartbeat_calls = 0;
  double period_s = 0.0;
  std::uint64_t period_calls = 0;
  /// Host time spent in the network replay; probe cost, taken out of run_s.
  double replay_s = 0.0;
  double shard_stall_s = 0.0;
  std::uint64_t shard_entries_peak = 0;
  std::uint64_t events = 0;
  std::uint64_t peak_pending = 0;
  std::uint64_t solver_calls = 0;
  std::uint64_t full_solves = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cap_fast_hits = 0;
  /// One entry per replayed network solve.
  std::vector<double> net_solve_us;
  std::vector<double> net_flows;
  std::int64_t jobs_arrived = 0;
  std::int64_t jobs_admitted = 0;
  std::int64_t jobs_shed = 0;
  double export_s = 0.0;
  std::uint64_t trace_events = 0;
  std::uint64_t spans = 0;
  std::uint64_t export_bytes = 0;

  /// Counters of a finished runtime: events, solver and shard stats.
  void add_runtime(const smr::mapreduce::Runtime& runtime,
                   std::uint64_t engine_events, std::size_t engine_peak_pending);
};

/// Registry name of the forwarding policy.
inline constexpr const char* kProbePolicy = "perfbench_probe";

/// Register kProbePolicy in the allocator registry (idempotent).
void register_probe_policy();

/// The Layers that probe policies built from now on report into; nullptr
/// (the default) makes the registry factory refuse to build one.
void set_probe_sink(Layers* layers);

/// The policy spec that wraps registry policy `inner` in the probe.
smr::alloc::PolicySpec probe_spec(const std::string& inner);

class ForwardingPolicy final : public smr::mapreduce::AllocationPolicy {
 public:
  ForwardingPolicy(std::unique_ptr<smr::mapreduce::AllocationPolicy> inner,
                   Layers& layers)
      : inner_(std::move(inner)), layers_(&layers) {}

  /// Enables the per-period network replay over `runtime`'s live state.
  void attach(const smr::mapreduce::Runtime& runtime) { runtime_ = &runtime; }

  std::string name() const override { return inner_->name(); }
  void on_start(std::span<smr::mapreduce::TaskTracker> trackers) override {
    inner_->on_start(trackers);
  }
  void on_heartbeat(smr::mapreduce::TaskTracker& tracker,
                    const smr::mapreduce::ClusterStats& stats) override;
  bool wants_heartbeat_stats() const override {
    return inner_->wants_heartbeat_stats();
  }
  bool wants_job_stats() const override { return inner_->wants_job_stats(); }
  bool wants_placement_stats() const override {
    return inner_->wants_placement_stats();
  }
  void on_period(std::span<smr::mapreduce::TaskTracker> trackers,
                 const smr::mapreduce::ClusterStats& stats) override;
  void set_decision_log(smr::obs::DecisionLog* log) override {
    inner_->set_decision_log(log);
  }
  const smr::obs::DecisionLog* decision_log() const override {
    return inner_->decision_log();
  }
  const std::vector<int>* job_task_caps() const override {
    return inner_->job_task_caps();
  }
  std::vector<std::pair<std::string, double>> credit_balances() const override {
    return inner_->credit_balances();
  }

 private:
  void replay_network();

  std::unique_ptr<smr::mapreduce::AllocationPolicy> inner_;
  Layers* layers_;
  const smr::mapreduce::Runtime* runtime_ = nullptr;
  std::vector<smr::cluster::NetFlow> flows_;
  std::vector<int> streams_;
};

class ForwardingScheduler final : public smr::mapreduce::JobScheduler {
 public:
  ForwardingScheduler(std::unique_ptr<smr::mapreduce::JobScheduler> inner,
                      Layers& layers)
      : inner_(std::move(inner)), layers_(&layers) {}

  using JobScheduler::job_order;

  std::string name() const override { return inner_->name(); }
  std::vector<std::size_t> job_order(const std::vector<smr::mapreduce::Job>& jobs,
                                     std::span<const std::size_t> active,
                                     bool for_map) const override;

 private:
  std::unique_ptr<smr::mapreduce::JobScheduler> inner_;
  Layers* layers_;
};

}  // namespace perfbench
