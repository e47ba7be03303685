// ServeSession: one long-lived serving run.
//
// Wires the pieces of the serving subsystem together: an arrival stream
// (generated or replayed) feeds an AdmissionController; admitted jobs are
// submitted into a *running* mapreduce::Runtime (held open via
// keep_open()); departures release admission slots and pop the deferred
// queue; an SloTracker measures the steady state between the warmup end
// and the arrival horizon.  The run ends once arrivals stop and the
// system drains (bounded by drain_limit), and the whole thing is
// deterministic in the config seed.
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <iosfwd>
#include <memory>
#include <unordered_map>
#include <vector>

#include "smr/alloc/fairness.hpp"
#include "smr/driver/experiment.hpp"
#include "smr/obs/metrics_registry.hpp"
#include "smr/serve/admission.hpp"
#include "smr/serve/arrivals.hpp"
#include "smr/serve/burn_rate.hpp"
#include "smr/serve/slo.hpp"

namespace smr::metrics {
class TraceLog;
}

namespace smr::obs {
class DecisionLog;
class SpanLog;
}

namespace smr::serve {

struct ServeConfig {
  /// Engine / cluster / scheduler under test.  `trials` is ignored (a
  /// serving run is one long session); `runtime.seed` and
  /// `runtime.time_limit` are overridden by `seed` and
  /// `horizon + drain_limit` below.
  driver::ExperimentConfig experiment;

  /// Offered load (ignored by replay(), which brings its own trace).
  std::vector<TenantConfig> tenants;

  AdmissionConfig admission;

  /// Arrivals cover [0, horizon); the measurement window is
  /// [warmup, horizon).
  SimTime horizon = 2.0 * 3600.0;
  SimTime warmup = 900.0;

  /// Extra simulated time after the horizon for in-flight jobs to drain
  /// before the hard stop.
  SimTime drain_limit = 2.0 * 3600.0;

  /// Seeds both the arrival streams and the runtime.
  std::uint64_t seed = 1;

  /// Rolling-window burn-rate alerting over deadline-carrying departures.
  BurnRateConfig burn;

  void validate() const;
};

/// Single-use session: construct, then call run() or replay() exactly once.
class ServeSession {
 public:
  explicit ServeSession(ServeConfig config);
  ~ServeSession();

  /// Generate per-tenant Poisson arrivals from the config and serve them.
  /// `metrics` (optional) additionally receives the runtime's telemetry
  /// and the serve.* counters/series; pass nullptr to keep it internal.
  ServeReport run(obs::MetricsRegistry* metrics = nullptr);

  /// Serve a recorded arrival trace instead (tenant set comes from the
  /// trace; config.tenants is ignored).
  ServeReport replay(ArrivalTrace trace, obs::MetricsRegistry* metrics = nullptr);

  /// The underlying batch-style result (per-job records, slot timeline),
  /// valid after run()/replay() returned.
  const metrics::RunResult& run_result() const { return result_; }

  /// Attach a trace log (optional; must outlive the run; call before
  /// run()/replay()).  Receives the runtime's task events plus kSloAlert
  /// instants from the burn-rate tracker.
  void set_trace(metrics::TraceLog* trace) { trace_log_ = trace; }

  /// Attach a span log (optional; forwarded to the runtime).
  void set_spans(obs::SpanLog* spans) { spans_ = spans; }

  /// Attach a decision audit log (optional; must outlive the run; call
  /// before run()/replay()).  Forwarded to the allocation policy through
  /// the virtual AllocationPolicy::set_decision_log hook, so *every*
  /// allocator's periodic decisions land in it.
  void set_decisions(obs::DecisionLog* decisions) { decisions_ = decisions; }

  /// Attach a fairness tracker (optional; must outlive the run; call
  /// before run()/replay()).  The session then samples per-tenant usage,
  /// demand, live capacity and credit balances every policy period across
  /// the measurement window [warmup, horizon).  Purely observational.
  void set_fairness(alloc::FairnessTracker* fairness) { fairness_ = fairness; }

  /// Thread pool for the runtime's sharded tick (optional; must outlive
  /// the run; call before run()/replay()).  Pool size never changes
  /// results.
  void set_thread_pool(ThreadPool* pool) { pool_ = pool; }

  /// Burn-rate alerts fired during the run, in time order.  Valid after
  /// run()/replay() returned.
  const std::vector<BurnAlert>& burn_alerts() const;

  /// The underlying runtime (per-shard window stats, engine counters).
  /// Valid after run()/replay() returned; nullptr before.
  const mapreduce::Runtime* runtime() const { return runtime_.get(); }

  /// One {"type":"slo_alert",...} JSON object per alert, in order.
  void write_burn_alerts_jsonl(std::ostream& out) const;

 private:
  struct JobInfo {
    int tenant = 0;
    SimTime arrived = 0.0;
  };

  /// The serve-layer counters; kCounterNames in session.cpp names each.
  enum CounterId : std::size_t {
    kJobsArrived,
    kJobsAdmitted,
    kJobsDeferred,
    kJobsShed,
    kJobsCompleted,
    kJobsFailed,
    kSloMet,
    kSloMissed,
    kSloAlerts,
    kCounterIds,
  };

  ServeReport execute(ArrivalTrace trace, obs::MetricsRegistry* metrics);
  void on_arrival(std::size_t index);
  /// Submit arrival `index` at the current simulation time, re-anchoring
  /// its relative deadline to the original arrival instant.
  void submit_arrival(std::size_t index);
  void on_job_finished(const mapreduce::Job& job);
  /// Feed one deadline-carrying departure into the burn-rate tracker,
  /// surfacing any alert as a counter bump and a kSloAlert trace instant.
  void record_burn(int tenant, SimTime now, bool slo_met);
  void process_departure();
  void maybe_close();
  double utilization_from_slots() const;

  /// Schedules the next fairness sample (self-rescheduling engine event
  /// starting at warmup, every policy period, until the horizon).
  void sample_fairness();

  void count(CounterId id);
  /// The series `name` of metrics_, looked up on first use into `cached`.
  obs::Series& series(obs::Series*& cached, const char* name);

  ServeConfig config_;
  ArrivalTrace trace_;
  metrics::TraceLog* trace_log_ = nullptr;
  obs::SpanLog* spans_ = nullptr;
  obs::DecisionLog* decisions_ = nullptr;
  alloc::FairnessTracker* fairness_ = nullptr;
  ThreadPool* pool_ = nullptr;
  std::unique_ptr<mapreduce::Runtime> runtime_;
  std::unique_ptr<SloTracker> tracker_;
  std::unique_ptr<BurnRateTracker> burn_;
  AdmissionController admission_;
  obs::MetricsRegistry own_metrics_;
  obs::MetricsRegistry* metrics_ = nullptr;
  /// Instruments of metrics_ (set once, by execute()), each looked up by
  /// name on its first use, so one never touched never appears in the
  /// registry, and cached after it; null until then.
  std::array<obs::Counter*, kCounterIds> counters_{};
  obs::Series* queue_depth_ = nullptr;
  obs::Series* jobs_in_system_ = nullptr;
  obs::Histogram* latency_ = nullptr;
  std::vector<obs::Series*> burn_rate_;  // by tenant
  std::unordered_map<JobId, JobInfo> admitted_;
  std::deque<std::size_t> deferred_;
  metrics::RunResult result_;
  bool arrivals_closed_ = false;
  bool closed_ = false;
  bool executed_ = false;
};

}  // namespace smr::serve
