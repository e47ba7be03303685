#include "smr/serve/session.hpp"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <map>
#include <sstream>
#include <utility>

#include "smr/common/error.hpp"
#include "smr/metrics/trace.hpp"

namespace smr::serve {

namespace {

/// Bucket bounds (seconds) for the serve.latency_s histogram: sojourn
/// times span minutes to hours, unlike task durations.
const std::vector<double> kLatencyBounds = {30.0,   60.0,   120.0,  300.0,
                                            600.0,  1200.0, 1800.0, 3600.0,
                                            7200.0, 14400.0};

constexpr const char* kCounterNames[] = {
    "serve.jobs_arrived", "serve.jobs_admitted",  "serve.jobs_deferred",
    "serve.jobs_shed",    "serve.jobs_completed", "serve.jobs_failed",
    "serve.slo_met",      "serve.slo_missed",     "serve.slo_alerts",
};

}  // namespace

void ServeConfig::validate() const {
  // User-facing: each field is one smr_serve flag, so name it and its value.
  std::ostringstream bad;
  if (!(horizon > 0.0)) {
    bad << "--horizon=" << horizon << ": the arrival horizon must be positive";
  } else if (!(warmup >= 0.0 && warmup < horizon)) {
    bad << "--warmup=" << warmup << " must be at least 0 and below --horizon="
        << horizon;
  } else if (!(drain_limit >= 0.0)) {
    bad << "--drain-limit=" << drain_limit << " must not be negative";
  }
  if (!bad.str().empty()) throw SmrError(bad.str());
  burn.validate();
  admission.validate();
  for (const auto& tenant : tenants) tenant.validate();
}

ServeSession::ServeSession(ServeConfig config)
    : config_(std::move(config)), admission_(config_.admission) {
  config_.validate();
}

ServeSession::~ServeSession() = default;

const std::vector<BurnAlert>& ServeSession::burn_alerts() const {
  SMR_CHECK_MSG(burn_ != nullptr, "burn_alerts() before run()/replay()");
  return burn_->alerts();
}

void ServeSession::write_burn_alerts_jsonl(std::ostream& out) const {
  SMR_CHECK_MSG(burn_ != nullptr,
                "write_burn_alerts_jsonl() before run()/replay()");
  burn_->write_alerts_jsonl(out);
}

ServeReport ServeSession::run(obs::MetricsRegistry* metrics) {
  // Arrival streams get their own seed domain so they never correlate
  // with the runtime's task-duration streams under the same user seed.
  const std::uint64_t arrival_seed = config_.seed ^ 0xa11a5eedULL;
  return execute(
      generate_arrivals(config_.tenants, config_.horizon, arrival_seed),
      metrics);
}

ServeReport ServeSession::replay(ArrivalTrace trace,
                                 obs::MetricsRegistry* metrics) {
  return execute(std::move(trace), metrics);
}

ServeReport ServeSession::execute(ArrivalTrace trace,
                                  obs::MetricsRegistry* metrics) {
  SMR_CHECK_MSG(!executed_, "ServeSession is single-use");
  executed_ = true;
  SMR_CHECK_MSG(!trace.arrivals.empty(), "empty arrival stream");
  trace_ = std::move(trace);
  metrics_ = metrics != nullptr ? metrics : &own_metrics_;

  driver::ExperimentConfig experiment = config_.experiment;
  experiment.runtime.seed = config_.seed;
  experiment.runtime.time_limit = config_.horizon + config_.drain_limit;
  runtime_ = std::make_unique<mapreduce::Runtime>(
      experiment.runtime, driver::make_policy(experiment),
      driver::make_scheduler(experiment));
  runtime_->keep_open();
  runtime_->set_metrics(metrics_);
  if (trace_log_ != nullptr) runtime_->set_trace(trace_log_);
  if (spans_ != nullptr) runtime_->set_spans(spans_);
  if (decisions_ != nullptr) runtime_->policy().set_decision_log(decisions_);
  if (pool_ != nullptr) runtime_->set_thread_pool(pool_);
  runtime_->set_job_finished_callback(
      [this](const mapreduce::Job& job) { on_job_finished(job); });

  burn_rate_.assign(trace_.tenants.size(), nullptr);
  tracker_ = std::make_unique<SloTracker>(config_.warmup, config_.horizon,
                                          trace_.tenants);
  burn_ = std::make_unique<BurnRateTracker>(config_.burn, trace_.tenants);

  sim::Engine& engine = runtime_->engine();
  for (std::size_t i = 0; i < trace_.arrivals.size(); ++i) {
    engine.schedule_at(trace_.arrivals[i].job.submit_at,
                       [this, i] { on_arrival(i); });
  }
  engine.schedule_at(config_.horizon, [this] {
    arrivals_closed_ = true;
    maybe_close();
  });
  if (fairness_ != nullptr) {
    fairness_->set_policy(driver::policy_label(config_.experiment));
    engine.schedule_at(config_.warmup, [this] { sample_fairness(); });
  }

  result_ = runtime_->run();

  // Deferred arrivals that never got a slot before the run ended were
  // effectively shed.
  for (std::size_t index : deferred_) {
    const Arrival& arrival = trace_.arrivals[index];
    tracker_->record_shed(arrival.tenant, arrival.job.submit_at);
    count(kJobsShed);
  }

  ServeReport report;
  tracker_->fill(report);
  report.engine = driver::policy_label(config_.experiment);
  report.scheduler = driver::scheduler_name(config_.experiment.scheduler);
  report.admission = admission_policy_name(config_.admission.policy);
  report.offered_jobs_per_hour =
      static_cast<double>(trace_.arrivals.size()) / (config_.horizon / 3600.0);
  report.makespan = result_.makespan;
  report.completed = result_.completed;
  report.failure_reason = result_.failure_reason;
  for (const auto& job : result_.jobs) {
    if (job.finish_time == kTimeNever) ++report.unfinished;
  }
  report.utilization = utilization_from_slots();
  return report;
}

void ServeSession::on_arrival(std::size_t index) {
  const Arrival& arrival = trace_.arrivals[index];
  count(kJobsArrived);
  tracker_->record_arrival(arrival.tenant, arrival.job.submit_at);

  if (runtime_->stopped()) {
    // The run aborted (e.g. every node died); nothing can be admitted.
    tracker_->record_shed(arrival.tenant, arrival.job.submit_at);
    count(kJobsShed);
    return;
  }

  switch (admission_.on_arrival()) {
    case AdmissionDecision::kAdmit:
      count(kJobsAdmitted);
      submit_arrival(index);
      break;
    case AdmissionDecision::kDefer:
      deferred_.push_back(index);
      tracker_->record_deferred(arrival.tenant, arrival.job.submit_at);
      count(kJobsDeferred);
      series(queue_depth_, "serve.queue_depth")
          .append(runtime_->engine().now(),
                  static_cast<double>(admission_.pending()));
      break;
    case AdmissionDecision::kShed:
      tracker_->record_shed(arrival.tenant, arrival.job.submit_at);
      count(kJobsShed);
      break;
  }
}

void ServeSession::submit_arrival(std::size_t index) {
  const Arrival& arrival = trace_.arrivals[index];
  const SimTime now = runtime_->engine().now();

  mapreduce::JobSpec spec = arrival.job.spec;
  spec.tenant = trace_.tenants[static_cast<std::size_t>(arrival.tenant)];
  if (spec.relative_deadline != kTimeNever) {
    // Keep the absolute deadline anchored to the *arrival* instant: time
    // spent in the deferred queue eats into the job's budget.
    spec.relative_deadline =
        std::max(0.0, spec.relative_deadline - (now - arrival.job.submit_at));
  }

  const JobId id = runtime_->submit(spec, now);
  admitted_[id] = JobInfo{arrival.tenant, arrival.job.submit_at};
  series(jobs_in_system_, "serve.jobs_in_system")
      .append(now, static_cast<double>(admission_.in_system()));
}

void ServeSession::on_job_finished(const mapreduce::Job& job) {
  // Fires at the tail of the runtime event that completed/failed the job.
  // Recording is safe here; anything that re-enters the runtime (deferred
  // submits, close_submissions) is pushed to a zero-delay event.
  const auto found = admitted_.find(job.id);
  SMR_CHECK_MSG(found != admitted_.end(), "departure of unknown job " << job.id);
  const JobInfo info = found->second;
  admitted_.erase(found);

  const SimTime service =
      job.started() ? job.finish_time - job.start_time : 0.0;
  tracker_->record_outcome(info.tenant, info.arrived, job.finish_time, service,
                           job.deadline, job.failed);
  if (job.failed) {
    count(kJobsFailed);
  } else {
    count(kJobsCompleted);
    if (latency_ == nullptr) {
      latency_ = &metrics_->histogram("serve.latency_s", kLatencyBounds);
    }
    latency_->observe(job.finish_time - info.arrived);
    if (job.deadline != kTimeNever) {
      count(job.finish_time <= job.deadline ? kSloMet : kSloMissed);
    }
  }
  if (job.deadline != kTimeNever) {
    // Every deadline-carrying departure feeds the burn-rate monitor; a
    // failed job is a miss by definition.
    record_burn(info.tenant, job.finish_time,
                !job.failed && job.finish_time <= job.deadline);
  }

  runtime_->engine().schedule_in(0.0, [this] { process_departure(); });
}

void ServeSession::record_burn(int tenant, SimTime now, bool slo_met) {
  const std::optional<BurnAlert> alert = burn_->record(tenant, now, slo_met);
  obs::Series*& burn_rate = burn_rate_[static_cast<std::size_t>(tenant)];
  if (burn_rate == nullptr) {
    burn_rate = &metrics_->series(
        "serve.burn_rate", {{"tenant", trace_.tenants[static_cast<std::size_t>(tenant)]}});
  }
  burn_rate->append(now, burn_->burn_rate(tenant));
  if (!alert) return;
  count(kSloAlerts);
  if (trace_log_ != nullptr) {
    metrics::TraceEvent event;
    event.time = alert->time;
    event.kind = metrics::TraceEventKind::kSloAlert;
    event.detail = alert->tenant_name;
    event.value = alert->burn_rate;
    trace_log_->record(event);
  }
}

void ServeSession::process_departure() {
  const bool admit_deferred = admission_.on_departure();
  if (admit_deferred && !deferred_.empty() && !runtime_->stopped()) {
    const std::size_t index = deferred_.front();
    deferred_.pop_front();
    admission_.on_deferred_admitted();
    count(kJobsAdmitted);
    series(queue_depth_, "serve.queue_depth")
        .append(runtime_->engine().now(),
                static_cast<double>(admission_.pending()));
    submit_arrival(index);
  }
  series(jobs_in_system_, "serve.jobs_in_system")
      .append(runtime_->engine().now(),
              static_cast<double>(admission_.in_system()));
  maybe_close();
}

void ServeSession::sample_fairness() {
  if (runtime_->stopped()) return;
  const SimTime now = runtime_->engine().now();

  // Aggregate the active-job census into per-tenant usage and demand.
  // Keyed by tenant name so the sample order is deterministic.
  std::map<std::string, alloc::TenantUsageSample> by_tenant;
  for (const mapreduce::JobStats& job : runtime_->job_census()) {
    alloc::TenantUsageSample& sample = by_tenant[job.tenant];
    sample.tenant = job.tenant;
    sample.running += job.running_maps + job.running_reduces;
    sample.demand += job.demand();
  }
  std::vector<alloc::TenantUsageSample> tenants;
  tenants.reserve(by_tenant.size());
  for (auto& [name, sample] : by_tenant) tenants.push_back(std::move(sample));

  fairness_->record(now, runtime_->live_slot_capacity(), tenants,
                    runtime_->policy().credit_balances());

  // Re-arm until the closing sample at the horizon has been taken; the
  // tracker integrates left-Riemann, so that final sample flushes the
  // last interval of the measurement window.
  if (now >= config_.horizon) return;
  const SimTime period = std::max(config_.experiment.runtime.policy_period, 1.0);
  runtime_->engine().schedule_at(std::min(now + period, config_.horizon),
                                 [this] { sample_fairness(); });
}

void ServeSession::count(CounterId id) {
  static_assert(std::size(kCounterNames) == kCounterIds);
  obs::Counter*& counter = counters_[id];
  if (counter == nullptr) counter = &metrics_->counter(kCounterNames[id]);
  counter->inc();
}

obs::Series& ServeSession::series(obs::Series*& cached, const char* name) {
  if (cached == nullptr) cached = &metrics_->series(name);
  return *cached;
}

void ServeSession::maybe_close() {
  if (closed_ || !arrivals_closed_ || !deferred_.empty()) return;
  if (runtime_->stopped()) return;
  closed_ = true;
  runtime_->close_submissions();
}

double ServeSession::utilization_from_slots() const {
  double sum = 0.0;
  int samples = 0;
  for (const auto& sample : result_.slots) {
    if (sample.time < config_.warmup || sample.time >= config_.horizon) continue;
    const double target = sample.map_target + sample.reduce_target;
    if (target <= 0.0) continue;
    sum += (sample.running_maps + sample.running_reduces) / target;
    ++samples;
  }
  return samples > 0 ? sum / static_cast<double>(samples) : std::nan("");
}

}  // namespace smr::serve
