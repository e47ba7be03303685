#include "smr/serve/slo.hpp"

#include <algorithm>
#include <cmath>
#include <ostream>
#include <utility>

#include "smr/common/error.hpp"
#include "smr/common/json.hpp"
#include "smr/common/stats.hpp"

namespace smr::serve {

LatencyStats summarize_latency(std::vector<double> samples) {
  LatencyStats stats;
  stats.count = samples.size();
  if (samples.empty()) {
    const double nan = std::nan("");
    stats.mean = stats.p50 = stats.p95 = stats.p99 = stats.max = nan;
    return stats;
  }
  double sum = 0.0;
  for (double s : samples) sum += s;
  stats.mean = sum / static_cast<double>(samples.size());
  stats.max = *std::max_element(samples.begin(), samples.end());
  stats.p50 = percentile(samples, 50.0);
  stats.p95 = percentile(samples, 95.0);
  stats.p99 = percentile(std::move(samples), 99.0);
  return stats;
}

SloTracker::SloTracker(SimTime warmup_end, SimTime measure_end,
                       std::vector<std::string> tenant_names)
    : warmup_end_(warmup_end), measure_end_(measure_end) {
  SMR_CHECK(measure_end_ > warmup_end_);
  tenants_.reserve(tenant_names.size());
  for (auto& name : tenant_names) {
    PerTenant tenant;
    tenant.name = std::move(name);
    tenants_.push_back(std::move(tenant));
  }
}

void SloTracker::record_arrival(int tenant, SimTime arrived) {
  if (!measured(arrived)) return;
  ++tenants_.at(static_cast<std::size_t>(tenant)).arrived;
}

void SloTracker::record_shed(int tenant, SimTime arrived) {
  if (!measured(arrived)) return;
  ++tenants_.at(static_cast<std::size_t>(tenant)).shed;
}

void SloTracker::record_deferred(int tenant, SimTime arrived) {
  if (!measured(arrived)) return;
  ++tenants_.at(static_cast<std::size_t>(tenant)).deferred;
}

void SloTracker::record_outcome(int tenant, SimTime arrived, SimTime finished,
                                SimTime service, SimTime deadline, bool failed) {
  if (!measured(arrived)) return;
  PerTenant& t = tenants_.at(static_cast<std::size_t>(tenant));
  if (failed) {
    ++t.failed;
    return;
  }
  ++t.completed;
  const double sojourn = finished - arrived;
  t.latencies.push_back(sojourn);
  if (service > 0.0) {
    t.slowdown_sum += sojourn / service;
    ++t.slowdown_count;
  }
  if (deadline != kTimeNever) {
    ++t.with_deadline;
    if (finished <= deadline) ++t.slo_met;
  } else {
    // Deadline-free jobs always "meet" their (absent) SLO: they count
    // toward goodput, otherwise mixes without SLO classes report zero.
    ++t.slo_met;
  }
}

TenantReport SloTracker::report_of(const PerTenant& t) const {
  TenantReport report;
  report.name = t.name;
  report.arrived = t.arrived;
  report.shed = t.shed;
  report.deferred = t.deferred;
  report.completed = t.completed;
  report.failed = t.failed;
  report.slo_met = t.slo_met;
  report.with_deadline = t.with_deadline;
  report.latency = summarize_latency(t.latencies);
  report.mean_slowdown =
      t.slowdown_count > 0
          ? t.slowdown_sum / static_cast<double>(t.slowdown_count)
          : std::nan("");
  const double window_hours = (measure_end_ - warmup_end_) / 3600.0;
  report.goodput_per_hour = static_cast<double>(t.slo_met) / window_hours;
  return report;
}

void SloTracker::fill(ServeReport& report) const {
  report.warmup = warmup_end_;
  report.horizon = measure_end_;
  report.tenants.clear();
  report.tenants.reserve(tenants_.size());

  PerTenant all;
  all.name = "all";
  for (const auto& t : tenants_) {
    report.tenants.push_back(report_of(t));
    all.arrived += t.arrived;
    all.shed += t.shed;
    all.deferred += t.deferred;
    all.completed += t.completed;
    all.failed += t.failed;
    all.slo_met += t.slo_met;
    all.with_deadline += t.with_deadline;
    all.latencies.insert(all.latencies.end(), t.latencies.begin(),
                         t.latencies.end());
    all.slowdown_sum += t.slowdown_sum;
    all.slowdown_count += t.slowdown_count;
  }
  report.aggregate = report_of(all);
}

namespace {

void json_number(std::ostream& out, double value) {
  if (std::isnan(value)) {
    out << "null";
  } else if (std::isinf(value)) {
    out << (value > 0 ? "1e308" : "-1e308");
  } else {
    out << value;
  }
}

void write_latency(std::ostream& out, const LatencyStats& stats) {
  out << "{\"count\":" << stats.count << ",\"mean_s\":";
  json_number(out, stats.mean);
  out << ",\"p50_s\":";
  json_number(out, stats.p50);
  out << ",\"p95_s\":";
  json_number(out, stats.p95);
  out << ",\"p99_s\":";
  json_number(out, stats.p99);
  out << ",\"max_s\":";
  json_number(out, stats.max);
  out << '}';
}

void write_tenant(std::ostream& out, const TenantReport& tenant) {
  out << "{\"name\":";
  write_json_string(out, tenant.name);
  out << ",\"arrived\":" << tenant.arrived << ",\"shed\":" << tenant.shed
      << ",\"deferred\":" << tenant.deferred
      << ",\"completed\":" << tenant.completed
      << ",\"failed\":" << tenant.failed << ",\"slo_met\":" << tenant.slo_met
      << ",\"with_deadline\":" << tenant.with_deadline << ",\"latency\":";
  write_latency(out, tenant.latency);
  out << ",\"mean_slowdown\":";
  json_number(out, tenant.mean_slowdown);
  out << ",\"goodput_per_hour\":";
  json_number(out, tenant.goodput_per_hour);
  out << '}';
}

}  // namespace

void ServeReport::write_json(std::ostream& out) const {
  out << "{\"engine\":";
  write_json_string(out, engine);
  out << ",\"scheduler\":";
  write_json_string(out, scheduler);
  out << ",\"admission\":";
  write_json_string(out, admission);
  out << ",\"offered_jobs_per_hour\":";
  json_number(out, offered_jobs_per_hour);
  out << ",\"warmup_s\":";
  json_number(out, warmup);
  out << ",\"horizon_s\":";
  json_number(out, horizon);
  out << ",\"makespan_s\":";
  json_number(out, makespan);
  out << ",\"completed\":" << (completed ? "true" : "false")
      << ",\"failure_reason\":";
  write_json_string(out, failure_reason);
  out << ",\"unfinished\":" << unfinished << ",\"utilization\":";
  json_number(out, utilization);
  out << ",\"aggregate\":";
  write_tenant(out, aggregate);
  out << ",\"tenants\":[";
  for (std::size_t i = 0; i < tenants.size(); ++i) {
    if (i > 0) out << ',';
    write_tenant(out, tenants[i]);
  }
  out << "]}";
}

}  // namespace smr::serve
