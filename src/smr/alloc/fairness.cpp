#include "smr/alloc/fairness.hpp"

#include <algorithm>
#include <cmath>
#include <iomanip>
#include <ostream>

#include "smr/common/error.hpp"
#include "smr/common/text_out.hpp"

namespace smr::alloc {

void FairnessTracker::record(
    SimTime now, double capacity_slots,
    const std::vector<TenantUsageSample>& tenants,
    const std::vector<std::pair<std::string, double>>& credits) {
  if (last_time_ != kTimeNever) {
    SMR_CHECK_MSG(now >= last_time_, "fairness samples out of order");
    const double dt = now - last_time_;
    if (dt > 0.0) {
      duration_ += dt;
      capacity_slot_seconds_ += last_capacity_ * dt;
      // Entitlement splits the previous capacity equally over the tenants
      // that were demanding then.
      int demanding = 0;
      for (const auto& [name, accum] : tenants_) {
        if (accum.last_demand > 0.0) ++demanding;
      }
      const double share =
          demanding > 0 ? last_capacity_ / static_cast<double>(demanding) : 0.0;
      for (auto& [name, accum] : tenants_) {
        accum.used += accum.last_running * dt;
        accum.demand += accum.last_demand * dt;
        if (accum.last_demand > 0.0) accum.entitlement += share * dt;
      }
    }
  }
  last_time_ = now;
  last_capacity_ = capacity_slots;
  for (auto& [name, accum] : tenants_) {
    accum.last_running = 0.0;
    accum.last_demand = 0.0;
  }
  for (const TenantUsageSample& sample : tenants) {
    Accum& accum = tenants_[sample.tenant];
    accum.last_running = sample.running;
    accum.last_demand = sample.demand;
  }
  for (const auto& [tenant, balance] : credits) {
    Accum& accum = tenants_[tenant];
    accum.has_credits = true;
    accum.final_credits = balance;
    accum.credit_series.emplace_back(now, balance);
  }
  ++samples_;
}

FairnessReport FairnessTracker::report() const {
  constexpr double kEps = 1e-9;
  FairnessReport report;
  report.policy = policy_;
  report.duration = duration_;
  report.capacity_slot_seconds = capacity_slot_seconds_;

  double x_sum = 0.0;
  double x_sq_sum = 0.0;
  double satisfaction_sum = 0.0;
  double log_satisfaction_sum = 0.0;
  int counted = 0;
  for (const auto& [name, accum] : tenants_) {
    TenantFairness tenant;
    tenant.tenant = name;
    tenant.used_slot_seconds = accum.used;
    tenant.demand_slot_seconds = accum.demand;
    tenant.entitlement_slot_seconds = accum.entitlement;
    tenant.final_credits = accum.final_credits;
    tenant.has_credits = accum.has_credits;
    if (accum.demand > kEps) {
      const double claim = std::min(accum.demand, accum.entitlement);
      tenant.normalized_allocation =
          std::min(1.0, accum.used / std::max(claim, kEps));
      tenant.envy = accum.entitlement > kEps
                        ? std::max(0.0, claim - accum.used) / accum.entitlement
                        : 0.0;
      tenant.satisfaction = std::min(1.0, accum.used / accum.demand);
      x_sum += tenant.normalized_allocation;
      x_sq_sum += tenant.normalized_allocation * tenant.normalized_allocation;
      satisfaction_sum += tenant.satisfaction;
      log_satisfaction_sum += std::log(std::max(tenant.satisfaction, kEps));
      report.max_envy = std::max(report.max_envy, tenant.envy);
      ++counted;
    }
    report.tenants.push_back(std::move(tenant));
    if (accum.has_credits) {
      report.credit_series.emplace_back(name, accum.credit_series);
    }
  }
  if (counted > 0) {
    report.jain = x_sq_sum > kEps
                      ? (x_sum * x_sum) / (static_cast<double>(counted) * x_sq_sum)
                      : 1.0;
    report.utilitarian_welfare = satisfaction_sum / counted;
    report.nash_welfare = std::exp(log_satisfaction_sum / counted);
  }
  return report;
}

namespace {

void write_report_body(const FairnessReport& report, TextOut& out,
                       int max_trajectory_points) {
  out << "{\"policy\":";
  out.json_string(report.policy);
  out << ",\"duration\":" << report.duration
      << ",\"capacity_slot_seconds\":" << report.capacity_slot_seconds
      << ",\"jain\":" << report.jain << ",\"max_envy\":" << report.max_envy
      << ",\"utilitarian_welfare\":" << report.utilitarian_welfare
      << ",\"nash_welfare\":" << report.nash_welfare << ",\"tenants\":[";
  for (std::size_t i = 0; i < report.tenants.size(); ++i) {
    const TenantFairness& t = report.tenants[i];
    if (i != 0) out << ',';
    out << "{\"tenant\":";
    out.json_string(t.tenant);
    out << ",\"used_slot_seconds\":" << t.used_slot_seconds
        << ",\"demand_slot_seconds\":" << t.demand_slot_seconds
        << ",\"entitlement_slot_seconds\":" << t.entitlement_slot_seconds
        << ",\"normalized_allocation\":" << t.normalized_allocation
        << ",\"envy\":" << t.envy << ",\"satisfaction\":" << t.satisfaction;
    if (t.has_credits) out << ",\"final_credits\":" << t.final_credits;
    out << '}';
  }
  out << "],\"credit_trajectories\":{";
  bool first_series = true;
  for (const auto& [tenant, series] : report.credit_series) {
    if (!first_series) out << ',';
    first_series = false;
    out.json_string(tenant);
    out << ":[";
    // Thin long trajectories by a deterministic index stride, always
    // keeping the final point.
    const std::size_t n = series.size();
    const std::size_t stride =
        max_trajectory_points > 0 && n > static_cast<std::size_t>(max_trajectory_points)
            ? (n + static_cast<std::size_t>(max_trajectory_points) - 1) /
                  static_cast<std::size_t>(max_trajectory_points)
            : 1;
    bool first_point = true;
    for (std::size_t i = 0; i < n; i += stride) {
      if (!first_point) out << ',';
      first_point = false;
      out << '[' << series[i].first << ',' << series[i].second << ']';
    }
    if (n > 0 && (n - 1) % stride != 0) {
      if (!first_point) out << ',';
      out << '[' << series[n - 1].first << ',' << series[n - 1].second << ']';
    }
    out << ']';
  }
  out << "}}";
}

}  // namespace

// The fixed/6 format goes on the caller's stream before the TextOut reads
// it and stays set afterwards, so later writers on the same stream print
// fixed too (perfbench's export_all pins those bytes).
void write_fairness_json(const FairnessReport& report, std::ostream& stream,
                         int max_trajectory_points) {
  stream << std::fixed << std::setprecision(6);
  TextOut out(stream);
  write_report_body(report, out, max_trajectory_points);
  out << '\n';
}

void write_fairness_json(const std::vector<FairnessReport>& reports,
                         std::ostream& stream, int max_trajectory_points) {
  stream << std::fixed << std::setprecision(6);
  TextOut out(stream);
  out << "{\"tool\":\"smr_serve\",\"reports\":[";
  for (std::size_t i = 0; i < reports.size(); ++i) {
    if (i != 0) out << ',';
    write_report_body(reports[i], out, max_trajectory_points);
  }
  out << "]}\n";
}

}  // namespace smr::alloc
