#include "smr/serve/burn_rate.hpp"

#include <ostream>

#include "smr/common/error.hpp"
#include "smr/common/text_out.hpp"

namespace smr::serve {

void BurnRateConfig::validate() const {
  SMR_CHECK_MSG(window > 0.0, "burn-rate window must be positive");
  SMR_CHECK_MSG(target > 0.0 && target < 1.0,
                "burn-rate target must be in (0, 1)");
  SMR_CHECK_MSG(threshold > 0.0, "burn-rate threshold must be positive");
  SMR_CHECK_MSG(min_samples >= 1, "burn-rate min_samples must be >= 1");
  SMR_CHECK_MSG(cooldown >= 0.0, "burn-rate cooldown must be >= 0");
}

BurnRateTracker::BurnRateTracker(BurnRateConfig config,
                                 std::vector<std::string> tenant_names)
    : config_(config) {
  config_.validate();
  tenants_.resize(tenant_names.size());
  for (std::size_t i = 0; i < tenant_names.size(); ++i) {
    tenants_[i].name = std::move(tenant_names[i]);
  }
}

void BurnRateTracker::evict(PerTenant& t, SimTime now) {
  while (!t.window.empty() && t.window.front().time <= now - config_.window) {
    if (!t.window.front().met) --t.misses;
    t.window.pop_front();
  }
}

double BurnRateTracker::miss_fraction(const PerTenant& t) const {
  if (t.window.empty()) return 0.0;
  return static_cast<double>(t.misses) /
         static_cast<double>(t.window.size());
}

std::optional<BurnAlert> BurnRateTracker::record(int tenant, SimTime now,
                                                 bool slo_met) {
  SMR_CHECK_MSG(tenant >= 0 &&
                    static_cast<std::size_t>(tenant) < tenants_.size(),
                "unknown tenant " << tenant);
  PerTenant& t = tenants_[static_cast<std::size_t>(tenant)];
  evict(t, now);
  t.window.push_back({now, slo_met});
  if (!slo_met) ++t.misses;

  if (t.window.size() < config_.min_samples) return std::nullopt;
  const double fraction = miss_fraction(t);
  const double burn = fraction / (1.0 - config_.target);
  if (burn < config_.threshold) return std::nullopt;
  if (now - t.last_alert < config_.cooldown) return std::nullopt;

  t.last_alert = now;
  BurnAlert alert;
  alert.time = now;
  alert.tenant = tenant;
  alert.tenant_name = t.name;
  alert.burn_rate = burn;
  alert.miss_fraction = fraction;
  alert.window_samples = t.window.size();
  alerts_.push_back(alert);
  return alert;
}

double BurnRateTracker::burn_rate(int tenant) const {
  SMR_CHECK_MSG(tenant >= 0 &&
                    static_cast<std::size_t>(tenant) < tenants_.size(),
                "unknown tenant " << tenant);
  return miss_fraction(tenants_[static_cast<std::size_t>(tenant)]) /
         (1.0 - config_.target);
}

void BurnRateTracker::write_alerts_jsonl(std::ostream& out) const {
  TextOut w(out);
  for (const BurnAlert& a : alerts_) {
    w << "{\"type\":\"slo_alert\",\"time\":" << a.time
      << ",\"tenant\":" << a.tenant << ",\"tenant_name\":";
    w.json_string(a.tenant_name);
    w << ",\"burn_rate\":" << a.burn_rate
      << ",\"miss_fraction\":" << a.miss_fraction
      << ",\"window_samples\":" << a.window_samples
      << ",\"window\":" << config_.window
      << ",\"target\":" << config_.target
      << ",\"threshold\":" << config_.threshold << "}\n";
  }
}

}  // namespace smr::serve
