#include "smr/common/stats.hpp"

#include <algorithm>
#include <limits>

#include "smr/common/error.hpp"

namespace smr {

WindowedRate::WindowedRate(SimTime window) : window_(window) {
  SMR_CHECK(window > 0.0);
}

void WindowedRate::observe(SimTime now, double cumulative) {
  if (!samples_.empty()) {
    SMR_CHECK_MSG(now >= samples_.back().t,
                  "observations out of order: " << now << " < " << samples_.back().t);
  }
  samples_.push_back({now, cumulative});
  // Keep one sample older than the window so rate() can span the full window.
  while (samples_.size() >= 2 && samples_[1].t <= now - window_) {
    samples_.pop_front();
  }
}

Rate WindowedRate::rate() const {
  if (samples_.size() < 2) return 0.0;
  const Sample& oldest = samples_.front();
  const Sample& newest = samples_.back();
  const SimTime dt = newest.t - oldest.t;
  if (dt <= 0.0) return 0.0;
  return (newest.v - oldest.v) / dt;
}

void WindowedRate::reset() { samples_.clear(); }

TrailingMean::TrailingMean(std::size_t capacity) : capacity_(capacity) {
  SMR_CHECK(capacity > 0);
}

void TrailingMean::add(double x) {
  samples_.push_back(x);
  if (samples_.size() > capacity_) samples_.pop_front();
}

void TrailingMean::reset() { samples_.clear(); }

double TrailingMean::mean() const {
  if (samples_.empty()) return 0.0;
  double s = 0.0;
  for (double x : samples_) s += x;
  return s / static_cast<double>(samples_.size());
}

double percentile(std::vector<double> samples, double p) {
  SMR_CHECK(p >= 0.0 && p <= 100.0);
  // No samples means no percentile; NaN is the honest answer (0.0 would
  // silently read as "zero latency" in reports).
  if (samples.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::sort(samples.begin(), samples.end());
  if (samples.size() == 1) return samples[0];
  const double idx = p / 100.0 * static_cast<double>(samples.size() - 1);
  const auto lo = static_cast<std::size_t>(idx);
  const auto hi = std::min(lo + 1, samples.size() - 1);
  const double frac = idx - static_cast<double>(lo);
  return samples[lo] * (1.0 - frac) + samples[hi] * frac;
}

}  // namespace smr
