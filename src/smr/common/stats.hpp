// Streaming statistics used by the control plane (slot manager, heartbeat
// statistics) and by the reporters.
#pragma once

#include <cstddef>
#include <deque>
#include <vector>

#include "smr/common/types.hpp"

namespace smr {

/// Windowed rate estimator over simulated time.
///
/// The control plane feeds it (time, cumulative-bytes) observations from
/// heartbeats; `rate()` returns bytes/second over a sliding window.  This is
/// what the paper's slot manager consumes as "the shuffle rate" / "the map
/// output rate": an average over the last few heartbeat periods, robust to
/// the burstiness of discrete map completions.
class WindowedRate {
 public:
  /// `window` is the averaging horizon in simulated seconds.
  explicit WindowedRate(SimTime window = 15.0);

  /// Record that the cumulative counter had value `cumulative` at `now`.
  /// Observations must be fed in nondecreasing time order.
  void observe(SimTime now, double cumulative);

  /// Average rate over (approximately) the last `window` seconds.
  /// Returns 0 until two observations spanning positive time exist.
  Rate rate() const;

  void reset();
  SimTime window() const { return window_; }

 private:
  struct Sample {
    SimTime t;
    double v;
  };
  SimTime window_;
  std::deque<Sample> samples_;
};

/// Simple fixed-capacity trailing mean of the last N samples.
class TrailingMean {
 public:
  explicit TrailingMean(std::size_t capacity = 8);

  void add(double x);
  void reset();
  std::size_t count() const { return samples_.size(); }
  bool full() const { return samples_.size() == capacity_; }
  double mean() const;

 private:
  std::size_t capacity_;
  std::deque<double> samples_;
};

/// Percentile over a snapshot of samples (copies + sorts; reporting only).
/// An empty sample set has no percentiles: returns quiet NaN, which callers
/// must handle (or test with std::isnan) before formatting.
double percentile(std::vector<double> samples, double p);

}  // namespace smr
