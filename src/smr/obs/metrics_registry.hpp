// Thread-safe metrics registry: named counters, gauges, fixed-bucket
// histograms and (optionally labeled) time series.
//
// The registry hands out stable references — instruments live as long as
// the registry — so hot paths look up an instrument once and then update
// it lock-free (counters and gauges are atomics; histogram buckets are an
// atomic array).  Series appends take a per-series mutex, which is fine
// for the sampling rates involved (a few Hz of simulated time).
//
// Safe to use concurrently from ThreadPool workers: benches running
// independent simulations on the pool may share one registry.
#pragma once

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "smr/common/types.hpp"

namespace smr::obs {

/// Default bucket bounds (seconds) for task-duration histograms.
inline const std::vector<double> kDurationBounds = {
    1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 200.0, 500.0, 1000.0};

class Counter {
 public:
  void inc(std::int64_t delta = 1) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  std::int64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::int64_t> value_{0};
};

class Gauge {
 public:
  void set(double value) { value_.store(value, std::memory_order_relaxed); }
  double value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Fixed-bucket histogram: bucket i counts observations <= bounds[i]; one
/// implicit overflow bucket counts the rest.  Bounds are set at creation
/// and never change.
class Histogram {
 public:
  explicit Histogram(std::vector<double> bounds);

  void observe(double value);

  const std::vector<double>& bounds() const { return bounds_; }
  /// Count in bucket `i`; `i == bounds().size()` is the overflow bucket.
  std::int64_t bucket_count(std::size_t i) const;
  std::int64_t total_count() const { return count_.load(std::memory_order_relaxed); }
  double sum() const;

  /// Smallest / largest value ever observed (NaN when empty).  Tracked so
  /// quantile() can stay consistent with stats::percentile at the edges.
  double min() const;
  double max() const;

  /// Estimated q-quantile (q in [0, 1]) by linear interpolation inside the
  /// bucket holding the target rank, Prometheus histogram_quantile-style.
  /// Agrees exactly with stats::percentile at the points a diff tool
  /// compares: q=0 is the observed min, q=1 the observed max, a
  /// single-sample histogram returns that sample for every q, and every
  /// interpolated estimate is clamped to [min, max] (the overflow bucket
  /// interpolates between the largest finite bound and the observed max
  /// instead of flatlining at the bound).  NaN when empty.
  double quantile(double q) const;
  double p50() const { return quantile(0.50); }
  double p95() const { return quantile(0.95); }
  double p99() const { return quantile(0.99); }

 private:
  std::vector<double> bounds_;  // ascending upper bounds
  std::unique_ptr<std::atomic<std::int64_t>[]> buckets_;  // bounds.size() + 1
  std::atomic<std::int64_t> count_{0};
  std::atomic<double> sum_{0.0};
  std::atomic<double> min_{std::numeric_limits<double>::infinity()};
  std::atomic<double> max_{-std::numeric_limits<double>::infinity()};
};

/// An append-only (time, value) series.
class Series {
 public:
  struct Sample {
    double time = 0.0;
    double value = 0.0;
  };

  void append(double time, double value);
  std::vector<Sample> samples() const;
  std::size_t size() const;

 private:
  mutable std::mutex mutex_;
  std::vector<Sample> samples_;
};

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Get or create an instrument.  References remain valid for the life of
  /// the registry.  Creating the same name with two different instrument
  /// kinds is a programming error and aborts.
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  /// `bounds` is consulted only on first creation.
  Histogram& histogram(const std::string& name, std::vector<double> bounds);
  Series& series(const std::string& name);
  /// Labeled series: stored under the canonical key
  /// `name{k1="v1",k2="v2"}` (keys sorted, Prometheus-style).
  Series& series(const std::string& name,
                 const std::map<std::string, std::string>& labels);

  /// Instrument names currently registered, sorted.
  std::vector<std::string> names() const;

  /// JSON-lines dump: one object per counter/gauge/histogram and one per
  /// series *sample* ({"type":"series","name":...,"t":...,"v":...}).
  void write_jsonl(std::ostream& out) const;

 private:
  struct Instrument {
    // Exactly one is non-null.
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
    std::unique_ptr<Series> series;
  };

  Instrument& slot(const std::string& name);

  mutable std::mutex mutex_;
  std::map<std::string, Instrument> instruments_;  // sorted for stable output
};

/// Canonical key for a labeled metric: `name{k1="v1",...}` with keys in
/// map (i.e. sorted) order; `name` unchanged when labels are empty.
std::string labeled_name(const std::string& name,
                         const std::map<std::string, std::string>& labels);

}  // namespace smr::obs
