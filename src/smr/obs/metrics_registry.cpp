#include "smr/obs/metrics_registry.hpp"

#include <algorithm>
#include <limits>

#include "smr/common/error.hpp"
#include "smr/common/text_out.hpp"

namespace smr::obs {

namespace {

void add_to_atomic_double(std::atomic<double>& target, double delta) {
  double current = target.load(std::memory_order_relaxed);
  while (!target.compare_exchange_weak(current, current + delta,
                                       std::memory_order_relaxed)) {
  }
}

}  // namespace

Histogram::Histogram(std::vector<double> bounds) : bounds_(std::move(bounds)) {
  SMR_CHECK_MSG(!bounds_.empty(), "histogram needs at least one bucket bound");
  SMR_CHECK_MSG(std::is_sorted(bounds_.begin(), bounds_.end()),
                "histogram bounds must be ascending");
  buckets_ = std::make_unique<std::atomic<std::int64_t>[]>(bounds_.size() + 1);
  for (std::size_t i = 0; i <= bounds_.size(); ++i) buckets_[i] = 0;
}

namespace {

void atomic_min_double(std::atomic<double>& target, double value) {
  double current = target.load(std::memory_order_relaxed);
  while (value < current &&
         !target.compare_exchange_weak(current, value,
                                       std::memory_order_relaxed)) {
  }
}

void atomic_max_double(std::atomic<double>& target, double value) {
  double current = target.load(std::memory_order_relaxed);
  while (value > current &&
         !target.compare_exchange_weak(current, value,
                                       std::memory_order_relaxed)) {
  }
}

}  // namespace

void Histogram::observe(double value) {
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), value);
  const auto index = static_cast<std::size_t>(it - bounds_.begin());
  buckets_[index].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  add_to_atomic_double(sum_, value);
  atomic_min_double(min_, value);
  atomic_max_double(max_, value);
}

double Histogram::min() const {
  if (total_count() == 0) return std::numeric_limits<double>::quiet_NaN();
  return min_.load(std::memory_order_relaxed);
}

double Histogram::max() const {
  if (total_count() == 0) return std::numeric_limits<double>::quiet_NaN();
  return max_.load(std::memory_order_relaxed);
}

std::int64_t Histogram::bucket_count(std::size_t i) const {
  SMR_CHECK(i <= bounds_.size());
  return buckets_[i].load(std::memory_order_relaxed);
}

double Histogram::sum() const { return sum_.load(std::memory_order_relaxed); }

double Histogram::quantile(double q) const {
  SMR_CHECK_MSG(q >= 0.0 && q <= 1.0, "quantile q must be in [0, 1]");
  const std::int64_t total = total_count();
  if (total == 0) return std::numeric_limits<double>::quiet_NaN();
  const double lo = min_.load(std::memory_order_relaxed);
  const double hi = max_.load(std::memory_order_relaxed);
  // The exact-agreement points with stats::percentile: the edges and the
  // degenerate single-sample histogram (where every quantile IS the
  // sample).  Without these, smr_inspect run diffs flagged phantom p99
  // regressions whenever one side's tail landed in the overflow bucket.
  if (q == 0.0) return lo;
  if (q == 1.0 || total == 1) return hi;
  // Target rank in [1, total]; the smallest bucket whose cumulative count
  // reaches it holds the quantile.
  const double rank = q * static_cast<double>(total);
  std::int64_t cumulative = 0;
  for (std::size_t i = 0; i < bounds_.size(); ++i) {
    const std::int64_t in_bucket = bucket_count(i);
    if (in_bucket == 0) continue;
    const std::int64_t before = cumulative;
    cumulative += in_bucket;
    if (static_cast<double>(cumulative) < rank) continue;
    const double lower = i == 0 ? 0.0 : bounds_[i - 1];
    const double upper = bounds_[i];
    const double into_bucket =
        (rank - static_cast<double>(before)) / static_cast<double>(in_bucket);
    const double estimate =
        lower + (upper - lower) * std::clamp(into_bucket, 0.0, 1.0);
    // Bucket edges can lie outside the observed range; never report a
    // value no sample could have had.
    return std::clamp(estimate, lo, hi);
  }
  // Rank landed in the overflow bucket: interpolate between the largest
  // finite bound and the observed max instead of flatlining at the bound
  // (which understated every tail quantile).
  const std::int64_t overflow = bucket_count(bounds_.size());
  const std::int64_t before = total - overflow;
  const double lower = std::clamp(bounds_.back(), lo, hi);
  const double into_bucket =
      (rank - static_cast<double>(before)) / static_cast<double>(overflow);
  return lower + (hi - lower) * std::clamp(into_bucket, 0.0, 1.0);
}

void Series::append(double time, double value) {
  std::lock_guard<std::mutex> lock(mutex_);
  samples_.push_back({time, value});
}

std::vector<Series::Sample> Series::samples() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return samples_;
}

std::size_t Series::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return samples_.size();
}

std::string labeled_name(const std::string& name,
                         const std::map<std::string, std::string>& labels) {
  if (labels.empty()) return name;
  std::string key = name;
  key.push_back('{');
  bool first = true;
  for (const auto& [k, v] : labels) {
    if (!first) key.push_back(',');
    first = false;
    key += k;
    key += "=\"";
    key += v;
    key.push_back('"');
  }
  key.push_back('}');
  return key;
}

MetricsRegistry::Instrument& MetricsRegistry::slot(const std::string& name) {
  return instruments_[name];  // default-constructed on first use
}

Counter& MetricsRegistry::counter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  Instrument& inst = slot(name);
  if (!inst.counter) {
    SMR_CHECK_MSG(!inst.gauge && !inst.histogram && !inst.series,
                  "metric '" << name << "' already registered with another kind");
    inst.counter = std::make_unique<Counter>();
  }
  return *inst.counter;
}

Gauge& MetricsRegistry::gauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  Instrument& inst = slot(name);
  if (!inst.gauge) {
    SMR_CHECK_MSG(!inst.counter && !inst.histogram && !inst.series,
                  "metric '" << name << "' already registered with another kind");
    inst.gauge = std::make_unique<Gauge>();
  }
  return *inst.gauge;
}

Histogram& MetricsRegistry::histogram(const std::string& name,
                                      std::vector<double> bounds) {
  std::lock_guard<std::mutex> lock(mutex_);
  Instrument& inst = slot(name);
  if (!inst.histogram) {
    SMR_CHECK_MSG(!inst.counter && !inst.gauge && !inst.series,
                  "metric '" << name << "' already registered with another kind");
    inst.histogram = std::make_unique<Histogram>(std::move(bounds));
  }
  return *inst.histogram;
}

Series& MetricsRegistry::series(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  Instrument& inst = slot(name);
  if (!inst.series) {
    SMR_CHECK_MSG(!inst.counter && !inst.gauge && !inst.histogram,
                  "metric '" << name << "' already registered with another kind");
    inst.series = std::make_unique<Series>();
  }
  return *inst.series;
}

Series& MetricsRegistry::series(const std::string& name,
                                const std::map<std::string, std::string>& labels) {
  return series(labeled_name(name, labels));
}

std::vector<std::string> MetricsRegistry::names() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::string> out;
  out.reserve(instruments_.size());
  for (const auto& [name, inst] : instruments_) out.push_back(name);
  return out;
}

void MetricsRegistry::write_jsonl(std::ostream& stream) const {
  std::lock_guard<std::mutex> lock(mutex_);
  TextOut out(stream);
  for (const auto& [name, inst] : instruments_) {
    if (inst.counter) {
      out << "{\"type\":\"counter\",\"name\":";
      out.json_string(name);
      out << ",\"value\":" << inst.counter->value() << "}\n";
    } else if (inst.gauge) {
      out << "{\"type\":\"gauge\",\"name\":";
      out.json_string(name);
      out << ",\"value\":" << inst.gauge->value() << "}\n";
    } else if (inst.histogram) {
      const Histogram& h = *inst.histogram;
      out << "{\"type\":\"histogram\",\"name\":";
      out.json_string(name);
      out << ",\"count\":" << h.total_count() << ",\"sum\":" << h.sum()
          << ",\"bounds\":[";
      for (std::size_t i = 0; i < h.bounds().size(); ++i) {
        if (i) out << ',';
        out << h.bounds()[i];
      }
      out << "],\"buckets\":[";
      for (std::size_t i = 0; i <= h.bounds().size(); ++i) {
        if (i) out << ',';
        out << h.bucket_count(i);
      }
      out << "]";
      if (h.total_count() > 0) {
        out << ",\"p50\":" << h.p50() << ",\"p95\":" << h.p95()
            << ",\"p99\":" << h.p99();
      }
      out << "}\n";
    } else if (inst.series) {
      for (const auto& sample : inst.series->samples()) {
        out << "{\"type\":\"series\",\"name\":";
        out.json_string(name);
        out << ",\"t\":" << sample.time << ",\"v\":" << sample.value << "}\n";
      }
    }
  }
}

}  // namespace smr::obs
