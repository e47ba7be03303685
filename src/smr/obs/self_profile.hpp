// Engine self-profiling: how much real work a simulation run cost.
//
// The simulator's own performance is a first-class metric (the ROADMAP's
// perf work needs a baseline to beat): wall-clock per run, simulated
// seconds covered, discrete events dispatched, events per wall second,
// peak event-queue depth and the heap footprint of an attached trace.
// Exported as a single-line JSON object so CLI runs (--metrics-out)
// produce machine-diffable numbers.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <iosfwd>

namespace smr::obs {

/// Wall-clock stopwatch (monotonic).
class Stopwatch {
 public:
  Stopwatch() : start_(std::chrono::steady_clock::now()) {}
  void reset() { start_ = std::chrono::steady_clock::now(); }
  double seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

struct EngineProfile {
  double wall_seconds = 0.0;
  double sim_seconds = 0.0;
  std::uint64_t events = 0;
  std::size_t peak_pending = 0;
  std::size_t trace_events = 0;
  std::size_t trace_bytes = 0;

  double events_per_sec() const {
    return wall_seconds > 0.0 ? static_cast<double>(events) / wall_seconds : 0.0;
  }
  /// Simulated seconds per wall second (how much faster than real time).
  double speedup() const {
    return wall_seconds > 0.0 ? sim_seconds / wall_seconds : 0.0;
  }

  /// One-line JSON object: {"type":"engine","wall_seconds":...,...}.
  /// No trailing newline; callers embedding it in JSON-lines add their own.
  void write_json(std::ostream& out) const;
};

}  // namespace smr::obs
