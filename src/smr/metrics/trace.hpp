// Task-event tracing: a structured log of everything the cluster did,
// exportable as CSV or as a Chrome-trace-viewer JSON (load in
// chrome://tracing or Perfetto, one row per node, one slice per task
// phase).  Attach a TraceLog to a Runtime before run().
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "smr/common/types.hpp"

namespace smr::obs {
class SpanLog;
}

namespace smr::metrics {

enum class TraceEventKind {
  kJobSubmitted,
  kTaskLaunched,
  kPhaseStarted,   // detail = phase name (MAP/SPILL/SHUFFLE/SORT/REDUCE)
  kTaskFinished,
  kTaskKilled,     // eager slot shrinking only
  kBarrierCrossed, // all maps of a job finished
  kJobFinished,
  kSlotTargetChanged,  // detail = "map" or "reduce"; value = new cluster target
  kNodeFailed,         // node = the failed worker
  kPolicyDecision,     // detail = action[: reason]; value = balance factor f
  kTaskAttemptFailed,  // injected attempt failure; value = failed attempts so far
  kNodeRecovered,      // node = the worker whose tracker rejoined
  kNodeBlacklisted,    // node = the tracker taken out of assignment rotation
  kJobFailed,          // a task exhausted max_attempts; detail = reason
  kSloAlert,           // serve burn-rate alert; detail = tenant; value = burn
};

const char* to_string(TraceEventKind kind);

struct TraceEvent {
  SimTime time = 0.0;
  TraceEventKind kind = TraceEventKind::kTaskLaunched;
  JobId job = kInvalidJob;
  TaskId task = kInvalidTask;
  NodeId node = kInvalidNode;
  bool is_map = true;
  std::string detail;
  double value = 0.0;
};

class TraceLog {
 public:
  void record(TraceEvent event) { events_.push_back(std::move(event)); }
  const std::vector<TraceEvent>& events() const { return events_; }
  std::size_t size() const { return events_.size(); }
  bool empty() const { return events_.empty(); }
  void clear() { events_.clear(); }

  /// Events of one kind, in time order (the log itself is time-ordered
  /// because the simulation is).
  std::vector<TraceEvent> of_kind(TraceEventKind kind) const;

  /// Approximate heap footprint of the log (self-profiling): vector
  /// capacity plus out-of-line detail strings.
  std::size_t memory_bytes() const;

  /// Chrome trace-viewer JSON (load in chrome://tracing or Perfetto):
  ///  * complete events ("ph":"X") per task phase, one trace-viewer
  ///    process per node, named via process_name metadata;
  ///  * a synthetic control-plane process carrying instant events
  ///    (barriers, job completions, policy decisions) and counter tracks
  ///    ("ph":"C") for the slot targets and the cluster's running-task
  ///    concurrency, so the control loop renders next to the task slices;
  ///  * phases still open at the end of the log (killed nodes, truncated
  ///    runs) are flushed as slices ending at the last event time.
  /// Durations are in microseconds of simulated time.
  void write_chrome_trace(std::ostream& out) const;

  /// Same, plus the causal span tree when `spans` is non-null:
  ///  * one extra trace-viewer process per job ("job-N-spans") with nested
  ///    slices — job on tid 0, map phase/waves on tid 1, shuffle on tid 2,
  ///    reduce on tid 3, attempts on tid 10+task;
  ///  * a "spans" process carrying the run span and one zero-duration
  ///    anchor slice per slot-policy decision cited by a launch;
  ///  * flow arrows from each failed/killed attempt to the retry it
  ///    caused, and from each decision anchor to the launches it enabled.
  void write_chrome_trace(std::ostream& out, const obs::SpanLog* spans) const;

 private:
  std::vector<TraceEvent> events_;
};

}  // namespace smr::metrics
