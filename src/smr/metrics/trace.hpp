// Task-event tracing: a structured log of everything the cluster did,
// exportable as CSV or as a Chrome-trace-viewer JSON (load in
// chrome://tracing or Perfetto, one row per node, one slice per task
// phase).  Attach a TraceLog to a Runtime before run().
#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <string>
#include <string_view>
#include <unordered_set>
#include <vector>

#include "smr/common/chunked_vector.hpp"
#include "smr/common/types.hpp"

namespace smr::obs {
class SpanLog;
}

namespace smr::metrics {

enum class TraceEventKind : std::uint8_t {
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

/// Fields ordered widest first, so an event packs into 48 bytes and owns no
/// heap memory.
struct TraceEvent {
  SimTime time = 0.0;
  double value = 0.0;
  /// In a recorded event, a view of the log's own copy of the text (see
  /// TraceLog::record); valid as long as the log.
  std::string_view detail;
  JobId job = kInvalidJob;
  TaskId task = kInvalidTask;
  NodeId node = kInvalidNode;
  TraceEventKind kind = TraceEventKind::kTaskLaunched;
  bool is_map = true;
};

class TraceLog {
 public:
  TraceLog() = default;
  // Recorded details view this log's pool: a copy would view the original's.
  TraceLog(const TraceLog&) = delete;
  TraceLog& operator=(const TraceLog&) = delete;
  TraceLog(TraceLog&&) = default;
  TraceLog& operator=(TraceLog&&) = default;

  /// Appends `event` with its detail interned: each distinct text is stored
  /// once in the log's pool, looked up before anything is allocated, so the
  /// caller's text may die right after the call.
  void record(const TraceEvent& event);
  const ChunkedVector<TraceEvent>& events() const { return events_; }
  std::size_t size() const { return events_.size(); }
  bool empty() const { return events_.empty(); }
  void clear() {
    events_.clear();
    details_.clear();
  }

  /// Events of one kind, in time order (the log itself is time-ordered
  /// because the simulation is).
  std::vector<TraceEvent> of_kind(TraceEventKind kind) const;

  /// Approximate heap footprint of the log (self-profiling): the event
  /// chunks plus the detail pool.
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
  struct DetailHash {
    using is_transparent = void;
    std::size_t operator()(std::string_view text) const {
      return std::hash<std::string_view>()(text);
    }
  };

  /// The pool's copy of `text` (empty text needs none).  The set's nodes
  /// never move, so neither does a view of a pooled string.
  std::string_view intern(std::string_view text);

  ChunkedVector<TraceEvent> events_;
  std::unordered_set<std::string, DetailHash, std::equal_to<>> details_;
};

}  // namespace smr::metrics
