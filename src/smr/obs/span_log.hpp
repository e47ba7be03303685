// Causal span tree of one run: run -> job -> phase (map waves, shuffle,
// reduce) -> task attempt.
//
// Where the TraceLog is a flat event stream, the SpanLog is hierarchical
// and causally linked: every span knows its parent, every retry attempt
// points at the attempt whose failure caused it (`retry_of`), and every
// launch carries the id of the slot-policy decision that most recently
// changed the slot targets it launched under (`decision_id`).  The
// critical-path analyzer (critical_path.hpp) walks this DAG to attribute
// a job's makespan; the Chrome-trace writer renders it as nested slices
// with flow arrows.
//
// Attach with Runtime::set_spans(&log) before run(); obs::RunRecorder
// (run_recorder.hpp) builds the tree.  Recording is purely observational: a
// run with and without a SpanLog attached is bit-identical (the test
// RuntimeSpans.RecordingIsPurelyObservational), and with no log attached
// each span update is a null-pointer test.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "smr/common/chunked_vector.hpp"
#include "smr/common/types.hpp"

namespace smr::obs {

using SpanId = std::int32_t;
inline constexpr SpanId kInvalidSpan = -1;

enum class SpanKind {
  kRun,      // the whole simulation
  kJob,      // submit -> finish of one job
  kPhase,    // "maps" (submit -> barrier), "shuffle", "reduce"
  kWave,     // one contiguous stretch of running map attempts
  kAttempt,  // one task attempt on one node
};

enum class SpanOutcome {
  kOpen,     // still running (only in logs cut off mid-run)
  kOk,       // completed
  kFailed,   // injected attempt failure / failed job
  kKilled,   // eager shrink, speculation race, node failure, job teardown
  kAborted,  // run aborted underneath it
};

const char* to_string(SpanKind kind);
const char* to_string(SpanOutcome outcome);

struct Span {
  SpanId id = kInvalidSpan;
  SpanId parent = kInvalidSpan;
  SpanKind kind = SpanKind::kAttempt;
  std::string name;

  SimTime start = 0.0;
  SimTime end = kTimeNever;  // kTimeNever while open
  SpanOutcome outcome = SpanOutcome::kOpen;

  JobId job = kInvalidJob;
  TaskId task = kInvalidTask;
  NodeId node = kInvalidNode;
  bool is_map = true;
  bool speculative = false;

  /// Id of the slot-policy decision (DecisionLog row) that most recently
  /// changed the slot targets this attempt launched under; -1 when the
  /// policy made no slot-changing decision yet (or keeps no log).
  int decision_id = -1;
  SimTime decision_time = kTimeNever;

  /// Attempt spans only: the earlier attempt of the same task whose
  /// failure/kill caused this launch.
  SpanId retry_of = kInvalidSpan;

  /// Reduce attempts: when the shuffle finished and compute began.
  SimTime shuffle_end = kTimeNever;

  /// Job spans: when map completion first crossed the reduce slow-start
  /// threshold, i.e. the earliest moment a reduce could launch.  The
  /// critical-path analyzer splits the makespan into a map chain before
  /// this point and a reduce chain after it.
  SimTime reduce_eligible = kTimeNever;

  bool closed() const { return end != kTimeNever; }
  SimTime duration() const { return closed() ? end - start : 0.0; }
};

/// Append-only span store.  Ids are dense indices into spans(); open() and
/// close() are O(1), and a span never moves, so a Span& from at() stays
/// valid across later open() calls.  Not thread-safe (one log per runtime,
/// like TraceLog).
class SpanLog {
 public:
  SpanId open(SpanKind kind, std::string name, SimTime start,
              SpanId parent = kInvalidSpan);
  /// Closing an already-closed span is a programming error and aborts.
  void close(SpanId id, SimTime end, SpanOutcome outcome = SpanOutcome::kOk);
  /// Mutable access for annotations (decision_id, retry_of, shuffle_end).
  Span& at(SpanId id);
  const Span& at(SpanId id) const;

  const ChunkedVector<Span>& spans() const { return spans_; }
  std::size_t size() const { return spans_.size(); }
  bool empty() const { return spans_.empty(); }

  /// Spans of one kind, in id (== creation) order.
  std::vector<Span> of_kind(SpanKind kind) const;
  /// Closed attempt spans belonging to `job`, in id order.
  std::vector<Span> attempts_of_job(JobId job) const;
  /// Number of spans still open (0 after a clean run).
  std::size_t open_count() const;

  /// Abort-path flush: close every open span at `end` with `outcome`.
  void close_open(SimTime end, SpanOutcome outcome = SpanOutcome::kAborted);

  /// JSON-lines export, one {"type":"span",...} object per span with the
  /// causal fields (parent, retry_of, decision_id) always present.
  void write_jsonl(std::ostream& out) const;

 private:
  ChunkedVector<Span> spans_;
};

}  // namespace smr::obs
