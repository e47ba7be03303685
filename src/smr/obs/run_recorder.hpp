// RunRecorder: where one run's facts reach its observability sinks.
//
// mapreduce::Runtime states each fact once — a job was submitted, an
// attempt launched or failed, a node died, a policy period ran — with one
// call here, and that call updates whichever of the three sinks is
// attached: the flat TraceLog, the causal SpanLog and the MetricsRegistry.
// The recorder also owns the state only observation needs: the open job,
// phase, wave and attempt spans, the retry links between attempts, the
// latest slot-changing decision that launches cite, and the slot-target
// totals it last traced.
//
// Recording is purely observational (no RNG draws, no events, nothing read
// back by the simulation), so a run is bit-identical with any subset of
// sinks attached.  The recorder takes ids, names and times, never runtime
// types.
#pragma once

#include <array>
#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

#include "smr/common/types.hpp"
#include "smr/metrics/job_metrics.hpp"
#include "smr/metrics/trace.hpp"
#include "smr/obs/decision_log.hpp"
#include "smr/obs/metrics_registry.hpp"
#include "smr/obs/span_log.hpp"

namespace smr::obs {

/// A job as the span tree names it; its span opens on the first fact that
/// needs it, dated at the submission.
struct JobLabel {
  JobId id;
  const std::string& name;
  SimTime submit_time;
};

/// Why a running attempt was killed; the trace detail names the cause.
enum class KillCause {
  kRequeued,       // its task went back to the queue ("")
  kShadowRetired,  // a speculative shadow was retired ("speculative")
  kLostRace,       // a primary whose shadow finished first ("lost-race")
};

class RunRecorder {
 public:
  // Each sink is optional and must outlive the run.
  void set_trace(metrics::TraceLog* trace) { trace_ = trace; }
  void set_metrics(MetricsRegistry* metrics);
  void set_spans(SpanLog* spans) { spans_ = spans; }
  /// Slot-target totals and sampled series are worth computing only when
  /// these hold.
  bool tracing() const { return trace_ != nullptr; }
  bool metering() const { return metrics_ != nullptr; }

  void job_submitted(SimTime now, JobId job) {
    trace(now, metrics::TraceEventKind::kJobSubmitted, job, kInvalidTask,
          kInvalidNode, true);
  }
  void job_finished(SimTime now, const JobLabel& job);
  void job_failed(SimTime now, const JobLabel& job, const std::string& reason);
  /// Map completion reached the reduce slow-start threshold (first time counts).
  void reduce_eligible(SimTime now, const JobLabel& job);
  /// Every map of the job has finished.
  void barrier_crossed(SimTime now, const JobLabel& job);

  /// `attempt` launched on `node` carrying `primary`'s work; it is a
  /// speculative shadow when the two ids differ.
  void attempt_launched(SimTime now, const JobLabel& job, TaskId attempt,
                        TaskId primary, NodeId node, bool is_map);
  /// Task `task` completed `duration` after its launch, on the attempt
  /// `attempt` (its own id, or its winning shadow's).
  void attempt_finished(SimTime now, JobId job, TaskId task, TaskId attempt,
                        NodeId node, bool is_map, SimTime duration);
  void attempt_killed(SimTime now, JobId job, TaskId attempt, NodeId node,
                      bool is_map, KillCause cause);
  /// `attempt` of task `primary` crossed its injected-failure threshold, the
  /// task's `failed_attempts`-th failure; `retried` when the task is queued
  /// for another attempt.
  void attempt_failed(SimTime now, JobId job, TaskId attempt, TaskId primary,
                      NodeId node, bool is_map, int failed_attempts, bool retried);
  /// A completed map's output was lost with its node; the re-execution
  /// retries its last attempt.
  void completed_map_lost(SimTime now, JobId job, TaskId task, NodeId node);
  /// A reduce attempt holds its whole partition and starts sorting.
  void shuffle_settled(SimTime now, JobId job, TaskId attempt, NodeId node);
  /// An attempt entered a later compute phase (COMBINE, SPILL, REDUCE).
  void phase_started(SimTime now, JobId job, TaskId attempt, NodeId node,
                     bool is_map, const char* phase) {
    trace(now, metrics::TraceEventKind::kPhaseStarted, job, attempt, node,
          is_map, phase);
  }

  void node_failed(SimTime now, NodeId node);
  void node_recovered(SimTime now, NodeId node);
  /// `failures` attempt failures took the tracker out of rotation.
  void node_blacklisted(SimTime now, NodeId node, int failures);
  /// The live cluster's slot-target totals after something that may have
  /// moved them: each is traced when it differs from the one last traced
  /// (the first call traces both, seeding the counter tracks).
  void slot_targets(SimTime now, int map_total, int reduce_total);
  void heartbeat() { count(kHeartbeats); }
  /// A policy period ran and appended the rows of `decisions` from
  /// `first_new` on.
  void policy_period(SimTime now, const DecisionLog* decisions,
                     std::size_t first_new);
  /// One point of every cluster-level series.
  void sample(SimTime now, const metrics::SlotSample& totals, double pending_maps,
              double pending_reduces, double shuffle_backlog);
  /// The run stopped short: catch the decision annotations up and close
  /// every open span at `now`.
  void abort(SimTime now, const DecisionLog* decisions);
  /// The run is over at `makespan`: close whatever it left open.
  void run_end(SimTime makespan, bool completed);

 private:
  /// The counters the recorder bumps, named by kCounterNames.
  enum CounterId : std::size_t {
    kHeartbeats,
    kJobsFailed,
    kMapLaunches,
    kReduceLaunches,
    kKills,
    kMapAttemptFailures,
    kReduceAttemptFailures,
    kRetries,
    kNodesFailed,
    kNodesRecovered,
    kNodesBlacklisted,
    kPolicyPeriods,
    kCounterIds,
  };
  static constexpr const char* kCounterNames[kCounterIds] = {
      "heartbeats.processed",
      "jobs.failed",
      "tasks.map_launches",
      "tasks.reduce_launches",
      "tasks.kills",
      "tasks.map_attempt_failures",
      "tasks.reduce_attempt_failures",
      "tasks.retries",
      "nodes.failed",
      "nodes.recovered",
      "nodes.blacklisted",
      "policy.periods",
  };
  static_assert(kCounterNames[kCounterIds - 1] != nullptr, "a counter has no name");
  /// The cluster-level series sample() appends to, in kSeriesNames order.
  static constexpr std::size_t kSeriesCount = 7;

  /// Per-job span state, dense by JobId (job == kInvalidSpan: not opened).
  struct JobSpans {
    SpanId job = kInvalidSpan;
    SpanId maps_phase = kInvalidSpan;
    SpanId shuffle_phase = kInvalidSpan;
    SpanId reduce_phase = kInvalidSpan;
    SpanId wave = kInvalidSpan;
    int open_map_attempts = 0;
    int waves = 0;        // waves opened so far (names wave-1, wave-2, ...)
    int maps_phases = 1;  // re-opened barriers name maps-2, maps-3, ...
    SimTime last_shuffle_end = kTimeNever;
  };
  /// The job's span state, opening its span and map phase on first use.
  JobSpans& job_spans(const JobLabel& job);
  /// Close an attempt's span; later calls for the same attempt are ignored,
  /// so teardown paths may overlap.
  void end_attempt(SimTime now, TaskId attempt, SpanOutcome outcome);
  /// Remember that `primary`'s next launch retries this attempt.
  void mark_retry(TaskId primary, TaskId failed_attempt);
  void close_job(SimTime now, const JobLabel& job, SpanOutcome outcome);
  /// Close `id` if it is open, and mark it closed.
  void close_span(SpanId& id, SimTime end, SpanOutcome outcome);
  void refresh_decisions(const DecisionLog* decisions);
  void trace(SimTime now, metrics::TraceEventKind kind, JobId job, TaskId task,
             NodeId node, bool is_map, std::string_view detail = {},
             double value = 0.0);
  /// Inline, so a run with no registry pays only the null test.
  void count(CounterId id) {
    if (metrics_ == nullptr) return;
    Counter*& counter = counters_[id];
    if (counter == nullptr) counter = &metrics_->counter(kCounterNames[id]);
    counter->inc();
  }

  metrics::TraceLog* trace_ = nullptr;
  MetricsRegistry* metrics_ = nullptr;
  SpanLog* spans_ = nullptr;

  /// Instruments of metrics_, each looked up by name on its first use (so
  /// one never touched never appears in the registry) and cached after it;
  /// null until then.  set_metrics drops them when the registry changes.
  std::array<Counter*, kCounterIds> counters_{};
  std::array<Histogram*, 2> durations_{};  // map, reduce attempts
  std::array<Series*, kSeriesCount> series_{};
  /// Reused buffer for the policy-decision trace detail.
  std::string decision_detail_;

  SpanId run_span_ = kInvalidSpan;
  std::vector<JobSpans> job_spans_;
  /// Open attempt spans, dense by attempt id (kInvalidSpan = closed).
  std::vector<SpanId> attempt_spans_;
  /// Last non-speculative attempt span of each primary task: the retry
  /// link for a re-executed *completed* attempt.
  std::vector<SpanId> last_attempt_span_;
  /// Primary task -> span of the failed/killed attempt its next launch
  /// retries (kInvalidSpan = none pending).
  std::vector<SpanId> retry_parent_;
  /// Latest slot-changing policy decision, and the log rows scanned for it.
  int last_decision_id_ = -1;
  SimTime last_decision_time_ = kTimeNever;
  std::size_t decisions_seen_ = 0;
  /// Slot-target totals last traced (-1: none yet).
  int traced_map_total_ = -1;
  int traced_reduce_total_ = -1;
};

}  // namespace smr::obs
