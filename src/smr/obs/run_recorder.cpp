#include "smr/obs/run_recorder.hpp"

#include <iterator>
#include <utility>

namespace smr::obs {

namespace {
using metrics::TraceEventKind;

constexpr const char* kSeriesNames[] = {
    "slots.map_target",      "slots.reduce_target", "tasks.running_maps",
    "tasks.running_reduces", "queue.pending_maps",  "queue.pending_reduces",
    "shuffle.bytes_in_flight",
};

// Dense-vector accessors: read without growing, write grows on demand.
SpanId slot_get(const std::vector<SpanId>& table, TaskId id) {
  return id >= 0 && static_cast<std::size_t>(id) < table.size()
             ? table[static_cast<std::size_t>(id)]
             : kInvalidSpan;
}

void slot_set(std::vector<SpanId>& table, TaskId id, SpanId value) {
  if (static_cast<std::size_t>(id) >= table.size()) {
    table.resize(static_cast<std::size_t>(id) + 1, kInvalidSpan);
  }
  table[static_cast<std::size_t>(id)] = value;
}
}  // namespace

void RunRecorder::set_metrics(MetricsRegistry* metrics) {
  if (metrics != metrics_) {
    counters_ = {};
    durations_ = {};
    series_ = {};
  }
  metrics_ = metrics;
}

void RunRecorder::job_finished(SimTime now, const JobLabel& job) {
  trace(now, TraceEventKind::kJobFinished, job.id, kInvalidTask, kInvalidNode, true);
  close_job(now, job, SpanOutcome::kOk);
}

void RunRecorder::job_failed(SimTime now, const JobLabel& job,
                             const std::string& reason) {
  trace(now, TraceEventKind::kJobFailed, job.id, kInvalidTask, kInvalidNode, true,
        reason);
  close_job(now, job, SpanOutcome::kFailed);
  count(kJobsFailed);
}

void RunRecorder::reduce_eligible(SimTime now, const JobLabel& job) {
  if (spans_ == nullptr) return;
  Span& job_span = spans_->at(job_spans(job).job);
  if (job_span.reduce_eligible == kTimeNever) job_span.reduce_eligible = now;
}

void RunRecorder::barrier_crossed(SimTime now, const JobLabel& job) {
  trace(now, TraceEventKind::kBarrierCrossed, job.id, kInvalidTask, kInvalidNode,
        true);
  if (spans_ == nullptr) return;
  JobSpans& state = job_spans(job);
  close_span(state.wave, now, SpanOutcome::kOk);
  close_span(state.maps_phase, now, SpanOutcome::kOk);
  if (state.reduce_phase == kInvalidSpan) {
    state.reduce_phase = spans_->open(SpanKind::kPhase, "reduce", now, state.job);
    spans_->at(state.reduce_phase).is_map = false;
  }
}

void RunRecorder::attempt_launched(SimTime now, const JobLabel& job,
                                   TaskId attempt, TaskId primary, NodeId node,
                                   bool is_map) {
  const bool speculative = attempt != primary;
  count(is_map ? kMapLaunches : kReduceLaunches);
  trace(now, TraceEventKind::kTaskLaunched, job.id, attempt, node, is_map,
        speculative ? "speculative" : "");
  trace(now, TraceEventKind::kPhaseStarted, job.id, attempt, node, is_map,
        is_map ? "MAP" : "SHUFFLE");
  if (spans_ == nullptr) return;
  // Open the attempt's span under the right phase, stamp the enabling
  // policy decision, and link it to the attempt it retries (if any).
  JobSpans& state = job_spans(job);
  SpanId parent;
  if (is_map) {
    if (state.maps_phase == kInvalidSpan) {
      // The barrier re-opened (a completed map was lost to a node
      // failure): a fresh map phase carries the re-execution.
      ++state.maps_phases;
      state.maps_phase = spans_->open(
          SpanKind::kPhase, "maps-" + std::to_string(state.maps_phases), now,
          state.job);
    }
    if (state.open_map_attempts == 0) {
      ++state.waves;
      state.wave = spans_->open(SpanKind::kWave,
                                "wave-" + std::to_string(state.waves), now,
                                state.maps_phase);
    }
    ++state.open_map_attempts;
    parent = state.wave;
  } else {
    if (state.shuffle_phase == kInvalidSpan) {
      state.shuffle_phase = spans_->open(SpanKind::kPhase, "shuffle", now, state.job);
      spans_->at(state.shuffle_phase).is_map = false;
    }
    parent = state.reduce_phase != kInvalidSpan ? state.reduce_phase
                                                : state.shuffle_phase;
  }

  std::string name = speculative ? "spec-" : "";
  name += is_map ? "map-" : "reduce-";
  name += std::to_string(primary);
  const SpanId id = spans_->open(SpanKind::kAttempt, std::move(name), now, parent);
  Span& span = spans_->at(id);
  span.task = attempt;
  span.node = node;
  span.is_map = is_map;
  span.speculative = speculative;
  span.decision_id = last_decision_id_;
  span.decision_time = last_decision_time_;
  if (!speculative) {
    const SpanId retry_of = slot_get(retry_parent_, primary);
    if (retry_of != kInvalidSpan) {
      span.retry_of = retry_of;
      slot_set(retry_parent_, primary, kInvalidSpan);
    }
    slot_set(last_attempt_span_, primary, id);
  }
  slot_set(attempt_spans_, attempt, id);
}

void RunRecorder::attempt_finished(SimTime now, JobId job, TaskId task,
                                   TaskId attempt, NodeId node, bool is_map,
                                   SimTime duration) {
  if (metrics_ != nullptr) {
    Histogram*& histogram = durations_[is_map ? 0 : 1];
    if (histogram == nullptr) {
      histogram = &metrics_->histogram(
          is_map ? "task.map_duration_s" : "task.reduce_duration_s", kDurationBounds);
    }
    histogram->observe(duration);
  }
  trace(now, TraceEventKind::kTaskFinished, job, task, node, is_map);
  end_attempt(now, attempt, SpanOutcome::kOk);
}

void RunRecorder::attempt_killed(SimTime now, JobId job, TaskId attempt,
                                 NodeId node, bool is_map, KillCause cause) {
  count(kKills);
  trace(now, TraceEventKind::kTaskKilled, job, attempt, node, is_map,
        cause == KillCause::kShadowRetired ? "speculative"
        : cause == KillCause::kLostRace    ? "lost-race"
                                           : "");
  if (cause == KillCause::kRequeued) mark_retry(attempt, attempt);
  end_attempt(now, attempt, SpanOutcome::kKilled);
}

void RunRecorder::attempt_failed(SimTime now, JobId job, TaskId attempt,
                                 TaskId primary, NodeId node, bool is_map,
                                 int failed_attempts, bool retried) {
  const bool speculative = attempt != primary;
  count(is_map ? kMapAttemptFailures : kReduceAttemptFailures);
  trace(now, TraceEventKind::kTaskAttemptFailed, job, attempt, node, is_map,
        speculative ? "injected-speculative" : "injected",
        static_cast<double>(failed_attempts));
  // Close the span as kFailed before the requeue/kill that follows (whose
  // own close would report kKilled); mark the retry link for a relaunch.
  if (!speculative) mark_retry(primary, attempt);
  end_attempt(now, attempt, SpanOutcome::kFailed);
  if (retried) count(kRetries);
}

void RunRecorder::completed_map_lost(SimTime now, JobId job, TaskId task,
                                     NodeId node) {
  count(kKills);
  trace(now, TraceEventKind::kTaskKilled, job, task, node, true);
  // The re-execution retries the completed attempt, whose span is closed:
  // mark_retry links it through the last-attempt record.
  mark_retry(task, task);
}

void RunRecorder::shuffle_settled(SimTime now, JobId job, TaskId attempt,
                                  NodeId node) {
  trace(now, TraceEventKind::kPhaseStarted, job, attempt, node, false, "SORT");
  if (spans_ == nullptr) return;
  const SpanId id = slot_get(attempt_spans_, attempt);
  if (id != kInvalidSpan) spans_->at(id).shuffle_end = now;
  const auto slot = static_cast<std::size_t>(job);
  if (slot < job_spans_.size() && job_spans_[slot].job != kInvalidSpan) {
    job_spans_[slot].last_shuffle_end = now;
  }
}

void RunRecorder::node_failed(SimTime now, NodeId node) {
  trace(now, TraceEventKind::kNodeFailed, kInvalidJob, kInvalidTask, node, true);
  count(kNodesFailed);
}

void RunRecorder::node_recovered(SimTime now, NodeId node) {
  trace(now, TraceEventKind::kNodeRecovered, kInvalidJob, kInvalidTask, node, true);
  count(kNodesRecovered);
}

void RunRecorder::node_blacklisted(SimTime now, NodeId node, int failures) {
  trace(now, TraceEventKind::kNodeBlacklisted, kInvalidJob, kInvalidTask, node,
        true, "", static_cast<double>(failures));
  count(kNodesBlacklisted);
}

void RunRecorder::slot_targets(SimTime now, int map_total, int reduce_total) {
  if (trace_ == nullptr) return;
  if (map_total != traced_map_total_) {
    traced_map_total_ = map_total;
    trace(now, TraceEventKind::kSlotTargetChanged, kInvalidJob, kInvalidTask,
          kInvalidNode, true, "map", static_cast<double>(map_total));
  }
  if (reduce_total != traced_reduce_total_) {
    traced_reduce_total_ = reduce_total;
    trace(now, TraceEventKind::kSlotTargetChanged, kInvalidJob, kInvalidTask,
          kInvalidNode, false, "reduce", static_cast<double>(reduce_total));
  }
}

void RunRecorder::policy_period(SimTime now, const DecisionLog* decisions,
                                std::size_t first_new) {
  refresh_decisions(decisions);
  count(kPolicyPeriods);
  if (trace_ == nullptr || decisions == nullptr) return;
  // Mirror the period's audit records into the trace so Perfetto shows the
  // control loop's reasoning next to the task slices.
  for (std::size_t i = first_new; i < decisions->size(); ++i) {
    const SlotDecision& d = decisions->decisions()[i];
    decision_detail_ = to_string(d.action);
    if (!d.reason.empty()) {
      decision_detail_ += ": ";
      decision_detail_ += d.reason;
    }
    trace(now, TraceEventKind::kPolicyDecision, kInvalidJob, kInvalidTask,
          kInvalidNode, true, decision_detail_, d.balance_factor.value_or(0.0));
  }
}

void RunRecorder::sample(SimTime now, const metrics::SlotSample& totals,
                         double pending_maps, double pending_reduces,
                         double shuffle_backlog) {
  if (metrics_ == nullptr) return;
  static_assert(std::size(kSeriesNames) == kSeriesCount);
  if (series_[0] == nullptr) {
    for (std::size_t i = 0; i < kSeriesCount; ++i) {
      series_[i] = &metrics_->series(kSeriesNames[i]);
    }
  }
  const double values[kSeriesCount] = {
      totals.map_target,      totals.reduce_target, totals.running_maps,
      totals.running_reduces, pending_maps,         pending_reduces,
      shuffle_backlog};
  for (std::size_t i = 0; i < kSeriesCount; ++i) series_[i]->append(now, values[i]);
}

void RunRecorder::abort(SimTime now, const DecisionLog* decisions) {
  refresh_decisions(decisions);
  if (spans_ == nullptr) return;
  spans_->close_open(now, SpanOutcome::kAborted);
  attempt_spans_.assign(attempt_spans_.size(), kInvalidSpan);
  for (auto& state : job_spans_) {
    if (state.job == kInvalidSpan) continue;
    state.wave = kInvalidSpan;
    state.maps_phase = kInvalidSpan;
    state.shuffle_phase = kInvalidSpan;
    state.reduce_phase = kInvalidSpan;
    state.open_map_attempts = 0;
  }
}

void RunRecorder::run_end(SimTime makespan, bool completed) {
  // The run root always, plus phases and attempts when the time limit cut
  // the run short (an abort already closed its spans at the abort instant).
  if (spans_ == nullptr || run_span_ == kInvalidSpan) return;
  spans_->close_open(makespan, completed ? SpanOutcome::kOk : SpanOutcome::kAborted);
}

RunRecorder::JobSpans& RunRecorder::job_spans(const JobLabel& job) {
  const auto slot = static_cast<std::size_t>(job.id);
  if (slot >= job_spans_.size()) job_spans_.resize(slot + 1);
  JobSpans& state = job_spans_[slot];
  if (state.job == kInvalidSpan) {
    if (run_span_ == kInvalidSpan) {
      run_span_ = spans_->open(SpanKind::kRun, "run", 0.0);
    }
    state.job = spans_->open(SpanKind::kJob, job.name, job.submit_time, run_span_);
    spans_->at(state.job).job = job.id;
    // The map phase opens with the job: its tasks are runnable (and
    // usually waiting for slots) from submission on.
    state.maps_phase =
        spans_->open(SpanKind::kPhase, "maps", job.submit_time, state.job);
  }
  return state;
}

void RunRecorder::end_attempt(SimTime now, TaskId attempt, SpanOutcome outcome) {
  if (spans_ == nullptr) return;
  const SpanId id = slot_get(attempt_spans_, attempt);
  if (id == kInvalidSpan) return;  // already closed by an earlier path
  slot_set(attempt_spans_, attempt, kInvalidSpan);
  spans_->close(id, now, outcome);
  const Span& span = spans_->at(id);
  if (!span.is_map) return;
  const auto slot = static_cast<std::size_t>(span.job);
  if (span.job >= 0 && slot < job_spans_.size() &&
      job_spans_[slot].job != kInvalidSpan) {
    JobSpans& state = job_spans_[slot];
    if (--state.open_map_attempts == 0) close_span(state.wave, now, SpanOutcome::kOk);
  }
}

void RunRecorder::mark_retry(TaskId primary, TaskId failed_attempt) {
  if (spans_ == nullptr) return;
  const SpanId open_span = slot_get(attempt_spans_, failed_attempt);
  if (open_span != kInvalidSpan) {
    slot_set(retry_parent_, primary, open_span);
    return;
  }
  // The attempt span is already closed (e.g. a *completed* map lost to a
  // node failure): link the re-execution to its last recorded span.
  const SpanId last = slot_get(last_attempt_span_, primary);
  if (last != kInvalidSpan) slot_set(retry_parent_, primary, last);
}

void RunRecorder::close_job(SimTime now, const JobLabel& job, SpanOutcome outcome) {
  if (spans_ == nullptr) return;
  JobSpans& state = job_spans(job);
  const SpanOutcome phase_outcome =
      outcome == SpanOutcome::kOk ? SpanOutcome::kOk : SpanOutcome::kKilled;
  close_span(state.wave, now, phase_outcome);
  close_span(state.maps_phase, now, phase_outcome);
  // A clean finish dates the shuffle's end at the last settle; a teardown
  // cuts it off at the teardown instant.
  close_span(state.shuffle_phase,
             outcome == SpanOutcome::kOk && state.last_shuffle_end != kTimeNever
                 ? state.last_shuffle_end
                 : now,
             phase_outcome);
  close_span(state.reduce_phase, now, phase_outcome);
  spans_->close(state.job, now, outcome);
}

void RunRecorder::close_span(SpanId& id, SimTime end, SpanOutcome outcome) {
  if (id == kInvalidSpan) return;
  spans_->close(id, end, outcome);
  id = kInvalidSpan;
}

void RunRecorder::refresh_decisions(const DecisionLog* decisions) {
  if (spans_ == nullptr || decisions == nullptr) return;
  const auto& rows = decisions->decisions();
  for (; decisions_seen_ < rows.size(); ++decisions_seen_) {
    const SlotDecision& d = rows[decisions_seen_];
    // Only decisions that moved slot targets can enable a launch; holds
    // keep the previous annotation current.
    if (d.changed_slots()) {
      last_decision_id_ = d.id;
      last_decision_time_ = d.time;
    }
  }
}

void RunRecorder::trace(SimTime now, TraceEventKind kind, JobId job, TaskId task,
                        NodeId node, bool is_map, std::string_view detail,
                        double value) {
  if (trace_ != nullptr) {
    trace_->record({now, value, detail, job, task, node, kind, is_map});
  }
}

}  // namespace smr::obs
