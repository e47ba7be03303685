#include "smr/metrics/trace.hpp"

#include <algorithm>
#include <map>
#include <set>

#include "smr/common/text_out.hpp"
#include "smr/obs/span_log.hpp"

namespace smr::metrics {

const char* to_string(TraceEventKind kind) {
  switch (kind) {
    case TraceEventKind::kJobSubmitted: return "JOB_SUBMITTED";
    case TraceEventKind::kTaskLaunched: return "TASK_LAUNCHED";
    case TraceEventKind::kPhaseStarted: return "PHASE_STARTED";
    case TraceEventKind::kTaskFinished: return "TASK_FINISHED";
    case TraceEventKind::kTaskKilled: return "TASK_KILLED";
    case TraceEventKind::kBarrierCrossed: return "BARRIER_CROSSED";
    case TraceEventKind::kJobFinished: return "JOB_FINISHED";
    case TraceEventKind::kSlotTargetChanged: return "SLOT_TARGET_CHANGED";
    case TraceEventKind::kNodeFailed: return "NODE_FAILED";
    case TraceEventKind::kPolicyDecision: return "POLICY_DECISION";
    case TraceEventKind::kTaskAttemptFailed: return "TASK_ATTEMPT_FAILED";
    case TraceEventKind::kNodeRecovered: return "NODE_RECOVERED";
    case TraceEventKind::kNodeBlacklisted: return "NODE_BLACKLISTED";
    case TraceEventKind::kJobFailed: return "JOB_FAILED";
    case TraceEventKind::kSloAlert: return "SLO_ALERT";
  }
  return "UNKNOWN";
}

std::vector<TraceEvent> TraceLog::of_kind(TraceEventKind kind) const {
  std::vector<TraceEvent> matching;
  for (const auto& event : events_) {
    if (event.kind == kind) matching.push_back(event);
  }
  return matching;
}

void TraceLog::record(const TraceEvent& event) {
  const std::string_view detail = intern(event.detail);
  events_.push_back(event).detail = detail;
}

std::string_view TraceLog::intern(std::string_view text) {
  if (text.empty()) return {};
  auto it = details_.find(text);
  if (it == details_.end()) it = details_.emplace(text).first;
  return *it;
}

std::size_t TraceLog::memory_bytes() const {
  // A pool node holds the string, the bucket link and the cached hash; the
  // text itself is out of line only past the short-string buffer.
  const std::size_t inline_capacity = std::string().capacity();
  std::size_t bytes =
      events_.memory_bytes() + details_.bucket_count() * sizeof(void*);
  for (const std::string& detail : details_) {
    bytes += sizeof(std::string) + 2 * sizeof(void*);
    if (detail.capacity() > inline_capacity) bytes += detail.capacity() + 1;
  }
  return bytes;
}

void TraceLog::write_chrome_trace(std::ostream& out) const {
  write_chrome_trace(out, nullptr);
}

void TraceLog::write_chrome_trace(std::ostream& stream,
                                  const obs::SpanLog* spans) const {
  TextOut out(stream);
  // The control plane (counters, instants, policy decisions) renders as
  // its own trace-viewer process, away from any real node pid.
  constexpr long long kControlPid = 1000000;
  // The span tree gets its own pid range, clear of node pids and the
  // control plane: the run span and decision anchors live on kSpanPid,
  // each job's subtree on kSpanJobPidBase + job.
  constexpr long long kSpanPid = 2000000;
  constexpr long long kSpanJobPidBase = 2000001;

  // Pair each phase start with the start of the next phase of the same
  // task, or with the task's finish/kill.
  struct OpenPhase {
    SimTime start = 0.0;
    std::string_view name;  // the event's detail
    NodeId node = kInvalidNode;
    JobId job = kInvalidJob;
  };
  std::map<TaskId, OpenPhase> open;

  out << "[";
  bool first = true;
  auto comma = [&] {
    if (!first) out << ",";
    first = false;
  };
  auto emit = [&](const OpenPhase& phase, TaskId task, SimTime end) {
    comma();
    out << "\n{\"name\":";
    out.json_string(phase.name);
    out << ",\"ph\":\"X\",\"pid\":" << phase.node << ",\"tid\":" << task
        << ",\"ts\":" << phase.start * 1e6
        << ",\"dur\":" << (end - phase.start) * 1e6
        << ",\"args\":{\"job\":" << phase.job << "}}";
  };
  auto emit_instant = [&](const TraceEvent& e, const char* name) {
    comma();
    out << "\n{\"name\":\"" << name << "\",\"ph\":\"i\",\"s\":\"g\",\"pid\":"
        << kControlPid << ",\"tid\":0,\"ts\":" << e.time * 1e6
        << ",\"args\":{\"job\":" << e.job << "}}";
  };
  auto emit_counter = [&](const char* name, SimTime time, const char* series,
                          double value) {
    comma();
    out << "\n{\"name\":\"" << name << "\",\"ph\":\"C\",\"pid\":" << kControlPid
        << ",\"ts\":" << time * 1e6 << ",\"args\":{\"" << series
        << "\":" << value << "}}";
  };

  // Process-name metadata: one process per node plus the control plane.
  std::set<NodeId> nodes;
  for (const auto& e : events_) {
    if (e.node != kInvalidNode) nodes.insert(e.node);
  }
  for (NodeId node : nodes) {
    comma();
    out << "\n{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":" << node
        << ",\"args\":{\"name\":\"node-" << node << "\"}}";
  }
  comma();
  out << "\n{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":" << kControlPid
      << ",\"args\":{\"name\":\"control-plane\"}}";

  // Running-task concurrency, recomputed from launch/finish/kill events.
  int running_maps = 0;
  int running_reduces = 0;
  SimTime last_time = 0.0;

  for (const auto& e : events_) {
    last_time = std::max(last_time, e.time);
    switch (e.kind) {
      case TraceEventKind::kPhaseStarted: {
        if (auto it = open.find(e.task); it != open.end()) {
          emit(it->second, e.task, e.time);
        }
        open[e.task] = OpenPhase{e.time, e.detail, e.node, e.job};
        break;
      }
      case TraceEventKind::kTaskLaunched: {
        (e.is_map ? running_maps : running_reduces) += 1;
        emit_counter("running-tasks", e.time, e.is_map ? "maps" : "reduces",
                     e.is_map ? running_maps : running_reduces);
        break;
      }
      case TraceEventKind::kTaskFinished:
      case TraceEventKind::kTaskKilled: {
        if (auto it = open.find(e.task); it != open.end()) {
          emit(it->second, e.task, e.time);
          open.erase(it);
        }
        (e.is_map ? running_maps : running_reduces) -= 1;
        emit_counter("running-tasks", e.time, e.is_map ? "maps" : "reduces",
                     e.is_map ? running_maps : running_reduces);
        break;
      }
      case TraceEventKind::kSlotTargetChanged:
        emit_counter(e.is_map ? "map-slot-target" : "reduce-slot-target",
                     e.time, "target", e.value);
        break;
      case TraceEventKind::kPolicyDecision: {
        comma();
        out << "\n{\"name\":";
        out.json_string(e.detail);
        out << ",\"ph\":\"i\",\"s\":\"p\",\"pid\":" << kControlPid
            << ",\"tid\":1,\"ts\":" << e.time * 1e6
            << ",\"args\":{\"balance_factor\":" << e.value << "}}";
        break;
      }
      case TraceEventKind::kBarrierCrossed:
        emit_instant(e, "barrier");
        break;
      case TraceEventKind::kJobFinished:
        emit_instant(e, "job-finished");
        break;
      case TraceEventKind::kNodeFailed:
        emit_instant(e, "node-failed");
        break;
      case TraceEventKind::kNodeRecovered:
        emit_instant(e, "node-recovered");
        break;
      case TraceEventKind::kNodeBlacklisted:
        emit_instant(e, "node-blacklisted");
        break;
      case TraceEventKind::kJobFailed:
        emit_instant(e, "job-failed");
        break;
      case TraceEventKind::kTaskAttemptFailed:
        // An instant only: the attempt's slice is closed by the TASK_KILLED
        // the requeue emits, so the running-task counters stay balanced.
        emit_instant(e, "task-attempt-failed");
        break;
      case TraceEventKind::kSloAlert: {
        comma();
        out << "\n{\"name\":\"slo-alert\",\"ph\":\"i\",\"s\":\"g\",\"pid\":"
            << kControlPid << ",\"tid\":2,\"ts\":" << e.time * 1e6
            << ",\"args\":{\"tenant\":";
        out.json_string(e.detail);
        out << ",\"burn_rate\":" << e.value << "}}";
        break;
      }
      default:
        break;
    }
  }

  // Flush phases still open at the end of the log (tasks in flight on a
  // killed node, runs cut off by the time limit) as slices ending at the
  // last event time, so the viewer shows them instead of dropping them.
  for (const auto& [task, phase] : open) {
    emit(phase, task, std::max(last_time, phase.start));
  }

  if (spans != nullptr && !spans->empty()) {
    // Open spans (aborted/truncated logs) render up to the latest time
    // anything in either log saw.
    SimTime flush_time = last_time;
    for (const auto& s : spans->spans()) {
      flush_time = std::max(flush_time, s.start);
      if (s.closed()) flush_time = std::max(flush_time, s.end);
    }
    auto span_end = [&](const obs::Span& s) {
      return s.closed() ? s.end : flush_time;
    };
    auto span_pid = [&](const obs::Span& s) {
      return s.kind == obs::SpanKind::kRun || s.job == kInvalidJob
                 ? kSpanPid
                 : kSpanJobPidBase + s.job;
    };
    auto span_tid = [&](const obs::Span& s) -> long long {
      switch (s.kind) {
        case obs::SpanKind::kRun:
        case obs::SpanKind::kJob: return 0;
        case obs::SpanKind::kPhase:
          if (s.name.rfind("maps", 0) == 0) return 1;
          if (s.name == "shuffle") return 2;
          return 3;
        case obs::SpanKind::kWave: return 1;  // nested inside the map phase
        case obs::SpanKind::kAttempt: return 10 + s.task;
      }
      return 0;
    };

    // Process names for the span processes.
    comma();
    out << "\n{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":" << kSpanPid
        << ",\"args\":{\"name\":\"spans\"}}";
    for (const auto& s : spans->spans()) {
      if (s.kind != obs::SpanKind::kJob) continue;
      comma();
      out << "\n{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":"
          << kSpanJobPidBase + s.job << ",\"args\":{\"name\":\"job-" << s.job
          << "-spans\"}}";
    }

    // One zero-duration anchor slice per slot-policy decision cited by a
    // launch, on the spans process, so decision->launch flows have a
    // slice to start from.
    std::map<int, SimTime> decision_anchors;
    for (const auto& s : spans->spans()) {
      if (s.kind == obs::SpanKind::kAttempt && s.decision_id >= 0 &&
          s.decision_time != kTimeNever) {
        decision_anchors.emplace(s.decision_id, s.decision_time);
      }
    }
    for (const auto& [id, time] : decision_anchors) {
      comma();
      out << "\n{\"name\":\"decision-" << id
          << "\",\"ph\":\"X\",\"pid\":" << kSpanPid << ",\"tid\":1,\"ts\":"
          << time * 1e6 << ",\"dur\":0,\"args\":{\"decision_id\":" << id
          << "}}";
    }

    // The slices themselves, nested by (pid, tid, containment).
    for (const auto& s : spans->spans()) {
      comma();
      out << "\n{\"name\":";
      out.json_string(s.name);
      out << ",\"ph\":\"X\",\"pid\":" << span_pid(s)
          << ",\"tid\":" << span_tid(s) << ",\"ts\":" << s.start * 1e6
          << ",\"dur\":" << (span_end(s) - s.start) * 1e6
          << ",\"args\":{\"span\":" << s.id << ",\"outcome\":\""
          << obs::to_string(s.outcome) << "\"";
      if (s.kind == obs::SpanKind::kAttempt) {
        out << ",\"node\":" << s.node << ",\"decision_id\":" << s.decision_id
            << ",\"retry_of\":" << s.retry_of << ",\"speculative\":"
            << (s.speculative ? "true" : "false");
      }
      out << "}}";
    }

    // Flow arrows.  Ids must be unique per arrow; retry flows use the
    // retrying span's id, decision flows an offset range above every
    // span id.
    const long long decision_flow_base =
        static_cast<long long>(spans->size()) + 1;
    long long decision_flow = decision_flow_base;
    for (const auto& s : spans->spans()) {
      if (s.kind != obs::SpanKind::kAttempt) continue;
      if (s.retry_of != obs::kInvalidSpan) {
        const obs::Span& failed = spans->at(s.retry_of);
        comma();
        out << "\n{\"name\":\"retry\",\"ph\":\"s\",\"id\":" << s.id
            << ",\"pid\":" << span_pid(failed) << ",\"tid\":"
            << span_tid(failed) << ",\"ts\":" << span_end(failed) * 1e6
            << "}";
        comma();
        out << "\n{\"name\":\"retry\",\"ph\":\"f\",\"bp\":\"e\",\"id\":"
            << s.id << ",\"pid\":" << span_pid(s) << ",\"tid\":" << span_tid(s)
            << ",\"ts\":" << s.start * 1e6 << "}";
      }
      if (s.decision_id >= 0 && s.decision_time != kTimeNever) {
        comma();
        out << "\n{\"name\":\"decision\",\"ph\":\"s\",\"id\":" << decision_flow
            << ",\"pid\":" << kSpanPid << ",\"tid\":1,\"ts\":"
            << s.decision_time * 1e6 << "}";
        comma();
        out << "\n{\"name\":\"decision\",\"ph\":\"f\",\"bp\":\"e\",\"id\":"
            << decision_flow << ",\"pid\":" << span_pid(s) << ",\"tid\":"
            << span_tid(s) << ",\"ts\":" << s.start * 1e6 << "}";
        ++decision_flow;
      }
    }
  }

  out << "\n]\n";
}

}  // namespace smr::metrics
