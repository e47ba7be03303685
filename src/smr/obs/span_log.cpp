#include "smr/obs/span_log.hpp"

#include "smr/common/error.hpp"
#include "smr/common/text_out.hpp"

namespace smr::obs {

const char* to_string(SpanKind kind) {
  switch (kind) {
    case SpanKind::kRun: return "run";
    case SpanKind::kJob: return "job";
    case SpanKind::kPhase: return "phase";
    case SpanKind::kWave: return "wave";
    case SpanKind::kAttempt: return "attempt";
  }
  return "unknown";
}

const char* to_string(SpanOutcome outcome) {
  switch (outcome) {
    case SpanOutcome::kOpen: return "open";
    case SpanOutcome::kOk: return "ok";
    case SpanOutcome::kFailed: return "failed";
    case SpanOutcome::kKilled: return "killed";
    case SpanOutcome::kAborted: return "aborted";
  }
  return "unknown";
}

SpanId SpanLog::open(SpanKind kind, std::string name, SimTime start,
                     SpanId parent) {
  SMR_CHECK_MSG(parent == kInvalidSpan ||
                    static_cast<std::size_t>(parent) < spans_.size(),
                "span parent " << parent << " does not exist");
  Span span;
  span.id = static_cast<SpanId>(spans_.size());
  span.parent = parent;
  span.kind = kind;
  span.name = std::move(name);
  span.start = start;
  if (parent != kInvalidSpan) {
    // Attempts inherit the job of their enclosing phase/wave/job span so
    // attempts_of_job works without the caller re-stating it.
    span.job = spans_[static_cast<std::size_t>(parent)].job;
  }
  return spans_.push_back(std::move(span)).id;
}

void SpanLog::close(SpanId id, SimTime end, SpanOutcome outcome) {
  Span& span = at(id);
  SMR_CHECK_MSG(!span.closed(), "span " << id << " closed twice");
  span.end = end;
  span.outcome = outcome;
}

Span& SpanLog::at(SpanId id) {
  SMR_CHECK_MSG(id >= 0 && static_cast<std::size_t>(id) < spans_.size(),
                "unknown span " << id);
  return spans_[static_cast<std::size_t>(id)];
}

const Span& SpanLog::at(SpanId id) const {
  SMR_CHECK_MSG(id >= 0 && static_cast<std::size_t>(id) < spans_.size(),
                "unknown span " << id);
  return spans_[static_cast<std::size_t>(id)];
}

std::vector<Span> SpanLog::of_kind(SpanKind kind) const {
  std::vector<Span> matching;
  for (const auto& span : spans_) {
    if (span.kind == kind) matching.push_back(span);
  }
  return matching;
}

std::vector<Span> SpanLog::attempts_of_job(JobId job) const {
  std::vector<Span> matching;
  for (const auto& span : spans_) {
    if (span.kind == SpanKind::kAttempt && span.job == job && span.closed()) {
      matching.push_back(span);
    }
  }
  return matching;
}

std::size_t SpanLog::open_count() const {
  std::size_t open = 0;
  for (const auto& span : spans_) {
    if (!span.closed()) ++open;
  }
  return open;
}

void SpanLog::close_open(SimTime end, SpanOutcome outcome) {
  for (auto& span : spans_) {
    if (!span.closed()) {
      span.end = end;
      span.outcome = outcome;
    }
  }
}

namespace {

/// kTimeNever is not representable in JSON; open spans emit null.
void write_time(TextOut& out, SimTime t) {
  if (t == kTimeNever) {
    out << "null";
  } else {
    out << t;
  }
}

}  // namespace

void SpanLog::write_jsonl(std::ostream& stream) const {
  TextOut out(stream);
  for (const Span& s : spans_) {
    out << "{\"type\":\"span\",\"id\":" << s.id << ",\"parent\":" << s.parent
        << ",\"kind\":\"" << to_string(s.kind) << "\",\"name\":";
    out.json_string(s.name);
    out << ",\"start\":" << s.start << ",\"end\":";
    write_time(out, s.end);
    out << ",\"outcome\":\"" << to_string(s.outcome) << "\",\"job\":" << s.job
        << ",\"task\":" << s.task << ",\"node\":" << s.node
        << ",\"is_map\":" << (s.is_map ? "true" : "false")
        << ",\"speculative\":" << (s.speculative ? "true" : "false")
        << ",\"decision_id\":" << s.decision_id << ",\"decision_time\":";
    write_time(out, s.decision_time);
    out << ",\"retry_of\":" << s.retry_of << ",\"shuffle_end\":";
    write_time(out, s.shuffle_end);
    out << ",\"reduce_eligible\":";
    write_time(out, s.reduce_eligible);
    out << "}\n";
  }
}

}  // namespace smr::obs
