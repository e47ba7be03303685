#include "smr/obs/critical_path.hpp"

#include <algorithm>
#include <unordered_map>

#include "smr/common/text_out.hpp"

namespace smr::obs {

namespace {

/// The retry chain that produced `last`: walks retry_of backward, returns
/// [earliest predecessor, ..., last] in launch order.
std::vector<const Span*> retry_chain(const SpanLog& log, const Span& last) {
  std::vector<const Span*> chain;
  const Span* cur = &last;
  chain.push_back(cur);
  while (cur->retry_of != kInvalidSpan) {
    const Span& pred = log.at(cur->retry_of);
    if (!pred.closed()) break;  // defensive: never walk into an open span
    chain.push_back(&pred);
    cur = &pred;
  }
  std::reverse(chain.begin(), chain.end());
  return chain;
}

/// Splits one launch gap: the first heartbeat-period's worth is the
/// control plane being unable to react faster, the rest is a genuine
/// wait for a free slot.
void attribute_gap(double gap, SimTime heartbeat_period,
                   CriticalPathSegments& seg) {
  if (gap <= 0.0) return;
  const double sched = std::min(gap, heartbeat_period);
  seg.scheduler_overhead += sched;
  seg.wait_for_slot += gap - sched;
}

struct ChainResult {
  int attempts = 0;
  int retries = 0;
  /// End of the last (successful) attempt; `floor` if the chain is empty.
  SimTime end = 0.0;
};

/// Attributes [floor, chain end] for the chain that produced `last`.
/// Predecessor attempt durations count as retry; the successful attempt
/// counts as compute (maps) or is split at shuffle_end into
/// data_transfer + compute (reduces); every launch gap is split by
/// attribute_gap.
ChainResult walk_chain(const SpanLog& log, const Span& last, SimTime floor,
                       SimTime heartbeat_period, CriticalPathSegments& seg) {
  const auto chain = retry_chain(log, last);
  ChainResult result;
  result.attempts = static_cast<int>(chain.size());
  result.retries = static_cast<int>(chain.size()) - 1;
  result.end = last.end;

  SimTime cursor = floor;
  for (const Span* attempt : chain) {
    attribute_gap(attempt->start - cursor, heartbeat_period, seg);
    const bool successful = attempt == chain.back();
    if (!successful) {
      seg.retry += attempt->duration();
    } else if (attempt->is_map) {
      seg.compute += attempt->duration();
    } else if (attempt->shuffle_end == kTimeNever) {
      // A reduce that never reported its shuffle end spent its whole
      // life fetching map output.
      seg.data_transfer += attempt->duration();
    } else {
      const SimTime split =
          std::clamp(attempt->shuffle_end, attempt->start, attempt->end);
      seg.data_transfer += split - attempt->start;
      seg.compute += attempt->end - split;
    }
    cursor = attempt->end;
  }
  return result;
}

/// Last-finishing closed attempt matching the predicate, or nullptr.
template <typename Pred>
const Span* last_finishing(const std::vector<const Span*>& attempts,
                           Pred pred) {
  const Span* best = nullptr;
  for (const Span* a : attempts) {
    if (!pred(*a)) continue;
    if (best == nullptr || a->end > best->end ||
        (a->end == best->end && a->id > best->id)) {
      best = a;
    }
  }
  return best;
}

void write_segments(TextOut& out, const CriticalPathSegments& seg) {
  out << "{\"wait_for_slot\":" << seg.wait_for_slot
      << ",\"data_transfer\":" << seg.data_transfer
      << ",\"compute\":" << seg.compute << ",\"retry\":" << seg.retry
      << ",\"scheduler_overhead\":" << seg.scheduler_overhead
      << ",\"total\":" << seg.total() << "}";
}

}  // namespace

CriticalPathReport analyze_critical_path(const SpanLog& log,
                                         SimTime heartbeat_period) {
  // Closed attempts grouped by job in one pass, each group in id order.
  std::unordered_map<JobId, std::vector<const Span*>> attempts_by_job;
  for (const Span& span : log.spans()) {
    if (span.kind == SpanKind::kAttempt && span.closed()) {
      attempts_by_job[span.job].push_back(&span);
    }
  }
  static const std::vector<const Span*> kNoAttempts;

  CriticalPathReport report;
  for (const Span& job_span : log.spans()) {
    if (job_span.kind != SpanKind::kJob) continue;
    if (!job_span.closed() || job_span.outcome != SpanOutcome::kOk) {
      ++report.skipped_jobs;
      continue;
    }
    JobCriticalPath jcp;
    jcp.job = job_span.job;
    jcp.name = job_span.name;
    jcp.submit = job_span.start;
    jcp.finish = job_span.end;
    jcp.makespan = job_span.end - job_span.start;

    const auto found = attempts_by_job.find(job_span.job);
    const std::vector<const Span*>& attempts =
        found != attempts_by_job.end() ? found->second : kNoAttempts;
    const Span* last_reduce = last_finishing(attempts, [](const Span& a) {
      return !a.is_map && a.outcome == SpanOutcome::kOk;
    });
    const Span* last_map = last_finishing(attempts, [](const Span& a) {
      return a.is_map && a.outcome == SpanOutcome::kOk;
    });

    CriticalPathSegments& seg = jcp.segments;
    if (last_reduce != nullptr) {
      // Two chains: the map chain gates reduce eligibility, the reduce
      // chain gates the finish.
      SimTime eligible = job_span.reduce_eligible != kTimeNever
                             ? job_span.reduce_eligible
                             : last_reduce->start;
      eligible = std::clamp(eligible, job_span.start, job_span.end);

      const auto reduce_chain = walk_chain(log, *last_reduce, eligible,
                                           heartbeat_period, seg);
      jcp.attempts_on_path += reduce_chain.attempts;
      jcp.retries_on_path += reduce_chain.retries;
      // The finish event fires at the last reduce completion; anything
      // between (there should be nothing) is control-plane residue.
      seg.scheduler_overhead +=
          std::max(0.0, job_span.end - reduce_chain.end);

      // Map chain: the last successful map finishing by the eligibility
      // crossing is the one whose completion opened the reduce phase.
      const Span* gating_map = nullptr;
      for (const Span* a : attempts) {
        if (!a->is_map || a->outcome != SpanOutcome::kOk) continue;
        if (a->end > eligible) continue;
        if (gating_map == nullptr || a->end > gating_map->end ||
            (a->end == gating_map->end && a->id > gating_map->id)) {
          gating_map = a;
        }
      }
      if (gating_map != nullptr) {
        const auto map_chain = walk_chain(log, *gating_map, job_span.start,
                                          heartbeat_period, seg);
        jcp.attempts_on_path += map_chain.attempts;
        jcp.retries_on_path += map_chain.retries;
        seg.scheduler_overhead += std::max(0.0, eligible - map_chain.end);
      } else {
        // No map finished by the crossing (degenerate slow-start): the
        // whole head is one launch gap.
        attribute_gap(eligible - job_span.start, heartbeat_period, seg);
      }
    } else if (last_map != nullptr) {
      // Map-only job.
      const auto map_chain =
          walk_chain(log, *last_map, job_span.start, heartbeat_period, seg);
      jcp.attempts_on_path += map_chain.attempts;
      jcp.retries_on_path += map_chain.retries;
      seg.scheduler_overhead += std::max(0.0, job_span.end - map_chain.end);
    } else {
      // A job with no successful attempt should not be kOk; be lenient
      // in the analyzer and book everything as wait.
      attribute_gap(jcp.makespan, heartbeat_period, seg);
    }

    // Clamped gaps can only under-count, so the residue is non-negative
    // (modulo float noise); fold it into scheduler_overhead so the
    // segments sum to the makespan exactly.
    seg.scheduler_overhead += jcp.makespan - seg.total();

    report.aggregate += jcp.segments;
    report.jobs.push_back(std::move(jcp));
  }
  return report;
}

void CriticalPathReport::write_json(std::ostream& stream) const {
  TextOut out(stream);
  out << "{\"type\":\"critpath\",\"jobs\":[";
  bool first = true;
  for (const auto& jcp : jobs) {
    if (!first) out << ",";
    first = false;
    out << "{\"job\":" << jcp.job << ",\"name\":";
    out.json_string(jcp.name);
    out << ",\"submit\":" << jcp.submit << ",\"finish\":" << jcp.finish
        << ",\"makespan\":" << jcp.makespan << ",\"segments\":";
    write_segments(out, jcp.segments);
    out << ",\"attempts_on_path\":" << jcp.attempts_on_path
        << ",\"retries_on_path\":" << jcp.retries_on_path << "}";
  }
  out << "],\"aggregate\":";
  write_segments(out, aggregate);
  out << ",\"skipped_jobs\":" << skipped_jobs << "}\n";
}

}  // namespace smr::obs
