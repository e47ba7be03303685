#include "smr/obs/span_log.hpp"

#include <gtest/gtest.h>

#include <set>
#include <sstream>
#include <string>

#include "smr/common/error.hpp"
#include "smr/core/slot_policy.hpp"
#include "smr/mapreduce/runtime.hpp"
#include "smr/obs/decision_log.hpp"
#include "smr/workload/puma.hpp"
#include "support/run_result_equal.hpp"

namespace smr::obs {
namespace {

TEST(SpanLog, OpenCloseRoundTrip) {
  SpanLog log;
  const SpanId run = log.open(SpanKind::kRun, "run", 0.0);
  const SpanId job = log.open(SpanKind::kJob, "job", 1.0, run);
  EXPECT_EQ(log.size(), 2u);
  EXPECT_EQ(log.open_count(), 2u);
  EXPECT_EQ(log.at(job).parent, run);
  EXPECT_FALSE(log.at(job).closed());

  log.close(job, 5.0);
  EXPECT_EQ(log.at(job).outcome, SpanOutcome::kOk);
  EXPECT_DOUBLE_EQ(log.at(job).duration(), 4.0);
  EXPECT_EQ(log.open_count(), 1u);
}

TEST(SpanLog, SpanReferenceSurvivesLaterOpens) {
  SpanLog log;
  const SpanId run = log.open(SpanKind::kRun, "run", 0.0);
  const SpanId job = log.open(SpanKind::kJob, "job-with-a-name-past-sso", 1.0, run);
  Span& held = log.at(job);
  held.job = 3;
  for (int i = 0; i < 10000; ++i) {
    log.open(SpanKind::kAttempt, "map-" + std::to_string(i), 2.0, job);
  }
  // The reference taken before the opens still reads and writes the span.
  EXPECT_EQ(&held, &log.at(job));
  EXPECT_EQ(held.name, "job-with-a-name-past-sso");
  EXPECT_EQ(held.job, 3);
  held.reduce_eligible = 4.0;
  EXPECT_DOUBLE_EQ(log.at(job).reduce_eligible, 4.0);
  EXPECT_EQ(log.at(log.open(SpanKind::kAttempt, "last", 3.0, job)).job, 3);
  EXPECT_EQ(log.size(), 10003u);
}

TEST(SpanLog, ChildInheritsJobFromParent) {
  SpanLog log;
  const SpanId run = log.open(SpanKind::kRun, "run", 0.0);
  const SpanId job = log.open(SpanKind::kJob, "job", 0.0, run);
  log.at(job).job = 7;
  const SpanId phase = log.open(SpanKind::kPhase, "maps", 0.0, job);
  const SpanId attempt = log.open(SpanKind::kAttempt, "map-0", 1.0, phase);
  EXPECT_EQ(log.at(phase).job, 7);
  EXPECT_EQ(log.at(attempt).job, 7);
  EXPECT_EQ(log.at(run).job, kInvalidJob);
}

TEST(SpanLog, DoubleCloseIsAProgrammingError) {
  SpanLog log;
  const SpanId span = log.open(SpanKind::kRun, "run", 0.0);
  log.close(span, 1.0);
  EXPECT_THROW(log.close(span, 2.0), SmrError);
}

TEST(SpanLog, CloseOpenFlushesEverything) {
  SpanLog log;
  const SpanId run = log.open(SpanKind::kRun, "run", 0.0);
  const SpanId done = log.open(SpanKind::kAttempt, "map-0", 0.0, run);
  log.close(done, 2.0);
  log.open(SpanKind::kAttempt, "map-1", 1.0, run);
  log.close_open(3.0);
  EXPECT_EQ(log.open_count(), 0u);
  // The already-closed span keeps its outcome; the rest become kAborted.
  EXPECT_EQ(log.at(done).outcome, SpanOutcome::kOk);
  EXPECT_EQ(log.at(run).outcome, SpanOutcome::kAborted);
  EXPECT_DOUBLE_EQ(log.at(run).end, 3.0);
}

TEST(SpanLog, JsonlEmitsOneObjectPerSpan) {
  SpanLog log;
  const SpanId run = log.open(SpanKind::kRun, "run", 0.0);
  const SpanId attempt = log.open(SpanKind::kAttempt, "map-0", 1.0, run);
  log.at(attempt).retry_of = 0;
  log.close(attempt, 2.0, SpanOutcome::kFailed);
  std::ostringstream out;
  log.write_jsonl(out);
  std::istringstream in(out.str());
  std::string line;
  std::size_t lines = 0;
  while (std::getline(in, line)) ++lines;
  EXPECT_EQ(lines, 2u);
  EXPECT_NE(out.str().find("\"kind\":\"attempt\""), std::string::npos);
  EXPECT_NE(out.str().find("\"outcome\":\"failed\""), std::string::npos);
  EXPECT_NE(out.str().find("\"retry_of\":0"), std::string::npos);
  // The still-open run span serialises its end as null.
  EXPECT_NE(out.str().find("\"end\":null"), std::string::npos);
}

// --- Runtime integration -------------------------------------------------

mapreduce::RuntimeConfig small_config() {
  mapreduce::RuntimeConfig config;
  config.cluster = cluster::ClusterSpec::paper_testbed(4);
  return config;
}

mapreduce::JobSpec small_job() {
  auto spec = workload::make_puma_job(workload::Puma::kTerasort, kGiB);
  spec.reduce_tasks = 8;
  return spec;
}

TEST(RuntimeSpans, CleanRunProducesClosedTree) {
  SpanLog spans;
  mapreduce::Runtime runtime(small_config(),
                             std::make_unique<core::SmrSlotPolicy>());
  runtime.set_spans(&spans);
  runtime.submit(small_job());
  const auto result = runtime.run();
  ASSERT_TRUE(result.completed);

  ASSERT_FALSE(spans.empty());
  EXPECT_EQ(spans.open_count(), 0u);

  const auto runs = spans.of_kind(SpanKind::kRun);
  ASSERT_EQ(runs.size(), 1u);
  EXPECT_EQ(runs[0].outcome, SpanOutcome::kOk);

  const auto jobs = spans.of_kind(SpanKind::kJob);
  ASSERT_EQ(jobs.size(), 1u);
  EXPECT_EQ(jobs[0].parent, runs[0].id);
  EXPECT_EQ(jobs[0].outcome, SpanOutcome::kOk);
  EXPECT_DOUBLE_EQ(jobs[0].end - jobs[0].start, result.makespan);
  // Reduce slow-start crossed strictly inside the job.
  EXPECT_NE(jobs[0].reduce_eligible, kTimeNever);
  EXPECT_GT(jobs[0].reduce_eligible, jobs[0].start);
  EXPECT_LT(jobs[0].reduce_eligible, jobs[0].end);

  // Phases: at least maps + shuffle + reduce, all under the job.
  const auto phases = spans.of_kind(SpanKind::kPhase);
  std::set<std::string> names;
  for (const Span& phase : phases) {
    EXPECT_EQ(phase.parent, jobs[0].id);
    names.insert(phase.name);
  }
  EXPECT_TRUE(names.count("maps"));
  EXPECT_TRUE(names.count("shuffle"));
  EXPECT_TRUE(names.count("reduce"));

  // One attempt per task (no failures, no speculation), every parent a
  // wave (maps) or phase (reduces), each with a node and outcome kOk.
  const auto attempts = spans.attempts_of_job(jobs[0].job);
  const auto spec = small_job();
  EXPECT_EQ(attempts.size(), static_cast<std::size_t>(spec.map_task_count() +
                                                      spec.reduce_tasks));
  for (const Span& attempt : attempts) {
    EXPECT_EQ(attempt.outcome, SpanOutcome::kOk);
    EXPECT_GE(attempt.node, 0);
    EXPECT_EQ(attempt.retry_of, kInvalidSpan);
    const Span& parent = spans.at(attempt.parent);
    if (attempt.is_map) {
      EXPECT_EQ(parent.kind, SpanKind::kWave);
    } else {
      EXPECT_EQ(parent.kind, SpanKind::kPhase);
      // Reduces record when their shuffle settled.
      EXPECT_NE(attempt.shuffle_end, kTimeNever);
      EXPECT_GE(attempt.shuffle_end, attempt.start);
      EXPECT_LE(attempt.shuffle_end, attempt.end);
    }
  }
}

TEST(RuntimeSpans, RecordingIsPurelyObservational) {
  // The same run with and without a span log must be bit-identical.
  auto run_once = [](SpanLog* spans) {
    mapreduce::Runtime runtime(small_config(),
                               std::make_unique<core::SmrSlotPolicy>());
    if (spans != nullptr) runtime.set_spans(spans);
    runtime.submit(small_job());
    return runtime.run();
  };
  SpanLog spans;
  const auto with = run_once(&spans);
  const auto without = run_once(nullptr);
  ASSERT_TRUE(with.completed);
  expect_bitwise_equal(with, without);
  EXPECT_FALSE(spans.empty());
}

TEST(RuntimeSpans, InjectedFailuresLinkRetries) {
  auto config = small_config();
  config.task_fail_rate = 0.2;
  config.max_attempts = 50;
  SpanLog spans;
  mapreduce::Runtime runtime(config,
                             std::make_unique<core::SmrSlotPolicy>());
  runtime.set_spans(&spans);
  runtime.submit(small_job());
  const auto result = runtime.run();
  ASSERT_TRUE(result.completed);

  std::size_t failed = 0;
  std::size_t retries = 0;
  for (const Span& span : spans.spans()) {
    if (span.kind != SpanKind::kAttempt) continue;
    if (span.outcome == SpanOutcome::kFailed) ++failed;
    if (span.retry_of != kInvalidSpan) {
      ++retries;
      const Span& predecessor = spans.at(span.retry_of);
      EXPECT_EQ(predecessor.kind, SpanKind::kAttempt);
      EXPECT_NE(predecessor.outcome, SpanOutcome::kOk);
      EXPECT_EQ(predecessor.task >= 0, true);
      // The retry launches after its predecessor ended.
      EXPECT_GE(span.start, predecessor.end);
    }
  }
  EXPECT_GT(failed, 0u);
  // Every failed primary attempt has a retry pointing back at it.
  EXPECT_GE(retries, 1u);
  EXPECT_EQ(spans.open_count(), 0u);
}

TEST(RuntimeSpans, LaunchesCiteSlotDecisions) {
  auto policy = std::make_unique<core::SmrSlotPolicy>();
  DecisionLog decisions;
  policy->set_decision_log(&decisions);
  SpanLog spans;
  mapreduce::Runtime runtime(small_config(), std::move(policy));
  runtime.set_spans(&spans);
  // Large enough that the controller grows slots while maps still launch
  // (a 1 GiB job finishes before any slot-changing decision lands).
  auto spec = workload::make_puma_job(workload::Puma::kTerasort, 4 * kGiB);
  spec.reduce_tasks = 8;
  runtime.submit(spec);
  ASSERT_TRUE(runtime.run().completed);
  ASSERT_FALSE(decisions.empty());

  // Any attempt launched after the first slot-changing decision carries a
  // valid decision id that indexes the decision log.
  bool any_cited = false;
  for (const Span& span : spans.of_kind(SpanKind::kAttempt)) {
    if (span.decision_id < 0) continue;
    any_cited = true;
    ASSERT_LT(static_cast<std::size_t>(span.decision_id), decisions.size());
    const SlotDecision& cited =
        decisions.decisions()[static_cast<std::size_t>(span.decision_id)];
    EXPECT_TRUE(cited.changed_slots());
    EXPECT_DOUBLE_EQ(cited.time, span.decision_time);
    EXPECT_LE(span.decision_time, span.start);
  }
  EXPECT_TRUE(any_cited);
}

}  // namespace
}  // namespace smr::obs
