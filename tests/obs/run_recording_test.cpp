// One run recorded into every sink at once: the trace, the span tree, the
// metrics registry and the decision log must tell the same story.
//
// The run is the one of
//   smr_sim --benchmark=terasort --input-gib=2 --nodes=6 --reduce-tasks=8
//     --jobs=2 --stagger=30 --speculation --reduce-speculation
//     --heterogeneous --task-fail-rate=0.2 --max-attempts=2
//     --blacklist-after=2 --seed=13 --fail-node=2@40:200
// which reaches every fault counter: a failed job, a node failure and its
// recovery, blacklistings, retries and kills.  Its metrics JSONL (without
// the wall-clock engine line smr_sim appends) is pinned by a golden at one
// and at three shards.
#include <gtest/gtest.h>

#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "smr/driver/experiment.hpp"
#include "smr/mapreduce/runtime.hpp"
#include "smr/metrics/trace.hpp"
#include "smr/obs/decision_log.hpp"
#include "smr/obs/metrics_registry.hpp"
#include "smr/obs/run_recorder.hpp"
#include "smr/obs/span_log.hpp"
#include "smr/workload/puma.hpp"

namespace smr::obs {
namespace {

struct RecordedRun {
  metrics::TraceLog trace;
  MetricsRegistry registry;
  DecisionLog decisions;
  SpanLog spans;
  metrics::RunResult result;
};

std::unique_ptr<RecordedRun> record_run(int shards) {
  auto config = driver::ExperimentConfig::paper_default(driver::EngineKind::kSMapReduce);
  config.runtime.cluster = cluster::ClusterSpec::heterogeneous(3, 3, 0.5);
  config.runtime.seed = 13;
  config.runtime.shard_count = shards;
  config.runtime.speculative_execution = true;
  config.runtime.speculative_reduce_execution = true;
  config.runtime.task_fail_rate = 0.2;
  config.runtime.max_attempts = 2;
  config.runtime.blacklist_after = 2;
  config.runtime.failures.push_back({2, 40.0, 200.0});

  auto run = std::make_unique<RecordedRun>();
  auto policy = driver::make_policy(config);
  policy->set_decision_log(&run->decisions);
  mapreduce::Runtime runtime(config.runtime, std::move(policy),
                             driver::make_scheduler(config));
  runtime.set_trace(&run->trace);
  runtime.set_spans(&run->spans);
  runtime.set_metrics(&run->registry);
  auto spec = workload::make_puma_job(workload::Puma::kTerasort, 2 * kGiB);
  spec.reduce_tasks = 8;
  runtime.submit(spec, 0.0);
  runtime.submit(spec, 30.0);
  run->result = runtime.run();
  return run;
}

std::size_t trace_count(const RecordedRun& run, metrics::TraceEventKind kind) {
  return run.trace.of_kind(kind).size();
}

std::int64_t counter(RecordedRun& run, const std::string& name) {
  return run.registry.counter(name).value();
}

/// Attempt spans by outcome.
std::map<SpanOutcome, std::size_t> attempt_outcomes(const RecordedRun& run) {
  std::map<SpanOutcome, std::size_t> outcomes;
  for (const Span& span : run.spans.spans()) {
    if (span.kind == SpanKind::kAttempt) ++outcomes[span.outcome];
  }
  return outcomes;
}

TEST(RunRecording, SinksAgreeOnEveryFact) {
  const auto run = record_run(1);
  ASSERT_FALSE(run->result.completed);  // one job exhausts its attempts
  using Kind = metrics::TraceEventKind;

  // Launches: one counter bump, one trace event and one attempt span each.
  const std::size_t attempts = run->spans.of_kind(SpanKind::kAttempt).size();
  EXPECT_EQ(attempts, 76u);
  EXPECT_EQ(counter(*run, "tasks.map_launches") +
                counter(*run, "tasks.reduce_launches"),
            static_cast<std::int64_t>(attempts));
  EXPECT_EQ(trace_count(*run, Kind::kTaskLaunched), attempts);

  // Injected failures: failure counters, trace events and `failed` spans.
  const auto outcomes = attempt_outcomes(*run);
  const std::size_t failed = outcomes.count(SpanOutcome::kFailed)
                                 ? outcomes.at(SpanOutcome::kFailed)
                                 : 0;
  EXPECT_EQ(failed, 13u);
  EXPECT_EQ(counter(*run, "tasks.map_attempt_failures") +
                counter(*run, "tasks.reduce_attempt_failures"),
            static_cast<std::int64_t>(failed));
  EXPECT_EQ(trace_count(*run, Kind::kTaskAttemptFailed), failed);

  // Completions: one duration sample, one trace event and one `ok` span.
  const std::size_t ok =
      outcomes.count(SpanOutcome::kOk) ? outcomes.at(SpanOutcome::kOk) : 0;
  EXPECT_EQ(ok, 34u);
  const std::int64_t durations =
      run->registry.histogram("task.map_duration_s", kDurationBounds).total_count() +
      run->registry.histogram("task.reduce_duration_s", kDurationBounds).total_count();
  EXPECT_EQ(durations, static_cast<std::int64_t>(ok));
  EXPECT_EQ(trace_count(*run, Kind::kTaskFinished), ok);

  // Every counter with a trace kind of its own matches that kind's count,
  // and the run reaches each of them.
  const std::pair<const char*, Kind> counted[] = {
      {"nodes.failed", Kind::kNodeFailed},
      {"nodes.recovered", Kind::kNodeRecovered},
      {"nodes.blacklisted", Kind::kNodeBlacklisted},
      {"jobs.failed", Kind::kJobFailed},
      {"tasks.kills", Kind::kTaskKilled},
  };
  for (const auto& [name, kind] : counted) {
    EXPECT_GT(counter(*run, name), 0) << name;
    EXPECT_EQ(counter(*run, name), static_cast<std::int64_t>(trace_count(*run, kind)))
        << name;
  }
  EXPECT_EQ(counter(*run, "nodes.failed"), 1);
  EXPECT_EQ(counter(*run, "nodes.recovered"), 1);
  EXPECT_EQ(counter(*run, "nodes.blacklisted"), 4);
  EXPECT_EQ(counter(*run, "jobs.failed"), 1);
  EXPECT_EQ(counter(*run, "tasks.kills"), 45);
  EXPECT_EQ(counter(*run, "tasks.retries"), 11);

  // Every policy decision is mirrored into the trace, and the span tree
  // is closed at the end of the run.
  EXPECT_FALSE(run->decisions.empty());
  EXPECT_EQ(trace_count(*run, Kind::kPolicyDecision), run->decisions.size());
  EXPECT_EQ(run->spans.open_count(), 0u);
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

TEST(RunRecording, MetricsMatchTheGoldenAtAnyShardCount) {
  const std::string golden =
      read_file(std::string(SMR_SOURCE_DIR) +
                "/tests/integration/golden/terasort_recording_metrics.jsonl");
  ASSERT_FALSE(golden.empty());
  for (const int shards : {1, 3}) {
    const auto run = record_run(shards);
    std::ostringstream out;
    run->registry.write_jsonl(out);
    EXPECT_TRUE(out.str() == golden) << "metrics differ at shards=" << shards;
  }
}

TEST(RunRecording, InstrumentsAppearOnFirstUseInTheCurrentRegistry) {
  // The recorder caches each instrument on its first use.  One never used
  // must not be registered, and a new registry must get its own instruments
  // rather than updates to the previous registry's.
  MetricsRegistry first;
  MetricsRegistry second;
  RunRecorder recorder;
  recorder.set_metrics(&first);
  recorder.heartbeat();
  recorder.heartbeat();
  EXPECT_EQ(first.names(), std::vector<std::string>{"heartbeats.processed"});

  recorder.set_metrics(&second);
  recorder.heartbeat();
  recorder.node_failed(1.0, 0);
  recorder.attempt_finished(2.0, 0, 0, 0, 0, true, 3.0);
  EXPECT_EQ(first.counter("heartbeats.processed").value(), 2);
  EXPECT_EQ(first.names(), std::vector<std::string>{"heartbeats.processed"});
  EXPECT_EQ(second.counter("heartbeats.processed").value(), 1);
  EXPECT_EQ(second.counter("nodes.failed").value(), 1);
  EXPECT_EQ(second.histogram("task.map_duration_s", kDurationBounds).total_count(), 1);
  EXPECT_EQ(second.names().size(), 3u);

  recorder.set_metrics(nullptr);
  recorder.heartbeat();  // no registry: nothing to count
  recorder.set_metrics(&first);
  recorder.heartbeat();
  EXPECT_EQ(first.counter("heartbeats.processed").value(), 3);
  EXPECT_EQ(second.counter("heartbeats.processed").value(), 1);
}

}  // namespace
}  // namespace smr::obs
