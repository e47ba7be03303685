#include "smr/obs/critical_path.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "smr/common/json.hpp"
#include "smr/core/slot_policy.hpp"
#include "smr/mapreduce/runtime.hpp"
#include "smr/obs/span_log.hpp"
#include "smr/workload/puma.hpp"

namespace smr::obs {
namespace {

/// Builds run -> job scaffolding and returns the job span id.
SpanId make_job(SpanLog& log, SimTime submit, SimTime finish) {
  const SpanId run = log.open(SpanKind::kRun, "run", submit);
  const SpanId job = log.open(SpanKind::kJob, "job", submit, run);
  log.at(job).job = 0;
  log.close(job, finish);
  log.close(run, finish);
  return job;
}

SpanId add_attempt(SpanLog& log, SpanId parent, SimTime start, SimTime end,
                   bool is_map, SpanOutcome outcome = SpanOutcome::kOk) {
  const SpanId id = log.open(SpanKind::kAttempt, "attempt", start, parent);
  log.at(id).is_map = is_map;
  log.at(id).task = 0;
  log.at(id).node = 0;
  log.close(id, end, outcome);
  return id;
}

TEST(CriticalPath, MapOnlyJobSegmentsSumToMakespan) {
  SpanLog log;
  const SpanId job = make_job(log, 0.0, 100.0);
  // One map attempt 10..90: 10 s launch gap, 80 s compute, 10 s residue
  // between the last completion and the finish event.
  add_attempt(log, job, 10.0, 90.0, /*is_map=*/true);

  const auto report = analyze_critical_path(log, /*heartbeat_period=*/3.0);
  ASSERT_EQ(report.jobs.size(), 1u);
  EXPECT_EQ(report.skipped_jobs, 0);
  const auto& jcp = report.jobs[0];
  EXPECT_DOUBLE_EQ(jcp.makespan, 100.0);
  EXPECT_DOUBLE_EQ(jcp.segments.compute, 80.0);
  // The 10 s gap splits into one heartbeat of scheduler overhead plus a
  // genuine slot wait; the tail residue folds into scheduler overhead.
  EXPECT_DOUBLE_EQ(jcp.segments.wait_for_slot, 7.0);
  EXPECT_DOUBLE_EQ(jcp.segments.scheduler_overhead, 13.0);
  EXPECT_DOUBLE_EQ(jcp.segments.retry, 0.0);
  EXPECT_DOUBLE_EQ(jcp.segments.total(), jcp.makespan);
  EXPECT_EQ(jcp.attempts_on_path, 1);
  EXPECT_EQ(jcp.retries_on_path, 0);
}

TEST(CriticalPath, ReduceAttemptSplitsAtShuffleEnd) {
  SpanLog log;
  const SpanId job = make_job(log, 0.0, 100.0);
  log.at(job).reduce_eligible = 40.0;
  // Map chain: back-to-back map finishing exactly at the crossing.
  add_attempt(log, job, 0.0, 40.0, /*is_map=*/true);
  // Reduce chain: launches 10 s after eligibility, shuffles until 70,
  // computes until the finish.
  const SpanId reduce = add_attempt(log, job, 50.0, 100.0, /*is_map=*/false);
  log.at(reduce).shuffle_end = 70.0;

  const auto report = analyze_critical_path(log, /*heartbeat_period=*/2.0);
  ASSERT_EQ(report.jobs.size(), 1u);
  const auto& seg = report.jobs[0].segments;
  EXPECT_DOUBLE_EQ(seg.data_transfer, 20.0);
  EXPECT_DOUBLE_EQ(seg.compute, 70.0);  // 40 map + 30 reduce
  EXPECT_DOUBLE_EQ(seg.wait_for_slot, 8.0);
  EXPECT_DOUBLE_EQ(seg.scheduler_overhead, 2.0);
  EXPECT_DOUBLE_EQ(seg.retry, 0.0);
  EXPECT_DOUBLE_EQ(seg.total(), 100.0);
  EXPECT_EQ(report.jobs[0].attempts_on_path, 2);
}

TEST(CriticalPath, FailedPredecessorsCountAsRetry) {
  SpanLog log;
  const SpanId job = make_job(log, 0.0, 100.0);
  const SpanId failed =
      add_attempt(log, job, 0.0, 30.0, /*is_map=*/true, SpanOutcome::kFailed);
  const SpanId retry = add_attempt(log, job, 35.0, 90.0, /*is_map=*/true);
  log.at(retry).retry_of = failed;

  const auto report = analyze_critical_path(log, /*heartbeat_period=*/3.0);
  ASSERT_EQ(report.jobs.size(), 1u);
  const auto& jcp = report.jobs[0];
  EXPECT_DOUBLE_EQ(jcp.segments.retry, 30.0);
  EXPECT_DOUBLE_EQ(jcp.segments.compute, 55.0);
  // Relaunch gap 30..35: one heartbeat of scheduler time, 2 s slot wait;
  // tail residue 90..100 folds into scheduler overhead.
  EXPECT_DOUBLE_EQ(jcp.segments.wait_for_slot, 2.0);
  EXPECT_DOUBLE_EQ(jcp.segments.scheduler_overhead, 13.0);
  EXPECT_DOUBLE_EQ(jcp.segments.total(), jcp.makespan);
  EXPECT_EQ(jcp.attempts_on_path, 2);
  EXPECT_EQ(jcp.retries_on_path, 1);
}

TEST(CriticalPath, SkipsFailedAndOpenJobs) {
  SpanLog log;
  const SpanId run = log.open(SpanKind::kRun, "run", 0.0);
  const SpanId ok = log.open(SpanKind::kJob, "ok", 0.0, run);
  log.at(ok).job = 0;
  add_attempt(log, ok, 0.0, 10.0, /*is_map=*/true);
  log.close(ok, 10.0);
  const SpanId failed = log.open(SpanKind::kJob, "failed", 0.0, run);
  log.at(failed).job = 1;
  log.close(failed, 5.0, SpanOutcome::kFailed);
  const SpanId open = log.open(SpanKind::kJob, "open", 0.0, run);
  log.at(open).job = 2;

  const auto report = analyze_critical_path(log, 3.0);
  ASSERT_EQ(report.jobs.size(), 1u);
  EXPECT_EQ(report.jobs[0].name, "ok");
  EXPECT_EQ(report.skipped_jobs, 2);
  // The aggregate only contains the analyzable job.
  EXPECT_DOUBLE_EQ(report.aggregate.total(), 10.0);
}

TEST(CriticalPath, WriteJsonEmitsSegmentsAndAggregate) {
  SpanLog log;
  const SpanId job = make_job(log, 0.0, 50.0);
  add_attempt(log, job, 0.0, 50.0, /*is_map=*/true);
  const auto report = analyze_critical_path(log, 3.0);
  std::ostringstream out;
  report.write_json(out);
  const std::string json = out.str();
  EXPECT_NE(json.find("\"type\":\"critpath\""), std::string::npos);
  EXPECT_NE(json.find("\"wait_for_slot\""), std::string::npos);
  EXPECT_NE(json.find("\"aggregate\""), std::string::npos);
  EXPECT_NE(json.find("\"skipped_jobs\":0"), std::string::npos);
}

TEST(CriticalPath, WriteJsonEscapesJobNames) {
  // Job names are free text; a quote or backslash must not break the JSON.
  const std::string name = "sort \"big\" C:\\data\n";
  SpanLog log;
  const SpanId run = log.open(SpanKind::kRun, "run", 0.0);
  const SpanId job = log.open(SpanKind::kJob, name, 0.0, run);
  log.at(job).job = 0;
  add_attempt(log, job, 0.0, 20.0, /*is_map=*/true);
  log.close(job, 20.0);
  log.close(run, 20.0);
  std::ostringstream out;
  analyze_critical_path(log, 3.0).write_json(out);
  std::string error;
  const auto parsed = parse_json(out.str(), &error);
  ASSERT_TRUE(parsed.has_value()) << error << "\n" << out.str();
  const JsonArray& jobs = parsed->find("jobs")->as_array();
  ASSERT_EQ(jobs.size(), 1u);
  EXPECT_EQ(jobs[0].string_or("name", ""), name);
}

TEST(CriticalPath, GroupsAttemptsOfInterleavedJobs) {
  // Two jobs whose attempts interleave in the log: each job's path sees
  // only its own attempts.
  SpanLog log;
  const SpanId run = log.open(SpanKind::kRun, "run", 0.0);
  const SpanId a = log.open(SpanKind::kJob, "a", 0.0, run);
  log.at(a).job = 0;
  const SpanId b = log.open(SpanKind::kJob, "b", 5.0, run);
  log.at(b).job = 1;
  add_attempt(log, a, 2.0, 30.0, /*is_map=*/true);
  add_attempt(log, b, 5.0, 15.0, /*is_map=*/true);
  add_attempt(log, a, 3.0, 40.0, /*is_map=*/true);
  log.close(b, 15.0);
  log.close(a, 40.0);
  log.close(run, 40.0);
  const auto report = analyze_critical_path(log, 1.0);
  ASSERT_EQ(report.jobs.size(), 2u);
  EXPECT_EQ(report.jobs[0].name, "a");
  EXPECT_DOUBLE_EQ(report.jobs[0].segments.compute, 37.0);
  EXPECT_EQ(report.jobs[1].name, "b");
  EXPECT_DOUBLE_EQ(report.jobs[1].segments.compute, 10.0);
  EXPECT_DOUBLE_EQ(report.jobs[1].segments.total(), 10.0);
}

TEST(CriticalPath, RealRunAttributesFullMakespan) {
  mapreduce::RuntimeConfig config;
  config.cluster = cluster::ClusterSpec::paper_testbed(4);
  SpanLog spans;
  mapreduce::Runtime runtime(config, std::make_unique<core::SmrSlotPolicy>());
  runtime.set_spans(&spans);
  auto spec = workload::make_puma_job(workload::Puma::kTerasort, kGiB);
  spec.reduce_tasks = 8;
  runtime.submit(spec);
  const auto result = runtime.run();
  ASSERT_TRUE(result.completed);

  const auto report = analyze_critical_path(spans, config.heartbeat_period);
  ASSERT_EQ(report.jobs.size(), 1u);
  EXPECT_EQ(report.skipped_jobs, 0);
  const auto& jcp = report.jobs[0];
  EXPECT_NEAR(jcp.makespan, result.makespan, 1e-9);
  EXPECT_NEAR(jcp.segments.total(), jcp.makespan, 1e-6);
  // A terasort run moves real data and computes: both segments nonzero.
  EXPECT_GT(jcp.segments.compute, 0.0);
  EXPECT_GT(jcp.segments.data_transfer, 0.0);
  EXPECT_GE(jcp.segments.wait_for_slot, 0.0);
  EXPECT_GE(jcp.segments.scheduler_overhead, 0.0);
  EXPECT_GE(jcp.attempts_on_path, 2);  // at least one map + one reduce
  // Aggregate matches the single job.
  EXPECT_NEAR(report.aggregate.total(), jcp.segments.total(), 1e-9);
}

}  // namespace
}  // namespace smr::obs
