#include "smr/metrics/trace.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <sstream>

#include "smr/mapreduce/runtime.hpp"

namespace smr::metrics {
namespace {

TraceEvent event_at(SimTime t, TraceEventKind kind, TaskId task = 1,
                    NodeId node = 0, const char* detail = "") {
  TraceEvent e;
  e.time = t;
  e.kind = kind;
  e.job = 0;
  e.task = task;
  e.node = node;
  e.detail = detail;
  return e;
}

TEST(TraceLog, RecordsAndFiltersByKind) {
  TraceLog log;
  EXPECT_TRUE(log.empty());
  log.record(event_at(1.0, TraceEventKind::kTaskLaunched));
  log.record(event_at(2.0, TraceEventKind::kTaskFinished));
  log.record(event_at(3.0, TraceEventKind::kTaskLaunched, 2));
  EXPECT_EQ(log.size(), 3u);
  const auto launches = log.of_kind(TraceEventKind::kTaskLaunched);
  ASSERT_EQ(launches.size(), 2u);
  EXPECT_EQ(launches[1].task, 2);
  log.clear();
  EXPECT_TRUE(log.empty());
}

TEST(TraceLog, EveryKindHasAName) {
  for (auto kind : {TraceEventKind::kJobSubmitted, TraceEventKind::kTaskLaunched,
                    TraceEventKind::kPhaseStarted, TraceEventKind::kTaskFinished,
                    TraceEventKind::kTaskKilled, TraceEventKind::kBarrierCrossed,
                    TraceEventKind::kJobFinished, TraceEventKind::kNodeFailed,
                    TraceEventKind::kSlotTargetChanged,
                    TraceEventKind::kPolicyDecision}) {
    EXPECT_STRNE(to_string(kind), "UNKNOWN");
  }
}

TEST(TraceLog, ChromeTracePairsPhasesIntoSlices) {
  TraceLog log;
  log.record(event_at(1.0, TraceEventKind::kPhaseStarted, 7, 3, "MAP"));
  log.record(event_at(5.0, TraceEventKind::kPhaseStarted, 7, 3, "SPILL"));
  log.record(event_at(6.0, TraceEventKind::kTaskFinished, 7, 3));
  std::ostringstream out;
  log.write_chrome_trace(out);
  const std::string json = out.str();
  // MAP slice: ts=1e6, dur=4e6; SPILL slice: ts=5e6, dur=1e6.
  EXPECT_NE(json.find("\"name\":\"MAP\""), std::string::npos);
  EXPECT_NE(json.find("\"ts\":1e+06,\"dur\":4e+06"), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"SPILL\""), std::string::npos);
  EXPECT_EQ(json.front(), '[');
  EXPECT_NE(json.find("]"), std::string::npos);
}

TEST(TraceLog, ChromeTraceEmitsInstantForBarrier) {
  TraceLog log;
  log.record(event_at(10.0, TraceEventKind::kBarrierCrossed, kInvalidTask,
                      kInvalidNode));
  std::ostringstream out;
  log.write_chrome_trace(out);
  EXPECT_NE(out.str().find("\"name\":\"barrier\""), std::string::npos);
}

// End-to-end: attach a trace to a real run and verify its structure.
class RuntimeTrace : public ::testing::Test {
 protected:
  void SetUp() override {
    mapreduce::RuntimeConfig config;
    config.cluster = cluster::ClusterSpec::paper_testbed(2);
    config.seed = 17;
    runtime_ = std::make_unique<mapreduce::Runtime>(
        config, std::make_unique<mapreduce::StaticSlotPolicy>());
    runtime_->set_trace(&trace_);
    mapreduce::JobSpec spec;
    spec.input_size = 1 * kGiB;
    spec.reduce_tasks = 4;
    spec.map_cpu_per_mib = 0.2;
    spec.map_selectivity = 0.5;
    runtime_->submit(spec, 0.0);
    result_ = runtime_->run();
  }

  TraceLog trace_;
  std::unique_ptr<mapreduce::Runtime> runtime_;
  metrics::RunResult result_;
};

TEST_F(RuntimeTrace, LifecycleEventCountsConsistent) {
  ASSERT_TRUE(result_.completed);
  EXPECT_EQ(trace_.of_kind(TraceEventKind::kJobSubmitted).size(), 1u);
  EXPECT_EQ(trace_.of_kind(TraceEventKind::kJobFinished).size(), 1u);
  EXPECT_EQ(trace_.of_kind(TraceEventKind::kBarrierCrossed).size(), 1u);
  // 8 maps + 4 reduces, one launch and one finish each.
  EXPECT_EQ(trace_.of_kind(TraceEventKind::kTaskLaunched).size(), 12u);
  EXPECT_EQ(trace_.of_kind(TraceEventKind::kTaskFinished).size(), 12u);
  EXPECT_TRUE(trace_.of_kind(TraceEventKind::kTaskKilled).empty());
}

TEST_F(RuntimeTrace, EventsAreTimeOrdered) {
  SimTime prev = 0.0;
  for (const auto& event : trace_.events()) {
    EXPECT_GE(event.time, prev);
    prev = event.time;
  }
}

TEST_F(RuntimeTrace, EveryReducePassesThroughAllPhases) {
  int shuffles = 0, sorts = 0, reduces = 0;
  for (const auto& event : trace_.of_kind(TraceEventKind::kPhaseStarted)) {
    if (event.detail == "SHUFFLE") ++shuffles;
    if (event.detail == "SORT") ++sorts;
    if (event.detail == "REDUCE") ++reduces;
  }
  EXPECT_EQ(shuffles, 4);
  EXPECT_EQ(sorts, 4);
  EXPECT_EQ(reduces, 4);
}

TEST_F(RuntimeTrace, BarrierPrecedesEverySort) {
  const auto barrier = trace_.of_kind(TraceEventKind::kBarrierCrossed)[0].time;
  for (const auto& event : trace_.of_kind(TraceEventKind::kPhaseStarted)) {
    if (event.detail == "SORT") EXPECT_GE(event.time, barrier);
  }
}

TEST_F(RuntimeTrace, ChromeTraceParsesStructurally) {
  std::ostringstream out;
  trace_.write_chrome_trace(out);
  const std::string json = out.str();
  // Every opened slice is closed: count of '{' equals count of '}'.
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
  EXPECT_EQ(json.front(), '[');
}

}  // namespace
}  // namespace smr::metrics
