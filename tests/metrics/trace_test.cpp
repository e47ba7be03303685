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

TEST(TraceLog, CsvHasHeaderAndOneRowPerEvent) {
  TraceLog log;
  log.record(event_at(1.5, TraceEventKind::kTaskLaunched, 7, 3));
  log.record(event_at(2.5, TraceEventKind::kPhaseStarted, 7, 3, "MAP"));
  std::ostringstream out;
  log.write_csv(out);
  const std::string csv = out.str();
  EXPECT_NE(csv.find("time,kind,job,task,node,is_map,detail,value"), std::string::npos);
  EXPECT_NE(csv.find("1.5,TASK_LAUNCHED,0,7,3,1,,0"), std::string::npos);
  EXPECT_NE(csv.find("2.5,PHASE_STARTED,0,7,3,1,MAP,0"), std::string::npos);
}

TEST(TraceLog, CsvQuotesDetailsWithSeparators) {
  // Details are free text (policy reasons carry commas and quotes); the
  // CSV writer must quote them per RFC 4180 or the columns shift.
  TraceLog log;
  log.record(event_at(6.0, TraceEventKind::kPolicyDecision, kInvalidTask,
                      kInvalidNode, "GROW_MAPS: f=1.02, above [0.85,0.95]"));
  log.record(event_at(12.0, TraceEventKind::kPolicyDecision, kInvalidTask,
                      kInvalidNode, "held \"climb\"\nnext line"));
  std::ostringstream out;
  log.write_csv(out);
  const std::string csv = out.str();
  EXPECT_NE(csv.find("\"GROW_MAPS: f=1.02, above [0.85,0.95]\""),
            std::string::npos);
  EXPECT_NE(csv.find("\"held \"\"climb\"\"\nnext line\""), std::string::npos);
  // The plain columns stay unquoted.
  EXPECT_NE(csv.find("6,POLICY_DECISION,"), std::string::npos);
}

TEST(TraceLog, CsvMatchesRecordedBytes) {
  // Expected text recorded from the ostream-formatting writer: default
  // %g doubles at precision 6, integers, quoted free text.
  auto event = [](SimTime t, TraceEventKind kind, JobId job, TaskId task,
                  NodeId node, bool is_map, std::string detail, double value) {
    TraceEvent e;
    e.time = t;
    e.kind = kind;
    e.job = job;
    e.task = task;
    e.node = node;
    e.is_map = is_map;
    e.detail = std::move(detail);
    e.value = value;
    return e;
  };
  TraceLog log;
  log.record(event(0.0, TraceEventKind::kJobSubmitted, 0, -1, -1, true, "", 0.0));
  log.record(event(1.0 / 3.0, TraceEventKind::kTaskLaunched, 0, 17, 3, true, "", 0.0));
  log.record(event(2.25, TraceEventKind::kPhaseStarted, 0, 17, 3, true, "SHUFFLE", 0.0));
  log.record(event(6.0, TraceEventKind::kPolicyDecision, -1, -1, -1, true,
                   "GROW_MAPS: f=1.02, above [0.85,0.95]", 1.0234567891));
  log.record(event(12.5, TraceEventKind::kSlotTargetChanged, -1, -1, -1, false,
                   "reduce", 48.0));
  log.record(event(123456.789, TraceEventKind::kSloAlert, 2, -1, -1, true,
                   "held \"climb\"\r\nnext", 1e-7));
  log.record(event(1e7, TraceEventKind::kTaskFinished, 2147483647, 0, 15, false,
                   "", -0.0));
  std::ostringstream out;
  log.write_csv(out);
  EXPECT_EQ(out.str(),
            "time,kind,job,task,node,is_map,detail,value\n"
            "0,JOB_SUBMITTED,0,-1,-1,1,,0\n"
            "0.333333,TASK_LAUNCHED,0,17,3,1,,0\n"
            "2.25,PHASE_STARTED,0,17,3,1,SHUFFLE,0\n"
            "6,POLICY_DECISION,-1,-1,-1,1,\"GROW_MAPS: f=1.02, above "
            "[0.85,0.95]\",1.02346\n"
            "12.5,SLOT_TARGET_CHANGED,-1,-1,-1,0,reduce,48\n"
            "123457,SLO_ALERT,2,-1,-1,1,\"held \"\"climb\"\"\r\n"
            "next\",1e-07\n"
            "1e+07,TASK_FINISHED,2147483647,0,15,0,,-0\n");
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
