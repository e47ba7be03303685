#include "smr/metrics/trace.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>

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

static_assert(sizeof(TraceEvent) <= 48, "a trace event packs into 48 bytes");

TEST(TraceLog, DetailsOutliveTheCallersStringAcrossGrowthMoveAndClear) {
  // Each detail is a temporary std::string, destroyed right after record():
  // the log must keep its own copy.  Enough events to fill many chunks.
  constexpr int kEvents = 20 * static_cast<int>(ChunkedVector<TraceEvent>::kChunkElements);
  const auto detail_of = [](int i) {
    // Repeats (interned once) mixed with texts past the short-string buffer.
    return i % 3 == 0 ? std::string("MAP")
                      : "detail long enough to live on the heap #" + std::to_string(i % 97);
  };
  TraceLog log;
  for (int i = 0; i < kEvents; ++i) {
    TraceEvent e = event_at(static_cast<SimTime>(i), TraceEventKind::kPhaseStarted, i);
    std::string detail = detail_of(i);
    e.detail = detail;
    log.record(e);
  }
  const auto expect_details = [&](const TraceLog& moved) {
    ASSERT_EQ(moved.size(), static_cast<std::size_t>(kEvents));
    int i = 0;
    for (const TraceEvent& e : moved.events()) {
      EXPECT_EQ(e.task, i);
      EXPECT_EQ(e.detail, detail_of(i)) << "event " << i;
      ++i;
    }
  };
  expect_details(log);

  TraceLog moved(std::move(log));
  expect_details(moved);
  TraceLog assigned;
  assigned.record(event_at(0.0, TraceEventKind::kTaskLaunched, 0, 0, "replaced"));
  assigned = std::move(moved);
  expect_details(assigned);

  assigned.clear();
  EXPECT_TRUE(assigned.empty());
  std::string detail = "after clear";
  TraceEvent e = event_at(1.0, TraceEventKind::kTaskKilled);
  e.detail = detail;
  assigned.record(e);
  detail.assign(detail.size(), 'x');  // the caller reuses its buffer
  EXPECT_EQ(assigned.events()[0].detail, "after clear");
}

TEST(TraceLog, EqualDetailsShareOneCopy) {
  TraceLog log;
  for (const char* detail : {"SHUFFLE", "speculative", "SHUFFLE", "", "speculative"}) {
    log.record(event_at(1.0, TraceEventKind::kTaskLaunched, 1, 0, detail));
  }
  const auto& events = log.events();
  EXPECT_EQ(events[0].detail.data(), events[2].detail.data());
  EXPECT_EQ(events[1].detail.data(), events[4].detail.data());
  EXPECT_NE(events[0].detail.data(), events[1].detail.data());
  EXPECT_TRUE(events[3].detail.empty());
}

TEST(TraceLog, MemoryIsTheEventsPlusOneCopyOfEachDetail) {
  constexpr std::size_t kEvents = 100000;
  TraceLog log;
  const char* details[] = {"MAP", "SHUFFLE", "HOLD_BALANCED: karma: capacity=64 tenants=4"};
  for (std::size_t i = 0; i < kEvents; ++i) {
    log.record(event_at(static_cast<SimTime>(i), TraceEventKind::kPhaseStarted, 1, 0,
                        details[i % 3]));
  }
  EXPECT_GE(log.memory_bytes(), kEvents * sizeof(TraceEvent));
  EXPECT_LE(log.memory_bytes(), kEvents * sizeof(TraceEvent) * 11 / 10 + 4096);
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
