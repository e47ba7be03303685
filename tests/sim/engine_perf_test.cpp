// Events/sec floor for the calendar-queue engine (ctest -L perf).
//
// This is a guard rail, not a benchmark: the floor sits far below the
// engine's real throughput (tens of millions of raw dispatches/sec on any
// machine this runs on) so it only trips on an algorithmic regression —
// e.g. the ring degenerating to a linear scan or compaction thrashing.
// perfbench/run.py measures the honest end-to-end numbers.
#include <chrono>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "smr/sim/engine.hpp"

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define SMR_UNDER_SANITIZER 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define SMR_UNDER_SANITIZER 1
#endif
#endif

namespace smr::sim {
namespace {

TEST(EnginePerf, DispatchThroughputFloor) {
#ifdef SMR_UNDER_SANITIZER
  constexpr std::size_t kEvents = 200'000;
  constexpr double kFloorEventsPerSec = 100'000.0;
#else
  constexpr std::size_t kEvents = 2'000'000;
  constexpr double kFloorEventsPerSec = 2'000'000.0;
#endif

  Engine engine;
  // Heartbeat-shaped load: a band of periodic series plus a steady stream
  // of one-shots rescheduled from callbacks, roughly what a serving sweep
  // pushes through the queue.
  std::uint64_t fired = 0;
  std::vector<EventId> periodics;
  for (int i = 0; i < 64; ++i) {
    periodics.push_back(engine.schedule_periodic(
        0.1 * (i + 1), 3.0, [&fired] { ++fired; }));
  }
  struct Chain {
    Engine* eng;
    std::uint64_t* fired;
    std::uint64_t remaining;
    void operator()() {
      ++*fired;
      if (remaining > 0) {
        (void)eng->schedule_at(eng->now() + 0.75, Chain{eng, fired, remaining - 1});
      }
    }
  };
  for (int i = 0; i < 32; ++i) {
    (void)engine.schedule_at(0.25 * (i + 1),
                             Chain{&engine, &fired, kEvents / 32});
  }

  const auto start = std::chrono::steady_clock::now();
  while (fired < kEvents) {
    ASSERT_TRUE(engine.step());
  }
  const auto elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  for (EventId id : periodics) engine.cancel(id);

  const double rate = static_cast<double>(fired) / elapsed;
  RecordProperty("events_per_sec", static_cast<int>(rate));
  EXPECT_GE(rate, kFloorEventsPerSec)
      << "engine dispatched " << fired << " events in " << elapsed << "s";
}

}  // namespace
}  // namespace smr::sim
