#include "smr/sim/engine.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace smr::sim {
namespace {

TEST(Engine, StartsAtTimeZeroEmpty) {
  Engine engine;
  EXPECT_DOUBLE_EQ(engine.now(), 0.0);
  EXPECT_TRUE(engine.empty());
  EXPECT_FALSE(engine.step());
}

TEST(Engine, FiresEventsInTimeOrder) {
  Engine engine;
  std::vector<int> order;
  engine.schedule_at(3.0, [&] { order.push_back(3); });
  engine.schedule_at(1.0, [&] { order.push_back(1); });
  engine.schedule_at(2.0, [&] { order.push_back(2); });
  engine.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(engine.now(), 3.0);
}

TEST(Engine, TieBrokenByScheduleOrder) {
  Engine engine;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    engine.schedule_at(5.0, [&order, i] { order.push_back(i); });
  }
  engine.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(Engine, ScheduleInIsRelativeToNow) {
  Engine engine;
  SimTime fired_at = -1.0;
  engine.schedule_at(10.0, [&] {
    engine.schedule_in(2.5, [&] { fired_at = engine.now(); });
  });
  engine.run();
  EXPECT_DOUBLE_EQ(fired_at, 12.5);
}

TEST(Engine, RejectsSchedulingInThePast) {
  Engine engine;
  engine.schedule_at(10.0, [] {});
  engine.run();
  EXPECT_THROW(engine.schedule_at(5.0, [] {}), SmrError);
  EXPECT_THROW(engine.schedule_in(-1.0, [] {}), SmrError);
}

TEST(Engine, CancelPreventsExecution) {
  Engine engine;
  bool fired = false;
  const EventId id = engine.schedule_at(1.0, [&] { fired = true; });
  EXPECT_TRUE(engine.cancel(id));
  engine.run();
  EXPECT_FALSE(fired);
}

TEST(Engine, CancelUnknownIdIsFalse) {
  Engine engine;
  EXPECT_FALSE(engine.cancel(kInvalidEvent));
}

TEST(Engine, CancelledEventsExcludedFromPendingCount) {
  Engine engine;
  const EventId a = engine.schedule_at(1.0, [] {});
  engine.schedule_at(2.0, [] {});
  EXPECT_EQ(engine.pending(), 2u);
  engine.cancel(a);
  EXPECT_EQ(engine.pending(), 1u);
}

TEST(Engine, PeriodicFiresUntilCancelled) {
  Engine engine;
  int count = 0;
  EventId id = kInvalidEvent;
  id = engine.schedule_periodic(1.0, 1.0, [&] {
    if (++count == 5) engine.cancel(id);
  });
  engine.run(100.0);
  EXPECT_EQ(count, 5);
  EXPECT_DOUBLE_EQ(engine.now(), 100.0);  // run() advanced to the limit
}

TEST(Engine, PeriodicFirstFiringHonoured) {
  Engine engine;
  std::vector<SimTime> times;
  EventId id = engine.schedule_periodic(2.5, 1.0, [&] { times.push_back(engine.now()); });
  engine.run(5.0);
  engine.cancel(id);
  ASSERT_EQ(times.size(), 3u);
  EXPECT_DOUBLE_EQ(times[0], 2.5);
  EXPECT_DOUBLE_EQ(times[1], 3.5);
  EXPECT_DOUBLE_EQ(times[2], 4.5);
}

TEST(Engine, RunWithLimitStopsBeforeLaterEvents) {
  Engine engine;
  bool late_fired = false;
  engine.schedule_at(10.0, [&] { late_fired = true; });
  engine.run(5.0);
  EXPECT_FALSE(late_fired);
  EXPECT_DOUBLE_EQ(engine.now(), 5.0);
  engine.run();
  EXPECT_TRUE(late_fired);
}

TEST(Engine, StepExecutesExactlyOneEvent) {
  Engine engine;
  int count = 0;
  engine.schedule_at(1.0, [&] { ++count; });
  engine.schedule_at(2.0, [&] { ++count; });
  EXPECT_TRUE(engine.step());
  EXPECT_EQ(count, 1);
  EXPECT_TRUE(engine.step());
  EXPECT_EQ(count, 2);
  EXPECT_FALSE(engine.step());
}

TEST(Engine, EventsScheduledFromCallbacksRun) {
  Engine engine;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 100) engine.schedule_in(0.1, recurse);
  };
  engine.schedule_at(0.0, recurse);
  engine.run();
  EXPECT_EQ(depth, 100);
  EXPECT_NEAR(engine.now(), 9.9, 1e-9);
}

TEST(Engine, ZeroDelaySelfScheduleAtSameTimeRunsAfterSiblings) {
  Engine engine;
  std::vector<int> order;
  engine.schedule_at(1.0, [&] {
    order.push_back(1);
    engine.schedule_in(0.0, [&] { order.push_back(3); });
  });
  engine.schedule_at(1.0, [&] { order.push_back(2); });
  engine.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Engine, PeriodicCanCancelItselfFromCallbackImmediately) {
  Engine engine;
  int fires = 0;
  EventId id = kInvalidEvent;
  id = engine.schedule_periodic(1.0, 1.0, [&] {
    ++fires;
    engine.cancel(id);
  });
  engine.run(10.0);
  EXPECT_EQ(fires, 1);
}

TEST(Engine, DispatchedCounterCounts) {
  Engine engine;
  for (int i = 0; i < 7; ++i) engine.schedule_at(i, [] {});
  engine.run();
  EXPECT_EQ(engine.dispatched(), 7u);
}

TEST(Engine, RejectsNullAndBadPeriodics) {
  Engine engine;
  EXPECT_THROW(engine.schedule_at(1.0, nullptr), SmrError);
  EXPECT_THROW(engine.schedule_periodic(0.0, 0.0, [] {}), SmrError);
  EXPECT_THROW(engine.schedule_periodic(0.0, -1.0, [] {}), SmrError);
}

TEST(Engine, CancelAlreadyFiredIdIsFalseAndPendingStaysExact) {
  // Regression: the old tombstone scheme accepted cancels of already-fired
  // ids and let pending() underflow past zero.
  Engine engine;
  const EventId id = engine.schedule_at(1.0, [] {});
  engine.run();
  EXPECT_EQ(engine.pending(), 0u);
  EXPECT_FALSE(engine.cancel(id));
  EXPECT_EQ(engine.pending(), 0u);
  engine.schedule_at(2.0, [] {});
  EXPECT_EQ(engine.pending(), 1u);
  EXPECT_FALSE(engine.cancel(id));  // still a no-op after new scheduling
  EXPECT_EQ(engine.pending(), 1u);
}

TEST(Engine, DoubleCancelIsFalse) {
  Engine engine;
  const EventId id = engine.schedule_at(1.0, [] {});
  EXPECT_TRUE(engine.cancel(id));
  EXPECT_FALSE(engine.cancel(id));
  EXPECT_EQ(engine.pending(), 0u);
}

TEST(Engine, CancelOtherEventInsideHandler) {
  Engine engine;
  bool second_fired = false;
  EventId second = kInvalidEvent;
  engine.schedule_at(1.0, [&] { EXPECT_TRUE(engine.cancel(second)); });
  second = engine.schedule_at(2.0, [&] { second_fired = true; });
  engine.run();
  EXPECT_FALSE(second_fired);
  EXPECT_EQ(engine.pending(), 0u);
}

TEST(Engine, CancelSameTimeSiblingInsideHandler) {
  // The sibling's stub is already in the heap at the same timestamp; the
  // cancel must retire it before it surfaces.
  Engine engine;
  bool sibling_fired = false;
  EventId sibling = kInvalidEvent;
  engine.schedule_at(1.0, [&] { EXPECT_TRUE(engine.cancel(sibling)); });
  sibling = engine.schedule_at(1.0, [&] { sibling_fired = true; });
  engine.run();
  EXPECT_FALSE(sibling_fired);
}

TEST(Engine, RescheduleMovesOneShot) {
  Engine engine;
  SimTime fired_at = -1.0;
  const EventId id = engine.schedule_at(5.0, [&] { fired_at = engine.now(); });
  EXPECT_TRUE(engine.reschedule(id, 2.0));
  EXPECT_EQ(engine.pending(), 1u);
  engine.run();
  EXPECT_DOUBLE_EQ(fired_at, 2.0);
}

TEST(Engine, RescheduleUnknownOrFiredIdIsFalse) {
  Engine engine;
  EXPECT_FALSE(engine.reschedule(kInvalidEvent, 1.0));
  const EventId id = engine.schedule_at(1.0, [] {});
  engine.run();
  EXPECT_FALSE(engine.reschedule(id, 2.0));
}

TEST(Engine, RescheduleRejectsThePast) {
  Engine engine;
  engine.schedule_at(10.0, [] {});
  engine.run();
  const EventId id = engine.schedule_at(20.0, [] {});
  EXPECT_THROW(engine.reschedule(id, 5.0), SmrError);
}

TEST(Engine, ReschedulePeriodicShiftsTheWholeSeries) {
  Engine engine;
  std::vector<SimTime> times;
  const EventId id =
      engine.schedule_periodic(1.0, 1.0, [&] { times.push_back(engine.now()); });
  // Move the first firing from 1.0 to 2.5; the series then follows from
  // there: 2.5, 3.5, 4.5.
  EXPECT_TRUE(engine.reschedule(id, 2.5));
  engine.run(5.0);
  engine.cancel(id);
  ASSERT_EQ(times.size(), 3u);
  EXPECT_DOUBLE_EQ(times[0], 2.5);
  EXPECT_DOUBLE_EQ(times[1], 3.5);
  EXPECT_DOUBLE_EQ(times[2], 4.5);
}

TEST(Engine, ParkAtTimeNeverSuspendsAndRescheduleRevives) {
  Engine engine;
  std::vector<SimTime> times;
  const EventId id =
      engine.schedule_periodic(1.0, 1.0, [&] { times.push_back(engine.now()); });
  engine.run(2.0);
  EXPECT_EQ(times.size(), 2u);  // fired at 1.0, 2.0
  EXPECT_TRUE(engine.reschedule(id, kTimeNever));
  EXPECT_EQ(engine.pending(), 1u);  // parked events still count as pending
  engine.schedule_at(10.0, [] {});
  engine.run(20.0);
  EXPECT_EQ(times.size(), 2u);  // parked: never fired
  EXPECT_DOUBLE_EQ(engine.now(), 20.0);
  EXPECT_TRUE(engine.reschedule(id, 25.0));
  engine.run(26.0);
  ASSERT_EQ(times.size(), 2u + 2u);  // revived: 25.0 and 26.0
  EXPECT_DOUBLE_EQ(times[2], 25.0);
  EXPECT_DOUBLE_EQ(times[3], 26.0);
  engine.cancel(id);
}

TEST(Engine, RunWithOnlyParkedEventsTerminates) {
  Engine engine;
  const EventId id = engine.schedule_periodic(1.0, 1.0, [] {});
  engine.schedule_at(3.0, [] {});
  EXPECT_TRUE(engine.reschedule(id, kTimeNever));
  // run() must not spin on the parked stub: it drains the real event and
  // returns even though pending() stays nonzero.
  EXPECT_DOUBLE_EQ(engine.run(), 3.0);
  EXPECT_EQ(engine.pending(), 1u);
  engine.cancel(id);
}

TEST(Engine, RescheduleInsideHandlerMovesLaterEvent) {
  Engine engine;
  SimTime fired_at = -1.0;
  EventId target = kInvalidEvent;
  engine.schedule_at(1.0, [&] { EXPECT_TRUE(engine.reschedule(target, 7.0)); });
  target = engine.schedule_at(3.0, [&] { fired_at = engine.now(); });
  engine.run();
  EXPECT_DOUBLE_EQ(fired_at, 7.0);
}

TEST(Engine, PendingAndPeakPendingAccuracy) {
  Engine engine;
  std::vector<EventId> ids;
  for (int i = 0; i < 10; ++i) {
    ids.push_back(engine.schedule_at(1.0 + i, [] {}));
  }
  EXPECT_EQ(engine.pending(), 10u);
  EXPECT_GE(engine.peak_pending(), 10u);
  for (int i = 0; i < 5; ++i) EXPECT_TRUE(engine.cancel(ids[static_cast<std::size_t>(i)]));
  EXPECT_EQ(engine.pending(), 5u);
  engine.run();
  EXPECT_EQ(engine.pending(), 0u);
  EXPECT_EQ(engine.dispatched(), 5u);
}

TEST(Engine, SameTimeOrderingSurvivesCompaction) {
  // Schedule interleaved keep/cancel events at one timestamp, with enough
  // churn to trigger heap compaction, and check the survivors still fire
  // in their original scheduling order.
  Engine engine;
  std::vector<int> order;
  std::vector<EventId> cancelled;
  for (int i = 0; i < 200; ++i) {
    if (i % 2 == 0) {
      engine.schedule_at(5.0, [&order, i] { order.push_back(i); });
    } else {
      cancelled.push_back(engine.schedule_at(5.0, [] {}));
    }
  }
  for (EventId id : cancelled) EXPECT_TRUE(engine.cancel(id));
  // 100 cancelled vs 100 live stubs in a 200-entry heap: one more retire
  // crosses the stale_ > live threshold and compacts.
  const EventId extra = engine.schedule_at(6.0, [] {});
  EXPECT_TRUE(engine.cancel(extra));
  EXPECT_EQ(engine.stale(), 0u);  // compaction ran and dropped every stub
  engine.run();
  ASSERT_EQ(order.size(), 100u);
  for (std::size_t i = 0; i < order.size(); ++i) {
    EXPECT_EQ(order[i], static_cast<int>(2 * i));
  }
}

TEST(Engine, FullyStaleSmallQueuesCompactEagerly) {
  // Regression: the old policy only compacted at >= 64 stubs, so a workload
  // that parks/cancels its few periodic events leaked retired stubs forever
  // and peak_pending overcounted.  Now a queue whose stubs are ALL retired
  // compacts immediately regardless of size.
  Engine engine;
  const EventId a = engine.schedule_at(1.0, [] {});
  const EventId b = engine.schedule_at(2.0, [] {});
  engine.cancel(a);
  engine.cancel(b);
  EXPECT_EQ(engine.stale(), 0u);  // compacted: every stub was retired
  EXPECT_EQ(engine.pending(), 0u);
  EXPECT_FALSE(engine.step());
}

TEST(Engine, SmallMixedQueuesStillRetireLazily) {
  // With live stubs around, small queues keep the lazy scheme: one retired
  // stub next to one live stub is not worth a sweep.
  Engine engine;
  const EventId a = engine.schedule_at(1.0, [] {});
  (void)engine.schedule_at(2.0, [] {});
  engine.cancel(a);
  EXPECT_EQ(engine.stale(), 1u);
  EXPECT_EQ(engine.pending(), 1u);
  engine.run();
  EXPECT_EQ(engine.stale(), 0u);  // the stale stub surfaced and was skipped
}

TEST(Engine, CompactionSweepsPeriodicLanes) {
  // A periodic series' re-arm waits in its period's lane, not the
  // calendar.  Compaction must drop the retired ones there too; otherwise
  // they surface after the sweep and the retired count goes wrong.
  Engine engine;
  std::vector<EventId> ids;
  std::vector<int> fired(100, 0);
  for (int i = 0; i < 100; ++i) {
    ids.push_back(engine.schedule_periodic(0.01 * (i + 1), 1.0,
                                           [&fired, i] { ++fired[static_cast<std::size_t>(i)]; }));
  }
  engine.run(1.5);  // every series has fired and re-armed into the lane
  // The 51st retired stub crosses stale > live and compacts; 29 follow.
  for (int i = 0; i < 80; ++i) EXPECT_TRUE(engine.cancel(ids[static_cast<std::size_t>(i)]));
  EXPECT_EQ(engine.stale(), 29u);
  EXPECT_EQ(engine.pending(), 20u);
  engine.run(10.0);
  EXPECT_EQ(engine.stale(), 0u);  // the 29 surfaced and were skipped
  for (int i = 80; i < 100; ++i) EXPECT_EQ(fired[static_cast<std::size_t>(i)], 10) << i;
}

TEST(Engine, ParkCancelChurnDoesNotLeakStubs) {
  // The ISSUE 7 leak scenario end-to-end: a handful of periodic events
  // repeatedly parked (kTimeNever) and revived must not accumulate retired
  // stubs, and peak_pending must stay bounded by the real queue depth.
  Engine engine;
  std::vector<EventId> ids;
  for (int i = 0; i < 4; ++i) {
    ids.push_back(engine.schedule_periodic(1.0 + i, 10.0, [] {}));
  }
  for (int round = 0; round < 1000; ++round) {
    for (const EventId id : ids) EXPECT_TRUE(engine.reschedule(id, kTimeNever));
    for (const EventId id : ids) {
      EXPECT_TRUE(engine.reschedule(id, engine.now() + 5.0));
    }
  }
  EXPECT_EQ(engine.pending(), 4u);
  // Parked events hold no stub and fully-stale queues compact, so churn
  // cannot pile up: at most one live + a few unswept stubs per event.
  EXPECT_LE(engine.stale(), 8u);
  EXPECT_LE(engine.peak_pending(), 16u);
  for (const EventId id : ids) EXPECT_TRUE(engine.cancel(id));
  EXPECT_EQ(engine.pending(), 0u);
  EXPECT_FALSE(engine.step());
}

TEST(Engine, RescheduleStormStaysExact) {
  // A heartbeat-like workload: one periodic series rescheduled many times
  // between firings must fire exactly once per final schedule.
  Engine engine;
  std::vector<SimTime> times;
  const EventId id =
      engine.schedule_periodic(1.0, 10.0, [&] { times.push_back(engine.now()); });
  for (int i = 0; i < 500; ++i) {
    EXPECT_TRUE(engine.reschedule(id, 1.0 + 0.001 * (i + 1)));
  }
  EXPECT_EQ(engine.pending(), 1u);
  engine.run(12.0);
  engine.cancel(id);
  ASSERT_EQ(times.size(), 2u);
  EXPECT_DOUBLE_EQ(times[0], 1.5);   // last reschedule wins
  EXPECT_DOUBLE_EQ(times[1], 11.5);  // series continues at +period
}

TEST(Engine, PeriodicCanRescheduleItselfFromCallback) {
  Engine engine;
  std::vector<SimTime> times;
  EventId id = kInvalidEvent;
  id = engine.schedule_periodic(1.0, 1.0, [&] {
    times.push_back(engine.now());
    if (times.size() == 1) {
      // Push the next firing (already queued at now+period) out to 4.0.
      EXPECT_TRUE(engine.reschedule(id, 4.0));
    }
  });
  engine.run(5.0);
  engine.cancel(id);
  ASSERT_EQ(times.size(), 3u);
  EXPECT_DOUBLE_EQ(times[0], 1.0);
  EXPECT_DOUBLE_EQ(times[1], 4.0);
  EXPECT_DOUBLE_EQ(times[2], 5.0);
}

}  // namespace
}  // namespace smr::sim
