// Differential determinism suite for the calendar-queue engine.
//
// The production engine (two-tier calendar/ladder queue, slot table,
// small-buffer callbacks) must be observationally identical to the
// pre-existing binary-heap engine for every schedule/cancel/reschedule/
// park sequence: same dispatch order, same pending(), same dispatched(),
// same clock.  We replay randomized scripted workloads against both and
// compare, across several calendar geometries chosen to force the edge
// paths (tiny rings that wrap constantly, wide buckets that pile ties into
// one slot, ladder jumps over long idle gaps).  A heartbeat-shaped family
// drives the periodic lanes: thousands of long-lived series of one period
// that tie with each other, with one-shots and with the other periods.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <random>
#include <unordered_map>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "reference_engine.hpp"
#include "smr/sim/engine.hpp"

namespace smr::sim {
namespace {

struct Op {
  enum Kind {
    kScheduleAt,
    kSchedulePeriodic,
    kCancel,
    kReschedule,
    kPark,
    kStep,
    // One-shot at the first instant of the grid b*k + kGridOffset no
    // earlier than now + a: ties with the series firing on that grid.
    kScheduleOnGrid,
  };
  Kind kind;
  int tag = 0;        // event identity shared across both engines
  double a = 0.0;     // delay / first-delay
  double b = 0.0;     // period
  int count = 0;      // steps to take / firings before self-cancel
  bool spawn = false; // periodic: each firing schedules a one-shot child at
                      // now + period, tied with the series' own next firing
};

constexpr double kGridOffset = 0.75;

// A scripted workload: ops reference events by tag, so the same script can
// drive any engine.  Delays come from a coarse 0.25s grid to force plenty
// of exact time ties (the order of which is the whole point).
std::vector<Op> make_script(std::uint32_t seed, int length) {
  std::mt19937 rng(seed);
  std::vector<Op> script;
  std::vector<int> tags;
  int next_tag = 0;
  const auto grid = [&rng](int max_quarters) {
    return 0.25 * static_cast<double>(rng() % static_cast<unsigned>(max_quarters));
  };
  for (int i = 0; i < length; ++i) {
    const unsigned r = rng() % 100;
    if (r < 40 || tags.empty()) {
      script.push_back(Op{Op::kScheduleAt, next_tag, grid(64), 0.0, 0});
      tags.push_back(next_tag++);
    } else if (r < 55) {
      // Periodic with a firing budget; the callback cancels itself after
      // `count` firings so bounded runs terminate.
      script.push_back(
          Op{Op::kSchedulePeriodic, next_tag, grid(32), 0.25 + grid(16),
             static_cast<int>(rng() % 5) + 1});
      tags.push_back(next_tag++);
    } else if (r < 70) {
      script.push_back(
          Op{Op::kCancel, tags[rng() % tags.size()], 0.0, 0.0, 0});
    } else if (r < 82) {
      script.push_back(
          Op{Op::kReschedule, tags[rng() % tags.size()], grid(96), 0.0, 0});
    } else if (r < 90) {
      script.push_back(Op{Op::kPark, tags[rng() % tags.size()], 0.0, 0.0, 0});
    } else {
      script.push_back(Op{Op::kStep, 0, 0.0, 0.0,
                          static_cast<int>(rng() % 4) + 1});
    }
  }
  return script;
}

// Heartbeat-shaped workload: the Runtime's four periods (0.25 s tick, 2 s
// sample, 3 s heartbeat, 6 s policy) with 2000 heartbeat series staggered
// at 3(i+1)/2000, so series 499 fires at 0.75 + 3k with the tick.  Between
// bursts of steps, one-shots land on that tied grid and random heartbeats
// are moved earlier or later, parked, revived or cancelled; every 97th
// series cancels itself from its own callback after a few firings.
std::vector<Op> make_heartbeat_script(std::uint32_t seed) {
  constexpr int kTrackers = 2000;
  constexpr int kForever = 1 << 30;
  constexpr int kFirstTracker = 3;
  std::mt19937 rng(seed);
  std::vector<Op> script;
  script.push_back(Op{Op::kSchedulePeriodic, 0, 0.25, 0.25, kForever});
  script.push_back(Op{Op::kSchedulePeriodic, 1, 2.0, 2.0, kForever});
  script.push_back(Op{Op::kSchedulePeriodic, 2, 6.0, 6.0, kForever});
  for (int i = 0; i < kTrackers; ++i) {
    const double offset = 3.0 * static_cast<double>(i + 1) / kTrackers;
    const int budget = i % 97 == 0 ? 1 + static_cast<int>(rng() % 40) : kForever;
    script.push_back(Op{Op::kSchedulePeriodic, kFirstTracker + i, offset, 3.0,
                        budget, /*spawn=*/i % 50 == 7});
  }
  int next_tag = kFirstTracker + kTrackers;
  const auto tracker = [&rng] {
    return kFirstTracker + static_cast<int>(rng() % kTrackers);
  };
  const auto fraction = [&rng] {
    return static_cast<double>(rng() % 1000) / 1000.0;
  };
  for (int round = 0; round < 60; ++round) {
    script.push_back(Op{Op::kStep, 0, 0.0, 0.0, 500 + static_cast<int>(rng() % 4000)});
    for (int k = 0; k < 8; ++k) {
      switch (rng() % 6) {
        case 0:
          script.push_back(Op{Op::kScheduleOnGrid, next_tag++,
                              0.5 + 6.0 * fraction(), 3.0, 0});
          break;
        case 1:  // earlier than the pending firing, usually
          script.push_back(Op{Op::kReschedule, tracker(), 3.0 * fraction(), 0.0, 0});
          break;
        case 2:  // later than the pending firing
          script.push_back(
              Op{Op::kReschedule, tracker(), 3.0 + 3.0 * fraction(), 0.0, 0});
          break;
        case 3:
          script.push_back(Op{Op::kPark, tracker(), 0.0, 0.0, 0});
          break;
        case 4:  // revives the series if it is parked
          script.push_back(Op{Op::kReschedule, tracker(), 0.25 * fraction(), 0.0, 0});
          break;
        default:
          script.push_back(Op{Op::kCancel, tracker(), 0.0, 0.0, 0});
          break;
      }
    }
  }
  return script;
}

struct Fired {
  double when;
  int tag;
  bool operator==(const Fired& other) const {
    return when == other.when && tag == other.tag;
  }
};

// Replays the script and returns the observable trace.  Works for both the
// production Engine and the reference engine because they share the same
// schedule_*/cancel/reschedule/step surface.
template <typename EngineT>
struct Replay {
  EngineT& eng;
  std::vector<Fired> fired;
  std::unordered_map<int, std::uint64_t> ids;
  std::unordered_map<int, int> budget;

  void apply(const std::vector<Op>& script, double horizon) {
    for (const Op& op : script) {
      switch (op.kind) {
        case Op::kScheduleAt: {
          const int tag = op.tag;
          ids[tag] = eng.schedule_at(eng.now() + op.a, [this, tag] {
            fired.push_back(Fired{eng.now(), tag});
            // Every seventh one-shot spawns a child in the near future,
            // exercising schedule-from-callback on both engines.
            if (tag % 7 == 0) {
              const int child = tag + 1'000'000;
              (void)eng.schedule_at(eng.now() + 0.5, [this, child] {
                fired.push_back(Fired{eng.now(), child});
              });
            }
          });
          break;
        }
        case Op::kScheduleOnGrid: {
          const int tag = op.tag;
          const double k =
              std::max(0.0, std::ceil((eng.now() + op.a - kGridOffset) / op.b));
          ids[tag] = eng.schedule_at(kGridOffset + op.b * k, [this, tag] {
            fired.push_back(Fired{eng.now(), tag});
          });
          break;
        }
        case Op::kSchedulePeriodic: {
          const int tag = op.tag;
          const double period = op.b;
          const bool spawn = op.spawn;
          budget[tag] = op.count;
          ids[tag] = eng.schedule_periodic(
              eng.now() + op.a, period, [this, tag, period, spawn] {
                fired.push_back(Fired{eng.now(), tag});
                if (spawn) {
                  const int child = tag + 2'000'000;
                  (void)eng.schedule_at(eng.now() + period, [this, child] {
                    fired.push_back(Fired{eng.now(), child});
                  });
                }
                if (--budget[tag] <= 0) eng.cancel(ids[tag]);
              });
          break;
        }
        case Op::kCancel:
          eng.cancel(ids[op.tag]);
          break;
        case Op::kReschedule:
          eng.reschedule(ids[op.tag], eng.now() + op.a);
          break;
        case Op::kPark:
          eng.reschedule(ids[op.tag], kTimeNever);
          break;
        case Op::kStep:
          for (int i = 0; i < op.count; ++i) {
            if (!eng.step(horizon)) break;
          }
          break;
      }
    }
    eng.run(horizon);
  }
};

void expect_identical(const std::vector<Op>& script, double horizon,
                      std::uint32_t seed, const Engine::CalendarConfig& cfg) {
  ref::ReferenceEngine oracle;
  Replay<ref::ReferenceEngine> expected{oracle, {}, {}, {}};
  expected.apply(script, horizon);

  Engine engine(cfg);
  Replay<Engine> actual{engine, {}, {}, {}};
  actual.apply(script, horizon);

  ASSERT_EQ(actual.fired.size(), expected.fired.size())
      << "seed " << seed << " width " << cfg.bucket_width << " buckets "
      << cfg.bucket_count;
  for (std::size_t i = 0; i < expected.fired.size(); ++i) {
    ASSERT_EQ(actual.fired[i].tag, expected.fired[i].tag)
        << "divergence at dispatch " << i << " (seed " << seed << ")";
    ASSERT_EQ(actual.fired[i].when, expected.fired[i].when)
        << "divergence at dispatch " << i << " (seed " << seed << ")";
  }
  EXPECT_EQ(engine.pending(), oracle.pending()) << "seed " << seed;
  EXPECT_EQ(engine.dispatched(), oracle.dispatched()) << "seed " << seed;
  EXPECT_EQ(engine.now(), oracle.now()) << "seed " << seed;
}

void expect_identical(std::uint32_t seed, const Engine::CalendarConfig& cfg) {
  expect_identical(make_script(seed, 400), 500.0, seed, cfg);
}

// The heartbeat family runs well past its last burst of steps, so the
// final run() also drains long stretches of pure lane traffic.
void expect_heartbeats_identical(std::uint32_t seed, const Engine::CalendarConfig& cfg) {
  expect_identical(make_heartbeat_script(seed), 400.0, seed, cfg);
}

TEST(EngineDifferential, DefaultCalendarMatchesReference) {
  for (std::uint32_t seed = 0; seed < 25; ++seed) {
    expect_identical(seed, Engine::CalendarConfig{});
  }
}

TEST(EngineDifferential, TinyRingForcesWrapsAndLadderTraffic) {
  // 4 buckets x 0.5s: nearly every schedule lands in the ladder and every
  // few dispatches wrap the ring.
  for (std::uint32_t seed = 0; seed < 25; ++seed) {
    expect_identical(seed, Engine::CalendarConfig{0.5, 4});
  }
}

TEST(EngineDifferential, WideBucketsPileTiesIntoOneSlot) {
  // 8s buckets collapse the 0.25s grid 32-to-1, so in-bucket (when, seq)
  // heap order does all the work.
  for (std::uint32_t seed = 0; seed < 25; ++seed) {
    expect_identical(seed, Engine::CalendarConfig{8.0, 8});
  }
}

TEST(EngineDifferential, SubGridBucketsScatterEveryTieAcrossSlots) {
  for (std::uint32_t seed = 0; seed < 25; ++seed) {
    expect_identical(seed, Engine::CalendarConfig{0.125, 16});
  }
}

TEST(EngineDifferential, HeartbeatSeriesMatchReferenceAtDefaultCalendar) {
  for (std::uint32_t seed = 0; seed < 3; ++seed) {
    expect_heartbeats_identical(seed, Engine::CalendarConfig{});
  }
}

TEST(EngineDifferential, HeartbeatSeriesMatchReferenceOnTinyRing) {
  for (std::uint32_t seed = 0; seed < 3; ++seed) {
    expect_heartbeats_identical(seed, Engine::CalendarConfig{0.5, 4});
  }
}

TEST(EngineDifferential, LongIdleGapsExerciseLadderJumps) {
  // Sparse far-future events with nothing in between: the window must
  // jump straight to the ladder's min bucket, in order, every time.
  Engine engine(Engine::CalendarConfig{0.25, 8});
  ref::ReferenceEngine oracle;
  std::vector<int> got;
  std::vector<int> want;
  std::mt19937 rng(7);
  double base = 0.0;
  for (int i = 0; i < 200; ++i) {
    base += static_cast<double>(rng() % 10000);  // gaps up to ~2.8 sim-hours
    const double when = base;
    const int tag = i;
    (void)engine.schedule_at(when, [&got, tag] { got.push_back(tag); });
    (void)oracle.schedule_at(when, [&want, tag] { want.push_back(tag); });
  }
  engine.run();
  oracle.run();
  EXPECT_EQ(got, want);
  EXPECT_EQ(engine.dispatched(), oracle.dispatched());
  EXPECT_EQ(engine.now(), oracle.now());
}

}  // namespace
}  // namespace smr::sim
