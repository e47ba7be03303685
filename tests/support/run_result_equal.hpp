// Bitwise equality over everything a run reports, for the identity tests:
// thread counts, shard counts, span recording, and policies that must
// reproduce another policy's run.  EXPECT_EQ on doubles is exact (no
// tolerance), which is the point: identical arithmetic order must produce
// identical bits.
#pragma once

#include <gtest/gtest.h>

#include <cstddef>
#include <string>

#include "smr/metrics/job_metrics.hpp"

namespace smr {

inline void expect_bitwise_equal(const metrics::RunResult& a,
                                 const metrics::RunResult& b) {
  ASSERT_EQ(a.jobs.size(), b.jobs.size());
  for (std::size_t j = 0; j < a.jobs.size(); ++j) {
    SCOPED_TRACE("job " + std::to_string(j));
    EXPECT_EQ(a.jobs[j].id, b.jobs[j].id);
    EXPECT_EQ(a.jobs[j].name, b.jobs[j].name);
    EXPECT_EQ(a.jobs[j].input_size, b.jobs[j].input_size);
    EXPECT_EQ(a.jobs[j].shuffle_volume, b.jobs[j].shuffle_volume);
    EXPECT_EQ(a.jobs[j].submit_time, b.jobs[j].submit_time);
    EXPECT_EQ(a.jobs[j].start_time, b.jobs[j].start_time);
    EXPECT_EQ(a.jobs[j].maps_done_time, b.jobs[j].maps_done_time);
    EXPECT_EQ(a.jobs[j].finish_time, b.jobs[j].finish_time);
    EXPECT_EQ(a.jobs[j].deadline, b.jobs[j].deadline);
    EXPECT_EQ(a.jobs[j].failed, b.jobs[j].failed);
  }
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.failure_reason, b.failure_reason);
  EXPECT_EQ(a.engine_events, b.engine_events);
  EXPECT_EQ(a.solver_calls, b.solver_calls);
  EXPECT_EQ(a.solver_full_solves, b.solver_full_solves);
  ASSERT_EQ(a.progress.size(), b.progress.size());
  for (std::size_t j = 0; j < a.progress.size(); ++j) {
    ASSERT_EQ(a.progress[j].size(), b.progress[j].size());
    for (std::size_t s = 0; s < a.progress[j].size(); ++s) {
      EXPECT_EQ(a.progress[j][s].time, b.progress[j][s].time);
      EXPECT_EQ(a.progress[j][s].map_pct, b.progress[j][s].map_pct);
      EXPECT_EQ(a.progress[j][s].reduce_pct, b.progress[j][s].reduce_pct);
    }
  }
  ASSERT_EQ(a.slots.size(), b.slots.size());
  for (std::size_t s = 0; s < a.slots.size(); ++s) {
    EXPECT_EQ(a.slots[s].time, b.slots[s].time);
    EXPECT_EQ(a.slots[s].map_target, b.slots[s].map_target);
    EXPECT_EQ(a.slots[s].reduce_target, b.slots[s].reduce_target);
    EXPECT_EQ(a.slots[s].running_maps, b.slots[s].running_maps);
    EXPECT_EQ(a.slots[s].running_reduces, b.slots[s].running_reduces);
  }
}

}  // namespace smr
