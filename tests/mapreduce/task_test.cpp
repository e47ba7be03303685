#include "smr/mapreduce/task.hpp"

#include <gtest/gtest.h>

namespace smr::mapreduce {
namespace {

TEST(MapTask, ProgressHalvesAcrossPhases) {
  MapTask task;
  task.input_size = 100;
  task.output_size = 50;
  task.phase = MapPhase::kMapping;
  task.phase_done = 0.0;
  EXPECT_DOUBLE_EQ(task.progress(), 0.0);
  task.phase_done = 50.0;
  EXPECT_DOUBLE_EQ(task.progress(), 0.25);
  task.phase_done = 100.0;
  EXPECT_DOUBLE_EQ(task.progress(), 0.5);
  task.phase = MapPhase::kSpilling;
  task.phase_done = 25.0;
  EXPECT_DOUBLE_EQ(task.progress(), 0.75);
  task.phase = MapPhase::kDone;
  EXPECT_DOUBLE_EQ(task.progress(), 1.0);
}

TEST(MapTask, PhaseTotalsTrackPhase) {
  MapTask task;
  task.input_size = 100;
  task.output_size = 40;
  task.phase = MapPhase::kMapping;
  EXPECT_DOUBLE_EQ(task.phase_total(), 100.0);
  task.phase = MapPhase::kSpilling;
  EXPECT_DOUBLE_EQ(task.phase_total(), 40.0);
  task.phase_done = 10.0;
  EXPECT_DOUBLE_EQ(task.phase_remaining(), 30.0);
}

TEST(MapTask, RunningRequiresNodeAndUnfinishedPhase) {
  MapTask task;
  EXPECT_FALSE(task.running());  // unassigned
  task.node = 3;
  EXPECT_TRUE(task.running());
  task.phase = MapPhase::kDone;
  EXPECT_FALSE(task.running());
}

TEST(ReduceTask, ProgressInThirds) {
  ReduceTask task;
  task.partition_size = 300;
  task.phase = ReducePhase::kShuffling;
  task.fetched = 150.0;
  EXPECT_NEAR(task.progress(), 1.0 / 6.0, 1e-12);
  task.phase = ReducePhase::kSorting;
  task.phase_done = 150.0;
  EXPECT_NEAR(task.progress(), 0.5, 1e-12);
  task.phase = ReducePhase::kReducing;
  task.phase_done = 300.0;
  EXPECT_NEAR(task.progress(), 1.0, 1e-12);
  task.phase = ReducePhase::kDone;
  EXPECT_DOUBLE_EQ(task.progress(), 1.0);
}

TEST(ReduceTask, ZeroPartitionCountsPhaseAsComplete) {
  ReduceTask task;
  task.partition_size = 0;
  task.phase = ReducePhase::kShuffling;
  EXPECT_NEAR(task.progress(), 1.0 / 3.0, 1e-12);
}

TEST(ReduceTask, BacklogIsAvailableMinusFetched) {
  ReduceTask task;
  task.available = 100.0;
  task.fetched = 40.0;
  EXPECT_DOUBLE_EQ(task.backlog(), 60.0);
}

}  // namespace
}  // namespace smr::mapreduce
