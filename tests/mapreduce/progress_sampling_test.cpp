// The sampled progress and slot series (the paper's Fig. 4 curves and the
// slot timeline), pinned bit for bit.  The CSV writers print six digits and
// no golden compares these series, so this is their only exact gate: each
// scenario folds the bit pattern of every ProgressSample and SlotSample
// field into one FNV-1a digest.  The scenarios reach the sampler's edge
// cases: a finished map re-executed, empty partitions, speculation.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <memory>
#include <set>

#include "smr/core/slot_policy.hpp"
#include "smr/mapreduce/runtime.hpp"
#include "smr/metrics/trace.hpp"
#include "smr/workload/puma.hpp"

namespace smr::mapreduce {
namespace {

class Fnv {
 public:
  void add(std::uint64_t word) {
    for (int byte = 0; byte < 8; ++byte) {
      hash_ ^= (word >> (8 * byte)) & 0xffu;
      hash_ *= 0x100000001b3ULL;
    }
  }
  void add(double value) { add(std::bit_cast<std::uint64_t>(value)); }
  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

std::uint64_t series_digest(const metrics::RunResult& result) {
  Fnv fnv;
  fnv.add(static_cast<std::uint64_t>(result.progress.size()));
  for (const auto& series : result.progress) {
    fnv.add(static_cast<std::uint64_t>(series.size()));
    for (const metrics::ProgressSample& s : series) {
      fnv.add(s.time);
      fnv.add(s.map_pct);
      fnv.add(s.reduce_pct);
    }
  }
  fnv.add(static_cast<std::uint64_t>(result.slots.size()));
  for (const metrics::SlotSample& s : result.slots) {
    fnv.add(s.time);
    fnv.add(s.map_target);
    fnv.add(s.reduce_target);
    fnv.add(s.running_maps);
    fnv.add(s.running_reduces);
  }
  return fnv.value();
}

JobSpec terasort(int gib, int reduces) {
  JobSpec spec = workload::make_puma_job(workload::Puma::kTerasort, gib * kGiB);
  spec.reduce_tasks = reduces;
  return spec;
}

// A map attempt killed after it had finished: its output died with a node
// and requeue_completed_map sent it back to the queue.
int completed_maps_lost(const metrics::TraceLog& trace) {
  std::set<TaskId> finished;
  int lost = 0;
  for (const auto& e : trace.events()) {
    if (!e.is_map) continue;
    if (e.kind == metrics::TraceEventKind::kTaskFinished) {
      finished.insert(e.task);
    } else if (e.kind == metrics::TraceEventKind::kTaskKilled &&
               finished.erase(e.task) > 0) {
      ++lost;
    }
  }
  return lost;
}

TEST(ProgressSampling, SeriesPinnedBitwise) {
  {
    SCOPED_TRACE("plain terasort under the slot manager");
    RuntimeConfig config;
    config.cluster = cluster::ClusterSpec::paper_testbed(4);
    config.seed = 7;
    Runtime runtime(config, std::make_unique<core::SmrSlotPolicy>());
    runtime.submit(terasort(2, 8), 0.0);
    const metrics::RunResult result = runtime.run();
    ASSERT_TRUE(result.completed);
    EXPECT_EQ(series_digest(result), 0x88922795103889c0ULL);
  }
  {
    // Node 2 dies late in the map phase with the shuffle outstanding:
    // finished maps there are re-executed, so a job's finished prefix
    // shrinks mid-run.
    SCOPED_TRACE("node failure re-executing completed maps");
    RuntimeConfig config;
    config.cluster = cluster::ClusterSpec::paper_testbed(4);
    config.failures.push_back({2, 60.0});
    config.seed = 31;
    Runtime runtime(config, std::make_unique<StaticSlotPolicy>());
    metrics::TraceLog trace;
    runtime.set_trace(&trace);
    runtime.submit(terasort(2, 6), 0.0);
    const metrics::RunResult result = runtime.run();
    ASSERT_TRUE(result.completed);
    EXPECT_GT(completed_maps_lost(trace), 0);
    EXPECT_EQ(series_digest(result), 0x111620827a1fea40ULL);
  }
  {
    // No map output: every partition is empty, and an empty reduce that
    // never ran still counts a third of its progress (its shuffle).
    SCOPED_TRACE("empty map output");
    RuntimeConfig config;
    config.cluster = cluster::ClusterSpec::paper_testbed(4);
    config.seed = 5;
    Runtime runtime(config, std::make_unique<StaticSlotPolicy>());
    JobSpec spec = terasort(2, 16);
    spec.map_selectivity = 0.0;
    runtime.submit(spec, 0.0);
    runtime.submit(terasort(1, 4), 10.0);
    const metrics::RunResult result = runtime.run();
    ASSERT_TRUE(result.completed);
    EXPECT_EQ(runtime.jobs()[0].reduces[0].partition_size, 0);
    EXPECT_EQ(series_digest(result), 0xc6d171e95a18f80dULL);
  }
  {
    SCOPED_TRACE("map and reduce speculation on heterogeneous nodes");
    RuntimeConfig config;
    config.cluster = cluster::ClusterSpec::heterogeneous(3, 3, 0.5);
    config.speculative_execution = true;
    config.speculative_reduce_execution = true;
    config.speculative_min_age = 20.0;
    config.seed = 101;
    Runtime runtime(config, std::make_unique<StaticSlotPolicy>());
    JobSpec spec = terasort(2, 12);
    spec.duration_cv = 0.6;
    runtime.submit(spec, 0.0);
    const metrics::RunResult result = runtime.run();
    ASSERT_TRUE(result.completed);
    EXPECT_GT(runtime.speculative_launches(), 0);
    EXPECT_GT(runtime.speculative_reduce_launches(), 0);
    EXPECT_EQ(series_digest(result), 0xf1e2e6962f1c5905ULL);
  }
}

}  // namespace
}  // namespace smr::mapreduce
