// Substrate ablation: delay scheduling (paper reference [13]) and data
// locality.
//
// A small job's splits live on only a handful of nodes, so a greedy
// scheduler assigns most of its maps remotely, paying network reads that
// compete with the shuffle.  Delay scheduling declines a bounded number of
// non-local offers instead.
//
// Expected shape: node-local launch fraction climbs with the wait bound
// (steeply on replication 1, from a higher baseline on replication 3) while
// job time stays flat or improves — the "wait a little, win a lot" result
// of the delay-scheduling paper.
#include "figures.hpp"

#include "smr/mapreduce/runtime.hpp"

namespace smr::bench {

void locality() {
  struct Cell {
    int replication;
    int wait;
  };
  struct Result {
    double local_pct = 0.0;
    double total_time = 0.0;
  };
  std::vector<Cell> cells;
  for (int replication : {1, 3}) {
    for (int wait : {0, 1, 2, 4, 8, 16}) cells.push_back({replication, wait});
  }
  const auto done = run_cells(cells, [](const Cell& cell) {
    mapreduce::RuntimeConfig config;
    config.cluster = cluster::ClusterSpec::paper_testbed(16);
    config.cluster.dfs_replication = cell.replication;
    config.locality_wait_offers = cell.wait;
    config.seed = 5;
    mapreduce::Runtime runtime(config, std::make_unique<mapreduce::StaticSlotPolicy>());
    auto spec = workload::make_puma_job(workload::Puma::kGrep, 1 * kGiB);
    spec.reduce_tasks = 4;
    runtime.submit(spec, 0.0);
    const double total_time = runtime.run().jobs[0].total_time();
    const double local_pct = 100.0 * runtime.local_map_launches() /
                             (runtime.local_map_launches() + runtime.remote_map_launches());
    return Result{local_pct, total_time};
  });
  FigureTable locality_table("Locality ablation: node-local map launches (%), small grep job");
  FigureTable time_table("Locality ablation: total job time (s)");
  for (const auto& [cell, result] : done) {
    char row[32];
    std::snprintf(row, sizeof(row), "wait=%d offers", cell.wait);
    char column[32];
    std::snprintf(column, sizeof(column), "repl=%d", cell.replication);
    locality_table.set(row, column, result.local_pct);
    time_table.set(row, column, result.total_time);
  }
  locality_table.print();
  time_table.print();
}

}  // namespace smr::bench
