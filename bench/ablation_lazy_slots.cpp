// Design-choice ablation: the lazy slot changer (paper §III-D) vs an eager
// kill-and-reschedule changer.
//
// "If the task launcher shuts down one slot immediately, the running task
// ... must be terminated and rescheduled ... If the slot changing action is
// frequent, the rescheduling cost can be substantial."
//
// Expected shape: identical behaviour on map-heavy jobs (the manager mostly
// climbs, so no shrink happens), and a visible penalty plus a nonzero kill
// count on reduce-heavy jobs where the balance controller pulls map slots
// back down mid-flight.
#include "figures.hpp"

namespace smr::bench {

void lazy_slots() {
  struct Cell {
    workload::Puma bench;
    bool eager;
  };
  struct Result {
    double total_time = 0.0;
    double killed = 0.0;
  };
  std::vector<Cell> cells;
  for (workload::Puma bench_id :
       {workload::Puma::kHistogramRatings, workload::Puma::kInvertedIndex,
        workload::Puma::kAdjacencyList, workload::Puma::kTerasort}) {
    for (bool eager : {false, true}) cells.push_back({bench_id, eager});
  }
  const auto done = run_cells(cells, [](const Cell& cell) {
    auto config = paper_config(driver::EngineKind::kSMapReduce, /*trials=*/1);
    config.runtime.eager_slot_shrink = cell.eager;
    mapreduce::Runtime runtime(config.runtime, driver::make_policy(config));
    runtime.submit(workload::make_puma_job(cell.bench, 30 * kGiB), 0.0);
    const double total_time = runtime.run().jobs[0].total_time();
    return Result{total_time, static_cast<double>(runtime.killed_map_tasks())};
  });
  FigureTable table("Ablation: lazy vs eager slot shrinking, SMapReduce total time (s)");
  FigureTable kills_table("Ablation: map tasks killed by eager shrinking");
  for (const auto& [cell, result] : done) {
    const char* column = cell.eager ? "eager" : "lazy";
    table.set(workload::puma_name(cell.bench), column, result.total_time);
    kills_table.set(workload::puma_name(cell.bench), column, result.killed);
  }
  table.print();
  kills_table.print("%12.0f");
}

}  // namespace smr::bench
