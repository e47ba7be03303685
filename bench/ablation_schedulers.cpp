// Design-choice ablation: FIFO vs Fair job scheduling under each engine.
//
// The paper evaluates multi-job workloads under FIFO (HadoopV1/SMapReduce)
// and the capacity scheduler (YARN) only.  The Fair scheduler — reference
// [13] of the paper — trades batch efficiency for per-job turnaround; this
// bench runs a mixed-size batch (a big reduce-heavy job followed by
// progressively smaller jobs: the FIFO-unfriendly arrival pattern).
//
// Measured shape: Fair rescues the small jobs (grep and histogram
// turn around 15-35% faster) by making the big jobs pay (terasort +40%),
// so the *mean* and the makespan favour FIFO while tail-latency fairness
// favours Fair — the classic fairness/efficiency trade-off.  Note that
// plain FIFO is already gentler than a naive queue: once a job's maps are
// all assigned, its map slots flow to the next job even while its reduce
// phase runs (the barrier structure releases resources early).
#include "figures.hpp"

namespace smr::bench {

void schedulers() {
  struct Cell {
    driver::EngineKind engine;
    driver::SchedulerKind scheduler;
  };
  std::vector<Cell> cells;
  for (driver::EngineKind engine :
       {driver::EngineKind::kHadoopV1, driver::EngineKind::kSMapReduce}) {
    for (driver::SchedulerKind scheduler :
         {driver::SchedulerKind::kFifo, driver::SchedulerKind::kFair}) {
      cells.push_back({engine, scheduler});
    }
  }
  const auto done = run_cells(cells, [](const Cell& cell) {
    auto config = paper_config(cell.engine);
    config.scheduler = cell.scheduler;
    return driver::run_experiment(
        config,
        {{workload::make_puma_job(workload::Puma::kTerasort, 30 * kGiB), 0.0},
         {workload::make_puma_job(workload::Puma::kInvertedIndex, 15 * kGiB), 10.0},
         {workload::make_puma_job(workload::Puma::kGrep, 8 * kGiB), 20.0},
         {workload::make_puma_job(workload::Puma::kHistogramRatings, 4 * kGiB), 30.0}});
  });
  FigureTable table("Scheduler ablation: per-job turnaround (s), mixed 4-job batch");
  for (const auto& [cell, result] : done) {
    const std::string column = std::string(driver::engine_name(cell.engine)) + "/" +
                               driver::scheduler_name(cell.scheduler);
    for (const auto& job : result.jobs) {
      char row[64];
      std::snprintf(row, sizeof(row), "%d: %s", job.id, job.name.c_str());
      table.set(row, column, job.execution_time());
    }
    table.set("mean execution", column, result.mean_execution_time());
    table.set("last finish", column, result.last_finish_time());
  }
  table.print();
}

}  // namespace smr::bench
