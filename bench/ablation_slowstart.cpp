// Design-choice ablation: the slow-start threshold (paper §IV-A1 fixes it
// at 10% "by default" without justification).
//
// Sweep the fraction of finished maps the slot manager waits for before
// acting, on one reduce-heavy and one map-heavy benchmark.  Expected
// shape: a U — too low (especially 0 = disabled) risks wrong early
// decisions on the reduce-heavy job, too high wastes adaptation time on
// both; the paper's 10% sits in the flat bottom.
#include "figures.hpp"

namespace smr::bench {

void slowstart() {
  struct Cell {
    workload::Puma bench;
    double fraction;  // of finished maps; 0 disables slow start
  };
  std::vector<Cell> cells;
  for (workload::Puma bench_id :
       {workload::Puma::kTerasort, workload::Puma::kHistogramRatings}) {
    for (double fraction : {0.0, 0.02, 0.05, 0.10, 0.20, 0.40}) {
      cells.push_back({bench_id, fraction});
    }
  }
  const auto done = run_cells(cells, [](const Cell& cell) {
    auto config = paper_config(driver::EngineKind::kSMapReduce, /*trials=*/3);
    config.slot_manager.slow_start = cell.fraction > 0.0;
    if (cell.fraction > 0.0) config.slot_manager.slow_start_fraction = cell.fraction;
    return run_job(config, workload::make_puma_job(cell.bench, 30 * kGiB));
  });
  FigureTable table("Slow-start ablation: SMapReduce map time (s) vs start threshold");
  for (const auto& [cell, job] : done) {
    char row[32];
    if (cell.fraction > 0.0) {
      std::snprintf(row, sizeof(row), "threshold=%2.0f%%", 100.0 * cell.fraction);
    } else {
      std::snprintf(row, sizeof(row), "disabled");
    }
    table.set(row, workload::puma_name(cell.bench), job.map_time());
  }
  table.print();
}

}  // namespace smr::bench
