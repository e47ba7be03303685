// Design-choice ablation: sensitivity to the balance-factor bounds
// (paper §IV-A3 leaves the upper/lower bounds unspecified; DESIGN.md fixes
// them at 0.85/0.95).
//
// Expected shape: a too-low lower bound never flags reduce-heavy (terasort
// over-climbs); a band pushed up to ~1.0 flaps between increments and
// decrements; the default band is at or near the best cell for both a
// map-heavy and a reduce-heavy benchmark.
#include "figures.hpp"

namespace smr::bench {

void balance_bounds() {
  struct Bounds {
    double lower;
    double upper;
    const char* label;
  };
  struct Cell {
    workload::Puma bench;
    Bounds bounds;
  };
  constexpr Bounds kBounds[] = {
      {0.50, 0.60, "[.50,.60]"},
      {0.70, 0.80, "[.70,.80]"},
      {0.85, 0.95, "[.85,.95]"},  // the default
      {0.93, 0.99, "[.93,.99]"},
  };
  std::vector<Cell> cells;
  for (workload::Puma bench_id :
       {workload::Puma::kHistogramRatings, workload::Puma::kTerasort}) {
    for (const Bounds& bounds : kBounds) cells.push_back({bench_id, bounds});
  }
  const auto done = run_cells(cells, [](const Cell& cell) {
    auto config = paper_config(driver::EngineKind::kSMapReduce);
    config.slot_manager.balance_lower = cell.bounds.lower;
    config.slot_manager.balance_upper = cell.bounds.upper;
    return run_job(config, workload::make_puma_job(cell.bench, 30 * kGiB));
  });
  FigureTable table("Ablation: SMapReduce total time (s) vs balance bounds [lower,upper]");
  for (const auto& [cell, job] : done) {
    table.set(std::string(workload::puma_name(cell.bench)) + " " + cell.bounds.label,
              "total_s", job.total_time());
  }
  table.print();
}

}  // namespace smr::bench
