// Figure 5: map time of the HistogramRatings benchmark under different
// initial map-slot configurations (YARN: equivalent container capacity).
//
// Expected shape: HadoopV1 traces a deep U (terrible at 1-2 slots, optimal
// near its sweet spot); YARN tracks V1 but shallower (shared container
// pool); SMapReduce stays near-flat and close to the static optimum from
// any starting configuration, and matches V1/YARN where their static
// choice happens to be optimal (paper: 10-18% over YARN, 30-160% over V1
// across 2-6 slots).
#include "figures.hpp"

namespace smr::bench {

void fig5() {
  struct Cell {
    driver::EngineKind engine;
    int slots;
  };
  std::vector<Cell> cells;
  for (driver::EngineKind engine : driver::all_engines()) {
    for (int slots = 1; slots <= 8; ++slots) cells.push_back({engine, slots});
  }
  const auto done = run_cells(cells, [](const Cell& cell) {
    auto config = paper_config(cell.engine);
    config.runtime.initial_map_slots = cell.slots;
    return run_job(config,
                   workload::make_puma_job(workload::Puma::kHistogramRatings, 30 * kGiB));
  });
  FigureTable table("Fig 5: HistogramRatings map time (s) vs initial map slots per node");
  for (const auto& [cell, job] : done) {
    table.set("map_slots=" + std::to_string(cell.slots), driver::engine_name(cell.engine),
              job.map_time());
  }
  table.print();
}

}  // namespace smr::bench
