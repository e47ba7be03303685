// Figure 6: HistogramRatings job throughput with different input sizes
// (the paper sweeps up to 250 GB).
//
// Expected shape: HadoopV1 and YARN stay flat as the input grows;
// SMapReduce's throughput climbs with input size because a longer job gives
// the slot manager more time at the optimal configuration (paper: ~2.0x
// HadoopV1 and ~1.3x YARN at 250 GB).
#include "figures.hpp"

namespace smr::bench {

void fig6() {
  struct Cell {
    driver::EngineKind engine;
    int gib;
  };
  std::vector<Cell> cells;
  for (driver::EngineKind engine : driver::all_engines()) {
    for (int gib : {50, 100, 150, 200, 250}) cells.push_back({engine, gib});
  }
  const auto done = run_cells(cells, [](const Cell& cell) {
    return run_job(paper_config(cell.engine),
                   workload::make_puma_job(workload::Puma::kHistogramRatings,
                                           cell.gib * kGiB));
  });
  FigureTable table("Fig 6: HistogramRatings job throughput (MiB/s) vs input size");
  for (const auto& [cell, job] : done) {
    char row[32];
    std::snprintf(row, sizeof(row), "input=%3d GiB", cell.gib);
    table.set(row, driver::engine_name(cell.engine),
              job.throughput() / static_cast<double>(kMiB));
  }
  table.print();
}

}  // namespace smr::bench
