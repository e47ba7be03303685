// Figure 3: execution time of each benchmark on HadoopV1, YARN and
// SMapReduce (stacked map time + reduce time, 30 GB inputs, 3 map + 2
// reduce initial slots, 30 reduce tasks).
//
// Expected shape: SMapReduce shortest on (almost) every benchmark, with the
// largest wins on map-heavy jobs (HistogramRatings ≈ +140% throughput vs
// HadoopV1, +72% vs YARN); YARN between the two; Terasort the lone
// exception where SMapReduce is slightly slower than both.
#include "figures.hpp"

namespace smr::bench {

void fig3() {
  struct Cell {
    workload::Puma bench;
    driver::EngineKind engine;
  };
  std::vector<Cell> cells;
  for (workload::Puma bench_id : workload::fig3_benchmarks()) {
    for (driver::EngineKind engine : driver::all_engines()) cells.push_back({bench_id, engine});
  }
  const auto done = run_cells(cells, [](const Cell& cell) {
    return run_job(paper_config(cell.engine), workload::make_puma_job(cell.bench, 30 * kGiB));
  });
  FigureTable map_table("Fig 3a: map time (s)");
  FigureTable reduce_table("Fig 3b: reduce time (s)");
  FigureTable total_table("Fig 3c: total execution time (s)");
  for (const auto& [cell, job] : done) {
    const std::string row = workload::puma_name(cell.bench);
    const std::string column = driver::engine_name(cell.engine);
    map_table.set(row, column, job.map_time());
    reduce_table.set(row, column, job.reduce_time());
    total_table.set(row, column, job.total_time());
  }
  map_table.print();
  reduce_table.print();
  total_table.print();
}

}  // namespace smr::bench
