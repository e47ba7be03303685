// Figure 1: the thrashing phenomenon.
//
// "In the Terasort, TermVector, and Grep benchmarks, the curves of the
// throughput of the map slots versus the number of map slots in each node
// begins to fall when the number of map slots reaches the thrashing point."
//
// Each (benchmark, slots) point runs HadoopV1 with a static configuration
// of `slots` map slots per node and reports the aggregate map throughput
// (input bytes / map time).  Expected shape: throughput rises roughly
// proportionally, then stalls/falls past a per-workload thrashing point,
// ordered Grep > TermVector > Terasort.
#include "figures.hpp"

namespace smr::bench {

void fig1() {
  struct Cell {
    workload::Puma bench;
    int slots;
  };
  std::vector<Cell> cells;
  for (workload::Puma bench_id : workload::fig1_benchmarks()) {
    for (int slots = 1; slots <= 14; ++slots) cells.push_back({bench_id, slots});
  }
  const auto done = run_cells(cells, [](const Cell& cell) {
    auto config = paper_config(driver::EngineKind::kHadoopV1);
    config.runtime.initial_map_slots = cell.slots;
    return run_job(config, workload::make_puma_job(cell.bench, 30 * kGiB));
  });
  FigureTable table("Fig 1: map throughput (MiB/s) vs map slots per node");
  for (const auto& [cell, job] : done) {
    table.set("map_slots=" + std::to_string(cell.slots), workload::puma_name(cell.bench),
              job.map_throughput() / static_cast<double>(kMiB));
  }
  table.print();
}

}  // namespace smr::bench
