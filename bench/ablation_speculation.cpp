// Substrate ablation: speculative execution under straggler-heavy
// workloads, and its interaction with slot management.
//
// Hadoop's backup tasks occupy working slots, so they compete with the
// slot manager's allocation decisions.  Expected shape: with high per-task
// variance, speculation shortens the map tail on every engine; SMapReduce
// still wins overall, and speculation's benefit is largest on the static
// engine (whose final waves otherwise idle most slots waiting for
// stragglers).
#include "figures.hpp"

namespace smr::bench {
namespace {

enum class Mode { kPlain, kMapOnly, kMapAndReduce };

const char* mode_name(Mode mode) {
  switch (mode) {
    case Mode::kPlain: return "plain";
    case Mode::kMapOnly: return "map-spec";
    case Mode::kMapAndReduce: return "map+red-spec";
  }
  return "?";
}

}  // namespace

void speculation() {
  struct Cell {
    driver::EngineKind engine;
    Mode mode;
  };
  std::vector<Cell> cells;
  for (driver::EngineKind engine : driver::all_engines()) {
    for (Mode mode : {Mode::kPlain, Mode::kMapOnly, Mode::kMapAndReduce}) {
      cells.push_back({engine, mode});
    }
  }
  const auto done = run_cells(cells, [](const Cell& cell) {
    auto config = paper_config(cell.engine, /*trials=*/3);
    config.runtime.speculative_execution = cell.mode != Mode::kPlain;
    config.runtime.speculative_reduce_execution = cell.mode == Mode::kMapAndReduce;
    auto spec = workload::make_puma_job(workload::Puma::kGrep, 30 * kGiB);
    spec.duration_cv = 0.6;  // heavy straggling
    return run_job(config, spec);
  });
  FigureTable table("Speculation ablation: total time (s), straggler-heavy grep (cv=0.6)");
  for (const auto& [cell, job] : done) {
    table.set(driver::engine_name(cell.engine), mode_name(cell.mode), job.total_time());
  }
  table.print();
}

}  // namespace smr::bench
