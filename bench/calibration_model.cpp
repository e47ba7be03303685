// Calibration check: the analytic contention model vs the end-to-end
// simulation.
//
// The Fig. 1 thrashing curves can be computed two ways: (a) directly from
// ComputeModel::solve for n identical map tasks on one node (no control
// plane, no waves, no shuffle), and (b) by actually running the full
// HadoopV1 engine at a static n and measuring input/map-time.  If the
// stack is wired correctly, (b) tracks (a) up to wave-quantisation and
// shuffle interference — this bench prints both so drift is visible.
//
// Expected shape: end-to-end sits at or below the analytic curve (waves
// round up, heartbeats idle slots, reducers steal resources), with the
// same hump position ±1 slot.
#include "figures.hpp"

#include "smr/cluster/compute_model.hpp"

namespace smr::bench {
namespace {

double analytic_rate(const cluster::NodeSpec& node, const mapreduce::JobSpec& spec,
                     int n) {
  cluster::Occupancy occ;
  occ.threads = n;
  occ.io_streams = n;
  occ.memory_demand = spec.map_task_memory * n;
  std::vector<cluster::PhaseLoad> loads(
      static_cast<std::size_t>(n),
      cluster::PhaseLoad{spec.map_cpu_per_mib / static_cast<double>(kMiB),
                         1.0 + spec.map_selectivity * spec.spill_disk_factor,
                         cluster::kNoCap, 1.0});
  double total = 0.0;
  for (double r : cluster::ComputeModel::solve(node, occ, {}, loads)) total += r;
  return total;
}

}  // namespace

void calibration() {
  struct Cell {
    workload::Puma bench;
    int slots;
  };
  struct Rates {
    double analytic = 0.0;
    double measured = 0.0;
  };
  std::vector<Cell> cells;
  for (workload::Puma bench_id : {workload::Puma::kTerasort, workload::Puma::kGrep}) {
    for (int slots = 1; slots <= 10; ++slots) cells.push_back({bench_id, slots});
  }
  const auto done = run_cells(cells, [](const Cell& cell) {
    const auto spec = workload::make_puma_job(cell.bench, 30 * kGiB);
    auto config = paper_config(driver::EngineKind::kHadoopV1);
    config.runtime.initial_map_slots = cell.slots;
    return Rates{analytic_rate(cluster::NodeSpec{}, spec, cell.slots) /
                     static_cast<double>(kMiB),
                 run_job(config, spec).map_throughput() / static_cast<double>(kMiB) /
                     16.0};  // per node
  });
  FigureTable table("Calibration: analytic vs end-to-end map throughput (MiB/s), terasort");
  for (const auto& [cell, rates] : done) {
    char row[32];
    std::snprintf(row, sizeof(row), "map_slots=%d", cell.slots);
    const std::string prefix = workload::puma_name(cell.bench);
    table.set(row, prefix + "/model", rates.analytic);
    table.set(row, prefix + "/sim", rates.measured);
  }
  table.print();
}

}  // namespace smr::bench
