// Future-work extension (paper §VII): heterogeneous clusters.
//
// "Currently, SMapReduce only considers the case where the cluster is
// homogeneous ... We are working to extend SMapReduce to the heterogeneous
// environment."
//
// Cluster: 8 full-speed nodes + 8 nodes at half CPU speed with half the
// memory.  Compared: HadoopV1 (static 3+2 everywhere), SMapReduce with one
// uniform cluster-wide target (the paper's system), and the extension with
// per-node targets scaled by node speed.  Expected shape: per-node targets
// beat the uniform target (slow nodes thrash at counts the fast nodes
// tolerate), and both beat static slots.
#include "figures.hpp"

namespace smr::bench {
namespace {

enum class Variant { kHadoopV1, kUniform, kPerNode };

const char* variant_name(Variant v) {
  switch (v) {
    case Variant::kHadoopV1: return "HadoopV1";
    case Variant::kUniform: return "SMR-uniform";
    case Variant::kPerNode: return "SMR-pernode";
  }
  return "?";
}

}  // namespace

void heterogeneous() {
  struct Cell {
    workload::Puma bench;
    Variant variant;
  };
  std::vector<Cell> cells;
  for (workload::Puma bench_id :
       {workload::Puma::kHistogramRatings, workload::Puma::kTermVector,
        workload::Puma::kTerasort}) {
    for (Variant variant : {Variant::kHadoopV1, Variant::kUniform, Variant::kPerNode}) {
      cells.push_back({bench_id, variant});
    }
  }
  const auto done = run_cells(cells, [](const Cell& cell) {
    auto config = paper_config(cell.variant == Variant::kHadoopV1
                                   ? driver::EngineKind::kHadoopV1
                                   : driver::EngineKind::kSMapReduce);
    config.runtime.cluster = cluster::ClusterSpec::heterogeneous(8, 8, 0.5);
    config.slot_manager.per_node_targets = (cell.variant == Variant::kPerNode);
    return run_job(config, workload::make_puma_job(cell.bench, 30 * kGiB));
  });
  FigureTable table(
      "Extension: heterogeneous cluster (8 fast + 8 half-speed), total time (s)");
  for (const auto& [cell, job] : done) {
    table.set(workload::puma_name(cell.bench), variant_name(cell.variant), job.total_time());
  }
  table.print();
}

}  // namespace smr::bench
