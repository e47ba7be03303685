// Figure 7: map time with and without thrashing detection and with and
// without the slow-start policy, on two benchmarks.
//
// Expected shape (paper §V-E): without detecting thrashing SMapReduce's map
// time blows up well past HadoopV1 and YARN (the balance controller climbs
// into paging); without slow start the result depends on whether the early
// noisy statistics happened to steer the right way — sometimes better,
// usually worse; full SMapReduce is the fastest configuration.
#include "figures.hpp"

namespace smr::bench {
namespace {

enum class Variant { kHadoopV1, kYarn, kFull, kNoThrashDetect, kNoSlowStart };

const char* variant_name(Variant v) {
  switch (v) {
    case Variant::kHadoopV1: return "HadoopV1";
    case Variant::kYarn: return "YARN";
    case Variant::kFull: return "SMR";
    case Variant::kNoThrashDetect: return "SMR-nodetect";
    case Variant::kNoSlowStart: return "SMR-noslow";
  }
  return "?";
}

driver::ExperimentConfig config_for(Variant v) {
  switch (v) {
    case Variant::kHadoopV1:
      return paper_config(driver::EngineKind::kHadoopV1);
    case Variant::kYarn:
      return paper_config(driver::EngineKind::kYarn);
    case Variant::kFull:
      return paper_config(driver::EngineKind::kSMapReduce);
    case Variant::kNoThrashDetect: {
      auto config = paper_config(driver::EngineKind::kSMapReduce);
      config.slot_manager.detect_thrashing = false;
      return config;
    }
    case Variant::kNoSlowStart: {
      auto config = paper_config(driver::EngineKind::kSMapReduce);
      config.slot_manager.slow_start = false;
      return config;
    }
  }
  return paper_config(driver::EngineKind::kSMapReduce);
}

}  // namespace

void fig7() {
  struct Cell {
    workload::Puma bench;
    Variant variant;
  };
  // One reduce-heavy benchmark (where climbing unchecked is catastrophic)
  // and one map-heavy benchmark (where the early statistics mislead).
  std::vector<Cell> cells;
  for (workload::Puma bench_id :
       {workload::Puma::kTerasort, workload::Puma::kHistogramRatings}) {
    for (Variant variant : {Variant::kHadoopV1, Variant::kYarn, Variant::kFull,
                            Variant::kNoThrashDetect, Variant::kNoSlowStart}) {
      cells.push_back({bench_id, variant});
    }
  }
  const auto done = run_cells(cells, [](const Cell& cell) {
    return run_job(config_for(cell.variant), workload::make_puma_job(cell.bench, 30 * kGiB));
  });
  FigureTable table("Fig 7: map time (s) ablations");
  for (const auto& [cell, job] : done) {
    table.set(workload::puma_name(cell.bench), variant_name(cell.variant), job.map_time());
  }
  table.print();
}

}  // namespace smr::bench
