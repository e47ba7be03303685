// Parallel parameter sweeps over independent simulations.
//
// A sweep varies one dimension (initial map slots, input size, worker
// count, or the seed) across a list of values and runs every (value,
// engine) cell — each cell deterministic, all cells concurrently on the
// process thread pool.  Used by the smr_sweep CLI and the capacity-planning
// example; smr_figures lists its own cells, since a figure's cells differ
// in more than one dimension.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "smr/driver/experiment.hpp"

namespace smr::driver {

enum class SweepDimension { kMapSlots, kInputGib, kNodes, kSeed };

const char* sweep_dimension_name(SweepDimension dimension);
std::optional<SweepDimension> sweep_dimension_from_name(const std::string& name);

struct SweepConfig {
  /// Template experiment; the swept dimension overrides its field per cell.
  ExperimentConfig base;
  /// Template job (input size overridden when sweeping kInputGib).
  mapreduce::JobSpec spec;

  SweepDimension dimension = SweepDimension::kMapSlots;
  std::vector<double> values;
  std::vector<EngineKind> engines = all_engines();
  /// Registry policy specs (`--policies=a;b:k=v;c`).  When non-empty they
  /// replace `engines` as the sweep's column set: each cell runs the spec
  /// through the allocator registry instead of the engine enum.
  std::vector<alloc::PolicySpec> policies;

  /// Number of columns in the sweep grid (policies when set, else engines).
  std::size_t columns() const {
    return policies.empty() ? engines.size() : policies.size();
  }

  void validate() const;
};

struct SweepCell {
  double value = 0.0;
  EngineKind engine = EngineKind::kHadoopV1;
  /// Display label of the cell's allocator: the policy name when the sweep
  /// runs registry specs, engine_name(engine) otherwise.
  std::string label;
  metrics::JobResult job;
  /// Engine events dispatched by this cell's trials (summed over trials;
  /// not part of the CSV output).
  std::uint64_t engine_events = 0;
};

struct SweepResult {
  SweepDimension dimension = SweepDimension::kMapSlots;
  /// Row-major: one cell per (value, engine), values outer, engines inner.
  std::vector<SweepCell> cells;

  /// CSV: value,engine,map_time_s,reduce_time_s,total_time_s,throughput.
  void write_csv(std::ostream& out) const;
};

/// Run the sweep; cells execute concurrently and results are returned in
/// deterministic (value-major) order regardless of thread count.  Each
/// cell's trials also fan out on the same pool (nested, help-wait safe).
SweepResult run_sweep(const SweepConfig& config, ThreadPool& pool);

/// Convenience: run on the process-wide default pool.
SweepResult run_sweep(const SweepConfig& config);

}  // namespace smr::driver
