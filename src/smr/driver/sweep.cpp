#include "smr/driver/sweep.hpp"

#include <cmath>
#include <ostream>

#include "smr/common/thread_pool.hpp"

namespace smr::driver {

const char* sweep_dimension_name(SweepDimension dimension) {
  switch (dimension) {
    case SweepDimension::kMapSlots: return "map-slots";
    case SweepDimension::kInputGib: return "input-gib";
    case SweepDimension::kNodes: return "nodes";
    case SweepDimension::kSeed: return "seed";
  }
  return "unknown";
}

std::optional<SweepDimension> sweep_dimension_from_name(const std::string& name) {
  for (SweepDimension dimension :
       {SweepDimension::kMapSlots, SweepDimension::kInputGib, SweepDimension::kNodes,
        SweepDimension::kSeed}) {
    if (name == sweep_dimension_name(dimension)) return dimension;
  }
  return std::nullopt;
}

void SweepConfig::validate() const {
  spec.validate();
  base.validate();
  SMR_CHECK_MSG(!values.empty(), "sweep needs at least one value");
  SMR_CHECK_MSG(!engines.empty() || !policies.empty(),
                "sweep needs at least one engine or policy");
  for (double value : values) {
    switch (dimension) {
      case SweepDimension::kMapSlots:
      case SweepDimension::kNodes:
        SMR_CHECK_MSG(value >= 1.0 && value == std::floor(value),
                      sweep_dimension_name(dimension)
                          << " values must be positive integers");
        break;
      case SweepDimension::kInputGib:
        SMR_CHECK_MSG(value > 0.0, "input-gib values must be positive");
        break;
      case SweepDimension::kSeed:
        SMR_CHECK_MSG(value >= 0.0 && value == std::floor(value),
                      "seed values must be non-negative integers");
        break;
    }
  }
}

namespace {

SweepCell run_cell(const SweepConfig& config, double value, EngineKind engine,
                   const alloc::PolicySpec* policy, ThreadPool& pool) {
  ExperimentConfig experiment = config.base;
  if (policy != nullptr) {
    experiment.policy = *policy;
  } else {
    experiment.engine = engine;
  }
  mapreduce::JobSpec spec = config.spec;
  switch (config.dimension) {
    case SweepDimension::kMapSlots:
      experiment.runtime.initial_map_slots = static_cast<int>(value);
      // YARN capacity derives from the slot counts unless explicitly set.
      experiment.yarn.reset();
      break;
    case SweepDimension::kInputGib:
      spec.input_size = static_cast<Bytes>(value * static_cast<double>(kGiB));
      break;
    case SweepDimension::kNodes:
      experiment.runtime.cluster =
          cluster::ClusterSpec::paper_testbed(static_cast<int>(value));
      break;
    case SweepDimension::kSeed:
      experiment.runtime.seed = static_cast<std::uint64_t>(value);
      break;
  }
  SweepCell cell;
  cell.value = value;
  cell.engine = engine;
  cell.label = policy_label(experiment);
  metrics::RunResult run = run_experiment(experiment, {JobSubmission{spec, 0.0}}, pool);
  cell.job = run.jobs[0];
  cell.engine_events = run.engine_events;
  return cell;
}

}  // namespace

SweepResult run_sweep(const SweepConfig& config, ThreadPool& pool) {
  config.validate();
  // Surface bad policy specs (unknown name, typo'd option) on the caller
  // thread before fanning out: an exception thrown inside a pool task
  // never propagates, it would wedge the sweep instead of failing it.
  for (const alloc::PolicySpec& spec : config.policies) {
    ExperimentConfig probe = config.base;
    probe.policy = spec;
    make_policy(probe);
  }
  SweepResult result;
  result.dimension = config.dimension;
  const std::size_t columns = config.columns();
  result.cells.resize(config.values.size() * columns);
  // Cells fan out on the pool, and each cell's trials fan out again on the
  // same pool; TaskGroup's help-wait makes the nesting deadlock-free.
  parallel_for(pool, 0, result.cells.size(), [&](std::size_t i) {
    const double value = config.values[i / columns];
    const std::size_t column = i % columns;
    if (config.policies.empty()) {
      result.cells[i] =
          run_cell(config, value, config.engines[column], nullptr, pool);
    } else {
      result.cells[i] = run_cell(config, value, config.base.engine,
                                 &config.policies[column], pool);
    }
  });
  return result;
}

SweepResult run_sweep(const SweepConfig& config) {
  return run_sweep(config, default_thread_pool());
}

void SweepResult::write_csv(std::ostream& out) const {
  // `completed` makes unfinished cells explicit (previously they were only
  // recognisable by their empty derived columns); `failed` separates a job
  // torn down by the fault path from one that merely hit the time limit.
  out << sweep_dimension_name(dimension)
      << ",engine,completed,failed,map_time_s,reduce_time_s,total_time_s,"
         "throughput_bytes_s\n";
  for (const auto& cell : cells) {
    out << cell.value << ','
        << (cell.label.empty() ? engine_name(cell.engine) : cell.label.c_str())
        << ','
        << (cell.job.finished() ? 1 : 0) << ',' << (cell.job.failed ? 1 : 0)
        << ',';
    if (cell.job.finished()) {
      out << cell.job.map_time() << ',' << cell.job.reduce_time() << ','
          << cell.job.total_time() << ',' << cell.job.throughput();
    } else {
      out << ",,,";
    }
    out << '\n';
  }
}

}  // namespace smr::driver
