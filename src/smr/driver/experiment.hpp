// Experiment harness: builds a cluster + engine + workload, runs it (over
// several trials, as the paper averages two), and returns the metrics.
// smr_figures, smr_sim and the examples go through this interface.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "smr/alloc/registry.hpp"
#include "smr/common/thread_pool.hpp"
#include "smr/core/slot_manager_config.hpp"
#include "smr/mapreduce/runtime.hpp"
#include "smr/metrics/job_metrics.hpp"
#include "smr/yarn/resources.hpp"

namespace smr::driver {

/// The three systems under comparison.
enum class EngineKind { kHadoopV1, kYarn, kSMapReduce };

const char* engine_name(EngineKind kind);
std::vector<EngineKind> all_engines();
/// Parse an engine name ("hadoopv1"/"yarn"/"smapreduce", case-insensitive).
std::optional<EngineKind> engine_from_name(const std::string& name);

/// Job ordering for slot assignment (Section V-F uses FIFO / capacity).
/// kDeadline is EDF over per-job SLO deadlines (the serving subsystem).
enum class SchedulerKind { kFifo, kFair, kDeadline };

const char* scheduler_name(SchedulerKind kind);
std::optional<SchedulerKind> scheduler_from_name(const std::string& name);

struct JobSubmission {
  mapreduce::JobSpec spec;
  SimTime submit_at = 0.0;
};

struct ExperimentConfig {
  EngineKind engine = EngineKind::kHadoopV1;

  /// Registry-backed policy selection (`--policy=<name>[:k=v,...]`).
  /// When non-empty it overrides `engine`: make_policy() builds this spec
  /// through alloc::AllocatorRegistry instead of the engine enum.  The
  /// legacy engines remain reachable both ways ("hadoopv1", "yarn",
  /// "smapreduce" are registered names).
  alloc::PolicySpec policy;

  mapreduce::RuntimeConfig runtime;

  /// SMapReduce slot-manager configuration (engine == kSMapReduce).
  core::SlotManagerConfig slot_manager;

  /// YARN configuration (engine == kYarn).  When unset, derived from the
  /// runtime's initial slot counts via YarnConfig::equivalent_slots, which
  /// is the paper's "equivalent containers" setup.
  std::optional<yarn::YarnConfig> yarn;

  /// Job scheduler for multi-job workloads (FIFO is the paper's default on
  /// HadoopV1/SMapReduce; YARN's capacity behaviour comes from its policy).
  SchedulerKind scheduler = SchedulerKind::kFifo;

  /// Trials to average (the paper reports the average of two).
  int trials = 2;

  /// Throws SmrError on a bad trial count or runtime configuration.
  void validate() const;

  /// The paper's standard single-job setup: `engine` on the 16-node
  /// testbed with 3 map + 2 reduce initial slots.
  static ExperimentConfig paper_default(EngineKind engine);
};

/// Build the allocation policy for `config`: `config.policy` through the
/// allocator registry when set, the `config.engine` enum otherwise (both
/// paths construct identical objects for the three legacy engines).
std::unique_ptr<mapreduce::AllocationPolicy> make_policy(const ExperimentConfig& config);

/// The registry construction context for `config` (cluster size, initial
/// targets, node speeds, SMR/YARN sub-configs).
alloc::PolicyContext policy_context(const ExperimentConfig& config);

/// Display label of the allocator `config` selects: the constructed
/// policy's name() ("Karma", "GameCapacity", ...), == engine_name(engine)
/// when no spec is set.  Reports and sweep CSVs use this.
std::string policy_label(const ExperimentConfig& config);

/// Build the job scheduler for `config`.
std::unique_ptr<mapreduce::JobScheduler> make_scheduler(const ExperimentConfig& config);

/// Run one trial with the given seed.  When `pool` is non-null and the
/// runtime config asks for shards, the sharded tick fans out on that pool
/// (nullptr falls back to the process default pool; the output is byte-
/// identical either way).
metrics::RunResult run_trial(const ExperimentConfig& config,
                             const std::vector<JobSubmission>& jobs,
                             std::uint64_t seed, ThreadPool* pool = nullptr);

/// Run `config.trials` trials (seeds seed, seed+1, ...) and average.
/// Trials are independent simulations; they run concurrently on `pool`
/// (trial t always uses seed + t and lands in result slot t, so the
/// averaged result is bit-identical for any pool size — including 1).
/// Safe to call from inside a pool task: the wait helps drain the queue.
metrics::RunResult run_experiment(const ExperimentConfig& config,
                                  const std::vector<JobSubmission>& jobs,
                                  ThreadPool& pool);

/// Convenience: run on the process-wide default pool.
metrics::RunResult run_experiment(const ExperimentConfig& config,
                                  const std::vector<JobSubmission>& jobs);

/// Convenience: run a single job submitted at t = 0.
metrics::RunResult run_single_job(const ExperimentConfig& config,
                                  const mapreduce::JobSpec& spec);

}  // namespace smr::driver
