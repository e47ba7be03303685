#include "smr/driver/experiment.hpp"

#include <cctype>

#include "smr/alloc/registry.hpp"

namespace smr::driver {

const char* engine_name(EngineKind kind) {
  switch (kind) {
    case EngineKind::kHadoopV1: return "HadoopV1";
    case EngineKind::kYarn: return "YARN";
    case EngineKind::kSMapReduce: return "SMapReduce";
  }
  return "unknown";
}

std::vector<EngineKind> all_engines() {
  return {EngineKind::kHadoopV1, EngineKind::kYarn, EngineKind::kSMapReduce};
}

namespace {
std::string to_lower(std::string s) {
  for (char& c : s) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return s;
}
}  // namespace

std::optional<EngineKind> engine_from_name(const std::string& name) {
  const std::string lower = to_lower(name);
  for (EngineKind kind : all_engines()) {
    if (lower == to_lower(engine_name(kind))) return kind;
  }
  return std::nullopt;
}

const char* scheduler_name(SchedulerKind kind) {
  switch (kind) {
    case SchedulerKind::kFifo: return "fifo";
    case SchedulerKind::kFair: return "fair";
    case SchedulerKind::kDeadline: return "deadline";
  }
  return "unknown";
}

std::optional<SchedulerKind> scheduler_from_name(const std::string& name) {
  const std::string lower = to_lower(name);
  if (lower == "fifo") return SchedulerKind::kFifo;
  if (lower == "fair") return SchedulerKind::kFair;
  if (lower == "deadline" || lower == "edf") return SchedulerKind::kDeadline;
  return std::nullopt;
}

std::unique_ptr<mapreduce::JobScheduler> make_scheduler(const ExperimentConfig& config) {
  switch (config.scheduler) {
    case SchedulerKind::kFifo: return std::make_unique<mapreduce::FifoScheduler>();
    case SchedulerKind::kFair: return std::make_unique<mapreduce::FairScheduler>();
    case SchedulerKind::kDeadline:
      return std::make_unique<mapreduce::DeadlineScheduler>();
  }
  SMR_CHECK_MSG(false, "unknown scheduler kind");
  return nullptr;
}

ExperimentConfig ExperimentConfig::paper_default(EngineKind engine) {
  ExperimentConfig config;
  config.engine = engine;
  config.runtime.cluster = cluster::ClusterSpec::paper_testbed(16);
  config.runtime.initial_map_slots = 3;
  config.runtime.initial_reduce_slots = 2;
  return config;
}

alloc::PolicyContext policy_context(const ExperimentConfig& config) {
  alloc::PolicyContext context;
  context.nodes = config.runtime.cluster.worker_count();
  context.initial_map_slots = config.runtime.initial_map_slots;
  context.initial_reduce_slots = config.runtime.initial_reduce_slots;
  context.slot_manager = config.slot_manager;
  context.yarn = config.yarn;
  if (config.slot_manager.per_node_targets) {
    context.node_speeds.reserve(config.runtime.cluster.workers.size());
    for (const auto& node : config.runtime.cluster.workers) {
      context.node_speeds.push_back(node.cpu_speed);
    }
  }
  return context;
}

std::unique_ptr<mapreduce::AllocationPolicy> make_policy(const ExperimentConfig& config) {
  alloc::PolicySpec spec = config.policy;
  if (spec.empty()) {
    // Legacy enum path: route through the registry under the engine name,
    // which constructs the exact same objects the old switch did.
    spec.name = engine_name(config.engine);
  }
  return alloc::AllocatorRegistry::instance().create(spec,
                                                     policy_context(config));
}

std::string policy_label(const ExperimentConfig& config) {
  if (config.policy.empty()) return engine_name(config.engine);
  return make_policy(config)->name();
}

void ExperimentConfig::validate() const {
  SMR_CHECK_MSG(trials >= 1, "trials must be at least 1");
  runtime.validate();
}

metrics::RunResult run_trial(const ExperimentConfig& config,
                             const std::vector<JobSubmission>& jobs,
                             std::uint64_t seed, ThreadPool* pool) {
  SMR_CHECK(!jobs.empty());
  mapreduce::RuntimeConfig runtime_config = config.runtime;
  runtime_config.seed = seed;
  mapreduce::Runtime runtime(runtime_config, make_policy(config), make_scheduler(config));
  if (pool != nullptr) runtime.set_thread_pool(pool);
  for (const auto& submission : jobs) {
    runtime.submit(submission.spec, submission.submit_at);
  }
  return runtime.run();
}

metrics::RunResult run_experiment(const ExperimentConfig& config,
                                  const std::vector<JobSubmission>& jobs,
                                  ThreadPool& pool) {
  SMR_CHECK(config.trials >= 1);
  // Indexed result slots + fixed per-trial seeds (seed + t): the averaged
  // result is bit-identical whatever the pool size or completion order.
  std::vector<metrics::RunResult> trials(static_cast<std::size_t>(config.trials));
  if (config.trials == 1) {
    trials[0] = run_trial(config, jobs, config.runtime.seed, &pool);
  } else {
    TaskGroup group(pool);
    for (int t = 0; t < config.trials; ++t) {
      group.submit([&config, &jobs, &trials, &pool, t] {
        trials[static_cast<std::size_t>(t)] =
            run_trial(config, jobs, config.runtime.seed + static_cast<std::uint64_t>(t),
                      &pool);
      });
    }
    group.wait();
  }
  return metrics::average_trials(trials);
}

metrics::RunResult run_experiment(const ExperimentConfig& config,
                                  const std::vector<JobSubmission>& jobs) {
  return run_experiment(config, jobs, default_thread_pool());
}

metrics::RunResult run_single_job(const ExperimentConfig& config,
                                  const mapreduce::JobSpec& spec) {
  return run_experiment(config, {JobSubmission{spec, 0.0}});
}

}  // namespace smr::driver
