// smr_sim — command-line front end to the simulator.
//
// Runs a single PUMA job, a paper-style multi-job batch, or a synthetic
// mix on a configurable cluster under any of the three engines, and can
// dump per-job CSVs, progress/slot timelines, and a Chrome trace of every
// task.
//
//   smr_sim --engine=smapreduce --benchmark=terasort --input-gib=30
//   smr_sim --engine=yarn --benchmark=grep --jobs=4 --stagger=5
//   smr_sim --synthetic --jobs=8 --seed=7 --scheduler=fair
//   smr_sim --benchmark=terasort --trace-out=trace.json
//           --metrics-out=metrics.jsonl --decisions-out=decisions.csv
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <utility>

#include "smr/alloc/registry.hpp"
#include "smr/common/flags.hpp"
#include "smr/driver/experiment.hpp"
#include "smr/metrics/reporter.hpp"
#include "smr/metrics/trace.hpp"
#include "smr/obs/critical_path.hpp"
#include "smr/obs/decision_log.hpp"
#include "smr/obs/metrics_registry.hpp"
#include "smr/obs/self_profile.hpp"
#include "smr/obs/span_log.hpp"
#include "smr/workload/puma.hpp"
#include "smr/workload/jobs_file.hpp"
#include "smr/workload/synthetic.hpp"

using namespace smr;

namespace {

int fail(const std::string& message) {
  std::fprintf(stderr, "smr_sim: %s\n", message.c_str());
  return 1;
}

bool write_file(const std::string& path, const std::function<void(std::ostream&)>& fn) {
  std::ofstream out(path);
  if (!out) return false;
  fn(out);
  return true;
}

/// The first out-of-range run-shape flag, named with its value, or "" when
/// all are in range.  Checked before the workload is built, so a bad value
/// is a usage error rather than a failed check inside a trial.
std::string run_flag_error(const FlagSet& flags) {
  const std::int64_t jobs = flags.get_int("jobs");
  const std::int64_t shards = flags.get_int("shards");
  const std::int64_t map_slots = flags.get_int("map-slots");
  const std::int64_t reduce_slots = flags.get_int("reduce-slots");
  const double fail_rate = flags.get_double("task-fail-rate");
  const std::int64_t max_attempts = flags.get_int("max-attempts");
  std::ostringstream bad;
  if (jobs < 1) {
    bad << "--jobs=" << jobs << " must be at least 1";
  } else if (shards < 1) {
    bad << "--shards=" << shards << " must be at least 1";
  } else if (map_slots < 0) {
    bad << "--map-slots=" << map_slots << " must not be negative";
  } else if (reduce_slots < 0) {
    bad << "--reduce-slots=" << reduce_slots << " must not be negative";
  } else if (map_slots + reduce_slots < 1) {
    bad << "--map-slots=0 and --reduce-slots=0 leave a node no slot";
  } else if (!(fail_rate >= 0.0 && fail_rate <= 1.0)) {
    bad << "--task-fail-rate=" << fail_rate << " must be in [0, 1]";
  } else if (max_attempts < 1) {
    bad << "--max-attempts=" << max_attempts << " must be at least 1";
  }
  return bad.str();
}

/// Parses --fail-node entries.  Each comma-separated entry is "N" (node N
/// fails permanently at --fail-at, the pre-existing syntax), "N@t" (fails
/// at t), or "N@t:t2" (transient: fails at t, recovers at t2).
bool parse_failures(const std::string& spec, double default_at,
                    std::vector<mapreduce::RuntimeConfig::NodeFailure>& out,
                    std::string& error) {
  std::size_t start = 0;
  while (start < spec.size()) {
    std::size_t end = spec.find(',', start);
    if (end == std::string::npos) end = spec.size();
    const std::string entry = spec.substr(start, end - start);
    start = end + 1;
    if (entry.empty()) continue;

    mapreduce::RuntimeConfig::NodeFailure failure;
    failure.at = default_at;
    const std::size_t at_sep = entry.find('@');
    const std::string node_str = entry.substr(0, at_sep);
    char* rest = nullptr;
    failure.node = static_cast<NodeId>(std::strtol(node_str.c_str(), &rest, 10));
    if (rest == node_str.c_str() || *rest != '\0') {
      error = "--fail-node: bad node id in '" + entry + "'";
      return false;
    }
    if (at_sep != std::string::npos) {
      const std::string times = entry.substr(at_sep + 1);
      const std::size_t colon = times.find(':');
      const std::string at_str = times.substr(0, colon);
      failure.at = std::strtod(at_str.c_str(), &rest);
      if (at_str.empty() || rest == at_str.c_str() || *rest != '\0') {
        error = "--fail-node: bad failure time in '" + entry + "'";
        return false;
      }
      if (colon != std::string::npos) {
        const std::string recover_str = times.substr(colon + 1);
        failure.recover_at = std::strtod(recover_str.c_str(), &rest);
        if (recover_str.empty() || rest == recover_str.c_str() || *rest != '\0') {
          error = "--fail-node: bad recovery time in '" + entry + "'";
          return false;
        }
      }
    }
    out.push_back(failure);
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  FlagSet flags("Simulate MapReduce jobs under HadoopV1, YARN or SMapReduce.");
  flags.define_string("engine", "smapreduce", "hadoopv1 | yarn | smapreduce");
  flags.define_string("policy", "",
                      "registry allocation policy '<name>[:k=v,...]' "
                      "(e.g. karma:init_credits=50,decay=0.99); overrides "
                      "--engine; 'list' prints the catalogue");
  flags.define_string("benchmark", "histogram-ratings",
                      "PUMA benchmark (ignored with --synthetic)");
  flags.define_int("input-gib", 30, "input size per job in GiB");
  flags.define_int("jobs", 1, "number of identical jobs (paper-style batch)");
  flags.define_double("stagger", 5.0, "seconds between submissions in a batch");
  flags.define_bool("synthetic", false,
                    "generate a random job mix instead of a fixed benchmark");
  flags.define_string("workload-csv", "",
                      "replay jobs from a CSV (benchmark,input_gib,submit_at"
                      "[,reduce_tasks]); overrides --benchmark/--synthetic");
  flags.define_double("mean-interarrival", 60.0,
                      "synthetic mix: mean exponential inter-arrival (s)");
  flags.define_string("scheduler", "fifo",
                      "job scheduler: fifo | fair | deadline");
  flags.define_int("nodes", 16, "worker nodes");
  flags.define_int("map-slots", 3, "initial map slots per node");
  flags.define_int("reduce-slots", 2, "initial reduce slots per node");
  flags.define_int("reduce-tasks", 0,
                   "reduce tasks per job; 0 applies the paper's 99%-of-"
                   "reduce-slots rule");
  flags.define_int("trials", 1, "trials to average");
  flags.define_int("seed", 1, "base RNG seed");
  flags.define_int("shards", 1,
                   "partition the cluster into N shards and advance them in "
                   "parallel (conservative time windows; byte-identical to "
                   "--shards=1 for any thread count)");
  flags.define_bool("heterogeneous", false,
                    "half the nodes at half speed/memory (future-work setup)");
  flags.define_bool("per-node-targets", false,
                    "SMapReduce heterogeneous extension: per-node slot targets");
  flags.define_bool("speculation", false,
                    "speculative execution of straggling map tasks");
  flags.define_bool("reduce-speculation", false,
                    "also speculate on straggling reduce tasks");
  flags.define_string("fail-node", "",
                      "inject node failures: \"N\" (fails at --fail-at), "
                      "\"N@t\", or \"N@t:t2\" (transient; recovers at t2); "
                      "comma-separate for several");
  flags.define_double("fail-at", 60.0, "failure time in seconds");
  flags.define_double("task-fail-rate", 0.0,
                      "probability that a task attempt fails mid-phase "
                      "(seeded, per-attempt draw)");
  flags.define_int("max-attempts", 4,
                   "attempts per task before its job is failed");
  flags.define_int("blacklist-after", 4,
                   "attempt failures before a tracker is blacklisted "
                   "(0 disables)");
  flags.define_string("jobs-csv", "", "write per-job results CSV to this path");
  flags.define_string("progress-csv", "", "write progress timeline CSV");
  flags.define_string("slots-csv", "", "write slot timeline CSV");
  flags.define_string("chrome-trace", "",
                      "write a chrome://tracing JSON of every task (1 trial)");
  flags.define_string("trace-out", "", "alias for --chrome-trace");
  flags.define_string("metrics-out", "",
                      "write JSON-lines metrics (sampled series, counters, "
                      "histograms, engine self-profile) from 1 instrumented "
                      "trial");
  flags.define_string("decisions-out", "",
                      "write the allocation policy's decision audit log as "
                      "CSV (any engine/policy)");
  flags.define_string("spans-out", "",
                      "write the causal span tree (run/job/phase/attempt) "
                      "as JSON lines; also nests the spans into --trace-out");
  flags.define_string("critpath-out", "",
                      "write the per-job critical-path attribution "
                      "(wait/transfer/compute/retry/overhead) as JSON");
  flags.define_string("shards-out", "",
                      "write per-shard window statistics (occupancy, "
                      "barrier stall) as JSON; wall-clock stall fields are "
                      "not byte-stable across runs");
  flags.define_bool("help", false, "print this help");

  if (!flags.parse(argc, argv)) {
    std::fprintf(stderr, "smr_sim: %s\n\n%s", flags.error().c_str(),
                 flags.usage("smr_sim").c_str());
    return 1;
  }
  if (flags.get_bool("help")) {
    std::fputs(flags.usage("smr_sim").c_str(), stdout);
    return 0;
  }

  if (const std::string error = run_flag_error(flags); !error.empty()) {
    return fail(error);
  }
  const auto engine = driver::engine_from_name(flags.get_string("engine"));
  if (!engine) return fail("unknown engine '" + flags.get_string("engine") + "'");
  const auto scheduler = driver::scheduler_from_name(flags.get_string("scheduler"));
  if (!scheduler) return fail("unknown scheduler '" + flags.get_string("scheduler") + "'");

  driver::ExperimentConfig config = driver::ExperimentConfig::paper_default(*engine);
  if (const std::string spec = flags.get_string("policy"); !spec.empty()) {
    if (spec == "list") {
      for (const auto& name : alloc::AllocatorRegistry::instance().catalogue()) {
        std::printf("%s\n", name.c_str());
      }
      return 0;
    }
    try {
      config.policy = alloc::parse_policy_spec(spec);
      driver::make_policy(config);  // surface unknown names/options now
    } catch (const SmrError& e) {
      return fail(e.what());
    }
  }
  const int nodes = static_cast<int>(flags.get_int("nodes"));
  try {
    config.runtime.cluster = flags.get_bool("heterogeneous")
                                 ? cluster::ClusterSpec::heterogeneous(
                                       (nodes + 1) / 2, nodes / 2, 0.5)
                                 : cluster::ClusterSpec::paper_testbed(nodes);
  } catch (const SmrError& e) {
    return fail(e.what());
  }
  config.runtime.initial_map_slots = static_cast<int>(flags.get_int("map-slots"));
  config.runtime.initial_reduce_slots = static_cast<int>(flags.get_int("reduce-slots"));
  config.runtime.seed = static_cast<std::uint64_t>(flags.get_int("seed"));
  const int reduce_tasks =
      flags.get_int("reduce-tasks") > 0
          ? static_cast<int>(flags.get_int("reduce-tasks"))
          : workload::recommended_reduce_tasks(
                nodes, config.runtime.initial_reduce_slots);
  config.scheduler = *scheduler;
  config.trials = static_cast<int>(flags.get_int("trials"));
  config.slot_manager.per_node_targets = flags.get_bool("per-node-targets");
  config.runtime.speculative_execution =
      flags.get_bool("speculation") || flags.get_bool("reduce-speculation");
  config.runtime.speculative_reduce_execution = flags.get_bool("reduce-speculation");
  config.runtime.task_fail_rate = flags.get_double("task-fail-rate");
  config.runtime.max_attempts = static_cast<int>(flags.get_int("max-attempts"));
  config.runtime.blacklist_after =
      static_cast<int>(flags.get_int("blacklist-after"));
  config.runtime.shard_count = static_cast<int>(flags.get_int("shards"));
  if (const std::string spec = flags.get_string("fail-node"); !spec.empty()) {
    std::string error;
    if (!parse_failures(spec, flags.get_double("fail-at"),
                        config.runtime.failures, error)) {
      return fail(error);
    }
  }

  // Build the workload.
  std::vector<driver::JobSubmission> submissions;
  if (const std::string path = flags.get_string("workload-csv"); !path.empty()) {
    try {
      for (auto& job : workload::load_jobs_csv(path)) {
        submissions.push_back({std::move(job.spec), job.submit_at});
      }
    } catch (const SmrError& e) {
      return fail(e.what());
    }
    if (submissions.empty()) return fail("no jobs in " + path);
  } else if (flags.get_bool("synthetic")) {
    workload::SyntheticMixConfig mix;
    mix.jobs = static_cast<int>(flags.get_int("jobs"));
    mix.mean_interarrival = flags.get_double("mean-interarrival");
    mix.reduce_tasks = reduce_tasks;
    mix.seed = config.runtime.seed;
    for (auto& job : workload::make_synthetic_mix(mix)) {
      submissions.push_back({std::move(job.spec), job.submit_at});
    }
  } else {
    const auto bench = workload::puma_from_name(flags.get_string("benchmark"));
    if (!bench) return fail("unknown benchmark '" + flags.get_string("benchmark") + "'");
    mapreduce::JobSpec spec;
    try {
      spec = workload::make_puma_job(*bench, flags.get_int("input-gib") * kGiB);
    } catch (const SmrError& e) {
      return fail(e.what());
    }
    spec.reduce_tasks = reduce_tasks;
    const auto count = flags.get_int("jobs");
    for (std::int64_t i = 0; i < count; ++i) {
      submissions.push_back({spec, flags.get_double("stagger") * static_cast<double>(i)});
    }
  }

  // Surface config mistakes (bad failure specs, out-of-range rates) as a
  // usage error instead of an uncaught SmrError mid-run.
  try {
    config.validate();
  } catch (const SmrError& e) {
    return fail(e.what());
  }

  // Telemetry sinks share one instrumented single run (trial 1's seed).
  std::string trace_path = flags.get_string("trace-out");
  if (trace_path.empty()) trace_path = flags.get_string("chrome-trace");
  const std::string metrics_path = flags.get_string("metrics-out");
  const std::string decisions_path = flags.get_string("decisions-out");
  const std::string spans_path = flags.get_string("spans-out");
  const std::string critpath_path = flags.get_string("critpath-out");
  const std::string shards_path = flags.get_string("shards-out");
  const bool want_spans = !spans_path.empty() || !critpath_path.empty();
  std::optional<metrics::RunResult> instrumented;
  if (!trace_path.empty() || !metrics_path.empty() || !decisions_path.empty() ||
      want_spans || !shards_path.empty()) {
    metrics::TraceLog trace;
    obs::MetricsRegistry registry;
    obs::DecisionLog decisions;
    obs::SpanLog spans;
    obs::Stopwatch stopwatch;

    mapreduce::RuntimeConfig runtime_config = config.runtime;
    auto policy = driver::make_policy(config);
    // Every allocator inherits the decision-log hook from the base class;
    // policies without periodic decisions simply leave the log empty.
    policy->set_decision_log(&decisions);
    mapreduce::Runtime runtime(runtime_config, std::move(policy),
                               driver::make_scheduler(config));
    if (!trace_path.empty()) runtime.set_trace(&trace);
    if (want_spans) runtime.set_spans(&spans);
    runtime.set_metrics(&registry);
    for (const auto& submission : submissions) {
      runtime.submit(submission.spec, submission.submit_at);
    }
    instrumented = runtime.run();

    obs::EngineProfile profile;
    profile.wall_seconds = stopwatch.seconds();
    profile.sim_seconds = instrumented->makespan;
    profile.events = runtime.engine().dispatched();
    profile.peak_pending = runtime.engine().peak_pending();
    profile.trace_events = trace.size();
    profile.trace_bytes = trace.memory_bytes();

    if (!trace_path.empty()) {
      if (!write_file(trace_path, [&](std::ostream& out) {
            trace.write_chrome_trace(out, want_spans ? &spans : nullptr);
          })) {
        return fail("cannot write " + trace_path);
      }
      std::printf("chrome trace (%zu events) written to %s\n", trace.size(),
                  trace_path.c_str());
    }
    if (!spans_path.empty()) {
      if (!write_file(spans_path,
                      [&](std::ostream& out) { spans.write_jsonl(out); })) {
        return fail("cannot write " + spans_path);
      }
      std::printf("span log (%zu spans) written to %s\n", spans.size(),
                  spans_path.c_str());
    }
    if (!critpath_path.empty()) {
      const obs::CriticalPathReport report =
          obs::analyze_critical_path(spans, runtime_config.heartbeat_period);
      if (!write_file(critpath_path,
                      [&](std::ostream& out) { report.write_json(out); })) {
        return fail("cannot write " + critpath_path);
      }
      std::printf("critical path (%zu jobs) written to %s\n",
                  report.jobs.size(), critpath_path.c_str());
    }
    if (!metrics_path.empty()) {
      if (!write_file(metrics_path, [&](std::ostream& out) {
            registry.write_jsonl(out);
            profile.write_json(out);
            out << '\n';
          })) {
        return fail("cannot write " + metrics_path);
      }
      std::printf("metrics (%.0f events/s simulated) written to %s\n",
                  profile.events_per_sec(), metrics_path.c_str());
    }
    if (!decisions_path.empty()) {
      if (!write_file(decisions_path, [&](std::ostream& out) {
            obs::write_decisions_csv(decisions, out);
          })) {
        return fail("cannot write " + decisions_path);
      }
      std::printf("decision log (%zu decisions) written to %s\n",
                  decisions.size(), decisions_path.c_str());
    }
    if (!shards_path.empty()) {
      if (!write_file(shards_path, [&](std::ostream& out) {
            mapreduce::write_shard_stats_json(runtime, out);
          })) {
        return fail("cannot write " + shards_path);
      }
      std::printf("shard stats (%d shards) written to %s\n",
                  runtime.shard_count(), shards_path.c_str());
    }
  }

  // With one trial the instrumented run is that trial (same seed, and
  // averaging one trial is the identity), so it is not simulated again.
  // With more trials every trial is run afresh and averaged as usual.
  const metrics::RunResult result =
      instrumented.has_value() && config.trials == 1
          ? std::move(*instrumented)
          : driver::run_experiment(config, submissions);

  std::printf("engine=%s scheduler=%s nodes=%d slots=%d+%d trials=%d\n\n",
              driver::policy_label(config).c_str(),
              driver::scheduler_name(*scheduler),
              nodes, config.runtime.initial_map_slots,
              config.runtime.initial_reduce_slots, config.trials);
  metrics::job_summary_table(result).write(std::cout);
  if (!result.completed) {
    std::printf("\nWARNING: run did not complete: %s\n",
                result.failure_reason.empty() ? "unknown reason"
                                              : result.failure_reason.c_str());
    if (const int failed = result.failed_jobs(); failed > 0) {
      std::printf("%d of %zu job(s) failed\n", failed, result.jobs.size());
    }
  } else if (result.jobs.size() > 1) {
    std::printf("\nmean execution %.1fs, last finish %.1fs, makespan %.1fs\n",
                result.mean_execution_time(), result.last_finish_time(),
                result.makespan);
  }

  if (const std::string path = flags.get_string("jobs-csv"); !path.empty()) {
    if (!write_file(path, [&](std::ostream& out) { metrics::write_jobs_csv(result, out); })) {
      return fail("cannot write " + path);
    }
  }
  if (const std::string path = flags.get_string("progress-csv"); !path.empty()) {
    if (!write_file(path,
                    [&](std::ostream& out) { metrics::write_progress_csv(result, out); })) {
      return fail("cannot write " + path);
    }
  }
  if (const std::string path = flags.get_string("slots-csv"); !path.empty()) {
    if (!write_file(path, [&](std::ostream& out) { metrics::write_slots_csv(result, out); })) {
      return fail("cannot write " + path);
    }
  }
  return result.completed ? 0 : 2;
}
