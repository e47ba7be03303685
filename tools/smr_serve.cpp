// smr_serve — the serving-mode front end: long-lived cluster, open-loop
// multi-tenant arrivals, admission control and steady-state SLO metrics.
//
//   # one serving run, default 2 tenants at 30 jobs/hour aggregate
//   smr_serve --engine=smapreduce --rate=30 --horizon=7200
//
//   # capacity sweep: where is each engine's knee?
//   smr_serve --sweep=10,20,30,40 --engines=hadoopv1,smapreduce
//             --p99-bound=1800 --capacity-out=capacity.json
//
//   # replay a recorded arrival trace
//   smr_serve --arrivals-csv=trace.csv --engine=yarn
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "smr/alloc/frontier.hpp"
#include "smr/common/error.hpp"
#include "smr/common/flags.hpp"
#include "smr/driver/experiment.hpp"
#include "smr/metrics/trace.hpp"
#include "smr/obs/decision_log.hpp"
#include "smr/obs/metrics_registry.hpp"
#include "smr/serve/capacity.hpp"
#include "smr/serve/session.hpp"
#include "smr/workload/puma.hpp"

using namespace smr;

namespace {

int fail(const std::string& message) {
  std::fprintf(stderr, "smr_serve: %s\n", message.c_str());
  return 1;
}

std::vector<std::string> split_list(const std::string& text) {
  std::vector<std::string> items;
  std::stringstream stream(text);
  std::string item;
  while (std::getline(stream, item, ',')) {
    if (!item.empty()) items.push_back(item);
  }
  return items;
}

void print_report(const serve::ServeReport& report) {
  const auto& agg = report.aggregate;
  std::printf("engine=%s scheduler=%s admission=%s offered=%.1f jobs/h\n",
              report.engine.c_str(), report.scheduler.c_str(),
              report.admission.c_str(), report.offered_jobs_per_hour);
  std::printf(
      "measured window: arrived=%lld admitted-completed=%lld failed=%lld "
      "deferred=%lld shed=%lld unfinished(all)=%lld\n",
      static_cast<long long>(agg.arrived), static_cast<long long>(agg.completed),
      static_cast<long long>(agg.failed), static_cast<long long>(agg.deferred),
      static_cast<long long>(agg.shed), static_cast<long long>(report.unfinished));
  std::printf(
      "latency p50=%.1fs p95=%.1fs p99=%.1fs mean=%.1fs  slowdown=%.2f\n",
      agg.latency.p50, agg.latency.p95, agg.latency.p99, agg.latency.mean,
      agg.mean_slowdown);
  std::printf("goodput=%.1f SLO-met jobs/h  slo_met=%lld/%lld  utilization=%.2f\n",
              agg.goodput_per_hour, static_cast<long long>(agg.slo_met),
              static_cast<long long>(agg.completed), report.utilization);
  if (!report.completed) {
    std::printf("WARNING: run did not complete cleanly: %s\n",
                report.failure_reason.empty() ? "unknown reason"
                                              : report.failure_reason.c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  FlagSet flags(
      "Serve open-loop multi-tenant MapReduce arrivals on a long-lived "
      "simulated cluster and report steady-state SLO metrics.");
  flags.define_string("engine", "smapreduce",
                      "hadoopv1 | yarn | smapreduce (single run)");
  flags.define_string("engines", "",
                      "comma list for --sweep (default: all three)");
  flags.define_string("policy", "",
                      "registry allocation policy '<name>[:k=v,...]' "
                      "(e.g. karma:init_credits=50); overrides --engine");
  flags.define_string("policies", "",
                      "semicolon list of policy specs for --sweep/--frontier "
                      "(e.g. 'smapreduce;karma:decay=0.99;gamecapacity')");
  flags.define_string("scheduler", "deadline",
                      "job scheduler: fifo | fair | deadline");
  flags.define_int("nodes", 16, "worker nodes");
  flags.define_int("map-slots", 3, "initial map slots per node");
  flags.define_int("reduce-slots", 2, "initial reduce slots per node");
  flags.define_int("tenants", 2, "number of synthetic tenants");
  flags.define_double("rate", 30.0, "aggregate offered load, jobs/hour");
  flags.define_double("min-gib", 5.0, "min job input size (GiB)");
  flags.define_double("max-gib", 20.0, "max job input size (GiB, log-uniform)");
  flags.define_string("benchmarks", "",
                      "comma list of PUMA benchmarks to draw from "
                      "(default: full catalogue)");
  flags.define_int("reduce-tasks", 0,
                   "reduce tasks per job; 0 applies the paper's rule");
  flags.define_double("slo-base", 300.0,
                      "SLO: base relative deadline in seconds");
  flags.define_double("slo-per-gib", 60.0,
                      "SLO: extra deadline seconds per input GiB");
  flags.define_bool("slo", true, "--no-slo disables deadlines entirely");
  flags.define_double("horizon", 7200.0, "arrival horizon (s)");
  flags.define_double("warmup", 900.0,
                      "warmup window excluded from the steady-state metrics (s)");
  flags.define_double("drain-limit", 7200.0,
                      "extra time after the horizon before the hard stop (s)");
  flags.define_string("admission", "shed",
                      "over-limit policy: shed | defer | none (no limit)");
  flags.define_int("max-in-system", 12,
                   "admission limit on concurrent jobs (with --admission!=none)");
  flags.define_int("max-pending", 0,
                   "defer-queue bound (0 = unbounded; --admission=defer)");
  flags.define_int("seed", 1, "RNG seed (arrivals + runtime)");
  flags.define_int("shards", 1,
                   "partition the cluster into N shards and advance them in "
                   "parallel (byte-identical to --shards=1)");
  flags.define_string("shards-out", "",
                      "write per-shard window statistics JSON (single run "
                      "only; wall-clock stall fields are not byte-stable)");
  flags.define_string("arrivals-csv", "",
                      "replay arrivals from CSV (tenant,benchmark,input_gib,"
                      "arrive_at[,slo_class,deadline_s]) instead of generating");
  flags.define_string("arrivals-out", "",
                      "write the generated arrival stream as replayable CSV");
  flags.define_string("report-out", "", "write the serve report JSON here");
  flags.define_string("metrics-out", "",
                      "write runtime + serve.* telemetry as JSON lines");
  flags.define_string("trace-out", "",
                      "write a chrome://tracing JSON of the serving run "
                      "(task slices + SLO_ALERT instants)");
  flags.define_string("alerts-out", "",
                      "write burn-rate SLO alerts as JSON lines");
  flags.define_double("burn-window", 600.0,
                      "burn-rate: trailing window over deadline outcomes (s)");
  flags.define_double("burn-target", 0.9,
                      "burn-rate: SLO attainment target (budget = 1-target)");
  flags.define_double("burn-threshold", 2.0,
                      "burn-rate: alert when burn >= this multiple of budget");
  flags.define_int("burn-min-samples", 10,
                   "burn-rate: outcomes required in window before alerting");
  flags.define_double("burn-cooldown", 300.0,
                      "burn-rate: per-tenant seconds between alerts");
  flags.define_string("sweep", "",
                      "capacity sweep over these aggregate rates (jobs/hour, "
                      "comma list, ascending)");
  flags.define_double("p99-bound", 1800.0,
                      "sweep: max sustainable p99 sojourn (s)");
  flags.define_double("max-shed-fraction", 0.0,
                      "sweep: max tolerated shed fraction");
  flags.define_string("capacity-out", "",
                      "write the sweep's rate-vs-p99 JSON report here");
  flags.define_string("decisions-out", "",
                      "write the allocation policy's decision audit log as "
                      "CSV (single run only)");
  flags.define_string("fairness-out", "",
                      "write the fairness report JSON (Jain index, envy, "
                      "welfare, credit trajectories)");
  flags.define_bool("frontier", false,
                    "run the fairness-vs-goodput frontier: every policy in "
                    "--policies through the built-in adversarial tenant "
                    "mixes at --rate jobs/hour");
  flags.define_string("frontier-out", "",
                      "write the frontier CSV here (--frontier)");
  flags.define_bool("help", false, "print this help");

  if (!flags.parse(argc, argv)) {
    std::fprintf(stderr, "smr_serve: %s\n\n%s", flags.error().c_str(),
                 flags.usage("smr_serve").c_str());
    return 1;
  }
  if (flags.get_bool("help")) {
    std::fputs(flags.usage("smr_serve").c_str(), stdout);
    return 0;
  }

  const auto engine = driver::engine_from_name(flags.get_string("engine"));
  if (!engine) return fail("unknown engine '" + flags.get_string("engine") + "'");
  const auto scheduler =
      driver::scheduler_from_name(flags.get_string("scheduler"));
  if (!scheduler) {
    return fail("unknown scheduler '" + flags.get_string("scheduler") + "'");
  }

  serve::ServeConfig config;
  config.experiment = driver::ExperimentConfig::paper_default(*engine);
  const int nodes = static_cast<int>(flags.get_int("nodes"));
  try {
    config.experiment.runtime.cluster = cluster::ClusterSpec::paper_testbed(nodes);
  } catch (const SmrError& e) {
    return fail(e.what());
  }
  config.experiment.runtime.initial_map_slots =
      static_cast<int>(flags.get_int("map-slots"));
  config.experiment.runtime.initial_reduce_slots =
      static_cast<int>(flags.get_int("reduce-slots"));
  config.experiment.scheduler = *scheduler;
  if (const std::string spec = flags.get_string("policy"); !spec.empty()) {
    try {
      config.experiment.policy = alloc::parse_policy_spec(spec);
      driver::make_policy(config.experiment);  // validate name + options now
    } catch (const SmrError& e) {
      return fail(e.what());
    }
  }
  config.horizon = flags.get_double("horizon");
  config.warmup = flags.get_double("warmup");
  config.drain_limit = flags.get_double("drain-limit");
  config.seed = static_cast<std::uint64_t>(flags.get_int("seed"));
  config.experiment.runtime.shard_count =
      static_cast<int>(flags.get_int("shards"));
  config.burn.window = flags.get_double("burn-window");
  config.burn.target = flags.get_double("burn-target");
  config.burn.threshold = flags.get_double("burn-threshold");
  config.burn.min_samples =
      static_cast<std::size_t>(flags.get_int("burn-min-samples"));
  config.burn.cooldown = flags.get_double("burn-cooldown");

  const std::string admission = flags.get_string("admission");
  if (admission == "none") {
    config.admission.max_in_system = 0;
  } else if (admission == "shed" || admission == "defer") {
    config.admission.max_in_system =
        static_cast<int>(flags.get_int("max-in-system"));
    config.admission.max_pending = static_cast<int>(flags.get_int("max-pending"));
    config.admission.policy = admission == "shed"
                                  ? serve::AdmissionPolicy::kShed
                                  : serve::AdmissionPolicy::kDefer;
  } else {
    return fail("unknown admission policy '" + admission + "'");
  }

  // Shared synthetic job shape for every tenant.
  workload::SyntheticMixConfig shape;
  shape.min_input = static_cast<Bytes>(flags.get_double("min-gib") *
                                       static_cast<double>(kGiB));
  shape.max_input = static_cast<Bytes>(flags.get_double("max-gib") *
                                       static_cast<double>(kGiB));
  shape.reduce_tasks =
      flags.get_int("reduce-tasks") > 0
          ? static_cast<int>(flags.get_int("reduce-tasks"))
          : workload::recommended_reduce_tasks(
                nodes, config.experiment.runtime.initial_reduce_slots);
  for (const std::string& name : split_list(flags.get_string("benchmarks"))) {
    const auto bench = workload::puma_from_name(name);
    if (!bench) return fail("unknown benchmark '" + name + "'");
    shape.candidates.push_back(*bench);
  }
  if (flags.get_bool("slo")) {
    workload::SyntheticMixConfig::SloClass slo;
    slo.name = "default";
    slo.base_deadline_s = flags.get_double("slo-base");
    slo.per_gib_s = flags.get_double("slo-per-gib");
    shape.slo_classes.push_back(slo);
  }

  const int tenant_count = static_cast<int>(flags.get_int("tenants"));
  if (tenant_count < 1) return fail("--tenants must be >= 1");
  for (int i = 0; i < tenant_count; ++i) {
    serve::TenantConfig tenant;
    tenant.name = "tenant" + std::to_string(i);
    tenant.jobs_per_hour =
        flags.get_double("rate") / static_cast<double>(tenant_count);
    tenant.shape = shape;
    config.tenants.push_back(std::move(tenant));
  }

  try {
    config.validate();  // before any arrivals are generated from it
    if (flags.get_bool("frontier")) {
      alloc::FrontierConfig frontier;
      frontier.experiment = config.experiment;
      frontier.offered_jobs_per_hour = flags.get_double("rate");
      frontier.horizon = config.horizon;
      frontier.warmup = config.warmup;
      frontier.drain_limit = config.drain_limit;
      frontier.admission = config.admission;
      frontier.seed = config.seed;

      const std::string list = flags.get_string("policies");
      const std::vector<alloc::PolicySpec> specs = alloc::parse_policy_list(
          list.empty() ? "hadoopv1;smapreduce;karma;gamecapacity;hybridjobdriven"
                       : list);

      const alloc::FrontierResult result = alloc::run_frontier(frontier, specs);
      std::printf("fairness-vs-goodput frontier (%.1f jobs/h offered):\n",
                  frontier.offered_jobs_per_hour);
      for (const auto& point : result.points) {
        std::printf(
            "  %-16s %-18s goodput=%6.1f/h p99=%8.1fs jain=%.3f "
            "envy=%.3f nash=%.3f\n",
            point.policy.c_str(), point.mix.c_str(), point.goodput_per_hour,
            point.p99_latency_s, point.jain, point.max_envy,
            point.nash_welfare);
      }
      if (const std::string path = flags.get_string("frontier-out");
          !path.empty()) {
        std::ofstream out(path);
        if (!out) return fail("cannot write " + path);
        alloc::write_frontier_csv(result, out);
        std::printf("frontier CSV written to %s\n", path.c_str());
      }
      if (const std::string path = flags.get_string("fairness-out");
          !path.empty()) {
        std::ofstream out(path);
        if (!out) return fail("cannot write " + path);
        alloc::write_fairness_json(result.reports, out);
        std::printf("fairness report written to %s\n", path.c_str());
      }
      return 0;
    }

    if (const std::string sweep = flags.get_string("sweep"); !sweep.empty()) {
      serve::CapacityConfig capacity;
      capacity.base = config;
      for (const std::string& rate : split_list(sweep)) {
        capacity.rates.push_back(std::stod(rate));
      }
      capacity.p99_bound_s = flags.get_double("p99-bound");
      capacity.max_shed_fraction = flags.get_double("max-shed-fraction");

      std::vector<serve::CapacityCurve> curves;
      if (const std::string list = flags.get_string("policies"); !list.empty()) {
        curves = serve::sweep_policies(capacity, alloc::parse_policy_list(list));
      } else {
        std::vector<driver::EngineKind> engines;
        if (const std::string names = flags.get_string("engines");
            !names.empty()) {
          for (const std::string& name : split_list(names)) {
            const auto kind = driver::engine_from_name(name);
            if (!kind) return fail("unknown engine '" + name + "'");
            engines.push_back(*kind);
          }
        } else {
          engines = driver::all_engines();
        }
        curves = serve::sweep_engines(capacity, engines);
      }
      std::printf("capacity sweep: p99 bound %.0fs, shed bound %.2f\n",
                  capacity.p99_bound_s, capacity.max_shed_fraction);
      for (const auto& curve : curves) {
        std::printf("  %-10s knee = %.1f jobs/hour\n", curve.engine.c_str(),
                    curve.knee_jobs_per_hour);
        for (const auto& point : curve.points) {
          std::printf("    %6.1f jobs/h  p99=%8.1fs  shed=%lld  %s\n",
                      point.jobs_per_hour, point.report.aggregate.latency.p99,
                      static_cast<long long>(point.report.aggregate.shed),
                      point.sustainable ? "sustainable" : "OVERLOAD");
        }
      }
      if (const std::string path = flags.get_string("capacity-out");
          !path.empty()) {
        std::ofstream out(path);
        if (!out) return fail("cannot write " + path);
        serve::write_capacity_json(capacity, curves, out);
        std::printf("capacity report written to %s\n", path.c_str());
      }
      if (const std::string path = flags.get_string("fairness-out");
          !path.empty()) {
        std::vector<alloc::FairnessReport> reports;
        for (const auto& curve : curves) {
          for (const auto& point : curve.points) {
            alloc::FairnessReport labelled = point.fairness;
            char rate[32];
            std::snprintf(rate, sizeof(rate), "@%.6g", point.jobs_per_hour);
            labelled.policy = curve.engine + rate;
            reports.push_back(std::move(labelled));
          }
        }
        std::ofstream out(path);
        if (!out) return fail("cannot write " + path);
        alloc::write_fairness_json(reports, out);
        std::printf("fairness report written to %s\n", path.c_str());
      }
      return 0;
    }

    // Single serving run.
    serve::ArrivalTrace trace;
    const std::string replay_path = flags.get_string("arrivals-csv");
    if (!replay_path.empty()) {
      trace = serve::load_arrivals_csv(replay_path);
    } else {
      trace = serve::generate_arrivals(config.tenants, config.horizon,
                                       config.seed ^ 0xa11a5eedULL);
    }
    if (const std::string path = flags.get_string("arrivals-out");
        !path.empty()) {
      std::ofstream out(path);
      if (!out) return fail("cannot write " + path);
      serve::write_arrivals_csv(trace, out);
    }

    obs::MetricsRegistry registry;
    metrics::TraceLog trace_log;
    obs::DecisionLog decisions;
    alloc::FairnessTracker fairness;
    serve::ServeSession session(config);
    if (!flags.get_string("trace-out").empty()) session.set_trace(&trace_log);
    if (!flags.get_string("decisions-out").empty()) {
      session.set_decisions(&decisions);
    }
    if (!flags.get_string("fairness-out").empty()) {
      session.set_fairness(&fairness);
    }
    const serve::ServeReport report = session.replay(std::move(trace), &registry);
    print_report(report);
    if (const std::size_t alerts = session.burn_alerts().size(); alerts > 0) {
      std::printf("burn-rate alerts fired: %zu (see --alerts-out)\n", alerts);
    }

    if (const std::string path = flags.get_string("report-out"); !path.empty()) {
      std::ofstream out(path);
      if (!out) return fail("cannot write " + path);
      report.write_json(out);
      out << '\n';
      std::printf("serve report written to %s\n", path.c_str());
    }
    if (const std::string path = flags.get_string("metrics-out"); !path.empty()) {
      std::ofstream out(path);
      if (!out) return fail("cannot write " + path);
      registry.write_jsonl(out);
    }
    if (const std::string path = flags.get_string("trace-out"); !path.empty()) {
      std::ofstream out(path);
      if (!out) return fail("cannot write " + path);
      trace_log.write_chrome_trace(out);
      std::printf("chrome trace (%zu events) written to %s\n", trace_log.size(),
                  path.c_str());
    }
    if (const std::string path = flags.get_string("decisions-out");
        !path.empty()) {
      std::ofstream out(path);
      if (!out) return fail("cannot write " + path);
      obs::write_decisions_csv(decisions, out);
      std::printf("decision log (%zu decisions) written to %s\n",
                  decisions.size(), path.c_str());
    }
    if (const std::string path = flags.get_string("fairness-out");
        !path.empty()) {
      std::ofstream out(path);
      if (!out) return fail("cannot write " + path);
      alloc::write_fairness_json(fairness.report(), out);
      std::printf("fairness report (%d samples) written to %s\n",
                  fairness.samples(), path.c_str());
    }
    if (const std::string path = flags.get_string("alerts-out"); !path.empty()) {
      std::ofstream out(path);
      if (!out) return fail("cannot write " + path);
      session.write_burn_alerts_jsonl(out);
    }
    if (const std::string path = flags.get_string("shards-out"); !path.empty()) {
      std::ofstream out(path);
      if (!out || session.runtime() == nullptr) {
        return fail("cannot write " + path);
      }
      mapreduce::write_shard_stats_json(*session.runtime(), out);
      std::printf("shard stats (%d shards) written to %s\n",
                  session.runtime()->shard_count(), path.c_str());
    }
    return report.completed ? 0 : 2;
  } catch (const SmrError& e) {
    return fail(e.what());
  }
}
