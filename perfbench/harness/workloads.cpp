#include "workloads.hpp"

#include <sstream>
#include <utility>

#include "digest.hpp"
#include "smr/alloc/fairness.hpp"
#include "smr/common/error.hpp"
#include "smr/common/thread_pool.hpp"
#include "smr/driver/experiment.hpp"
#include "smr/metrics/trace.hpp"
#include "smr/obs/critical_path.hpp"
#include "smr/obs/decision_log.hpp"
#include "smr/obs/metrics_registry.hpp"
#include "smr/obs/self_profile.hpp"
#include "smr/obs/span_log.hpp"
#include "smr/serve/session.hpp"
#include "smr/workload/puma.hpp"

namespace perfbench {

namespace {

namespace driver = smr::driver;
namespace mr = smr::mapreduce;
using smr::obs::Stopwatch;

/// Build one batch runtime with its jobs submitted.  Plain and probed
/// runtimes both take their policy from the allocator registry; the probed
/// one wraps it (and the scheduler) in the forwarding probes.
std::unique_ptr<mr::Runtime> build_runtime(driver::ExperimentConfig config,
                                           const std::string& policy,
                                           std::uint64_t seed,
                                           const std::vector<driver::JobSubmission>& jobs,
                                           smr::ThreadPool& pool, Layers* layers) {
  config.policy = layers != nullptr ? probe_spec(policy)
                                    : smr::alloc::parse_policy_spec(policy);
  config.runtime.seed = seed;
  std::unique_ptr<mr::AllocationPolicy> allocation = driver::make_policy(config);
  std::unique_ptr<mr::JobScheduler> scheduler = driver::make_scheduler(config);
  if (layers != nullptr) {
    scheduler = std::make_unique<ForwardingScheduler>(std::move(scheduler), *layers);
  }
  const Stopwatch clock;
  auto runtime = std::make_unique<mr::Runtime>(config.runtime, std::move(allocation),
                                               std::move(scheduler));
  runtime->set_thread_pool(&pool);
  for (const driver::JobSubmission& job : jobs) runtime->submit(job.spec, job.submit_at);
  if (layers != nullptr) {
    layers->construct_s += clock.seconds();
    auto* probe = dynamic_cast<ForwardingPolicy*>(&runtime->policy());
    SMR_CHECK(probe != nullptr);
    probe->attach(*runtime);
  }
  return runtime;
}

void run_batch(mr::Runtime& runtime, Iteration& out, Layers* layers) {
  const Stopwatch clock;
  const smr::metrics::RunResult result = runtime.run();
  const double seconds = clock.seconds();
  out.run_s += seconds;
  out.sims.push_back({digest_run(result, runtime), result.completed, seconds * 1e3});
  if (layers != nullptr) {
    layers->run_s += seconds;
    layers->add_runtime(runtime, result.engine_events, runtime.engine().peak_pending());
  }
}

/// The Fig. 3 matrix: every Fig. 3 PUMA benchmark at 30 GiB on the
/// 16-node testbed, under each engine, two trial seeds each.
class PaperSuite final : public Workload {
 public:
  PaperSuite(std::uint64_t seed, double tick) : seed_(seed), tick_(tick) {}

  void setup(Mode /*mode*/, Layers* layers) override {
    for (smr::workload::Puma bench : smr::workload::fig3_benchmarks()) {
      const Stopwatch build;
      const driver::JobSubmission job{smr::workload::make_puma_job(bench, 30 * smr::kGiB),
                                      0.0};
      if (layers != nullptr) layers->workload_build_s += build.seconds();
      for (driver::EngineKind engine : driver::all_engines()) {
        driver::ExperimentConfig config = driver::ExperimentConfig::paper_default(engine);
        if (tick_ > 0.0) config.runtime.tick = tick_;
        for (std::uint64_t trial = 0; trial < 2; ++trial) {
          runtimes_.push_back(build_runtime(config, driver::engine_name(engine),
                                            2 * seed_ + 1 + trial, {job}, pool_, layers));
        }
      }
    }
  }

  void run(Iteration& out, Layers* layers) override {
    for (auto& runtime : runtimes_) run_batch(*runtime, out, layers);
  }

  void teardown() override { runtimes_.clear(); }
  int pool_threads() const override { return 1; }
  int shard_count() const override { return 1; }
  double nominal_iteration_s() const override { return 0.3; }

 private:
  std::uint64_t seed_;
  double tick_;
  smr::ThreadPool pool_{1};
  std::vector<std::unique_ptr<mr::Runtime>> runtimes_;
};

/// Two terasorts, 30 s apart, on the 2000-node testbed under SMapReduce
/// with the sharded tick, run kRuns times on different runtime seeds.  The
/// shards run serially on a 1-thread pool: on a shared host a 4-thread pool
/// waits at every window barrier for whichever vCPU is slowest, which made
/// runs both slower and about twice as spread out (see NOTES.md); the
/// outputs are identical either way.
class BigCluster final : public Workload {
 public:
  static constexpr int kNodes = 2000;
  static constexpr int kShards = 4;
  static constexpr int kRuns = 2;
  static constexpr smr::Bytes kInput = 64 * smr::kGiB;

  BigCluster(std::uint64_t seed, double tick) : seed_(seed), tick_(tick) {}

  void setup(Mode /*mode*/, Layers* layers) override {
    driver::ExperimentConfig config =
        driver::ExperimentConfig::paper_default(driver::EngineKind::kSMapReduce);
    config.runtime.cluster = smr::cluster::ClusterSpec::paper_testbed(kNodes);
    config.runtime.shard_count = kShards;
    if (tick_ > 0.0) config.runtime.tick = tick_;
    std::vector<driver::JobSubmission> jobs;
    const Stopwatch build;
    for (int j = 0; j < 2; ++j) {
      jobs.push_back({smr::workload::make_puma_job(smr::workload::Puma::kTerasort, kInput),
                      30.0 * j});
    }
    if (layers != nullptr) layers->workload_build_s += build.seconds();
    for (std::uint64_t run = 0; run < kRuns; ++run) {
      runtimes_.push_back(
          build_runtime(config, "smapreduce", kRuns * seed_ + 1 + run, jobs, pool_, layers));
    }
  }

  void run(Iteration& out, Layers* layers) override {
    for (auto& runtime : runtimes_) run_batch(*runtime, out, layers);
  }

  void teardown() override { runtimes_.clear(); }
  int pool_threads() const override { return 1; }
  int shard_count() const override { return kShards; }
  double nominal_iteration_s() const override { return 7.5; }

 private:
  std::uint64_t seed_;
  double tick_;
  smr::ThreadPool pool_{1};
  std::vector<std::unique_ptr<mr::Runtime>> runtimes_;
};

/// Open-loop multi-tenant serving: four Poisson tenants, Karma, EDF, shed
/// admission and every observability sink attached, as kSessions sessions
/// of kHorizon each on different session seeds (a day of serving in all).
/// Each session's sinks are exported to memory inside the timed section.
/// Several short sessions rather than one day-long one give the timed
/// section many short parts, each timed on its own (see NOTES.md).
class ServeMix final : public Workload {
 public:
  static constexpr int kSessions = 6;
  static constexpr double kHorizon = 4.0 * 3600.0;

  ServeMix(std::uint64_t seed, double tick) : seed_(seed), tick_(tick) {}

  void setup(Mode mode, Layers* layers) override {
    for (std::uint64_t s = 0; s < kSessions; ++s) {
      smr::serve::ServeConfig config = make_config(mode, kSessions * seed_ + 1 + s);
      heartbeat_period_ = config.experiment.runtime.heartbeat_period;
      Session session;
      const Stopwatch build;
      session.trace = smr::serve::generate_arrivals(config.tenants, config.horizon,
                                                    config.seed ^ kArrivalSeedDomain);
      if (layers != nullptr) layers->workload_build_s += build.seconds();
      // The constructor only validates the config; the Runtime is built
      // inside replay(), in the timed section.
      session.session = std::make_unique<smr::serve::ServeSession>(std::move(config));
      session.session->set_thread_pool(&pool_);
      // The fairness sampler schedules engine events of its own, so it
      // stays attached in every mode to keep the digests comparable.
      session.sinks = std::make_unique<Sinks>();
      session.session->set_fairness(&session.sinks->fairness);
      if (mode != Mode::kSinksOff) {
        session.session->set_trace(&session.sinks->trace);
        session.session->set_spans(&session.sinks->spans);
        session.session->set_decisions(&session.sinks->decisions);
      }
      sessions_.push_back(std::move(session));
    }
    record_ = mode != Mode::kSinksOff;
  }

  void run(Iteration& out, Layers* layers) override {
    for (Session& session : sessions_) run_session(session, out, layers);
  }

  void teardown() override {
    sessions_.clear();
    record_ = false;
  }
  int pool_threads() const override { return 1; }
  int shard_count() const override { return 1; }
  double nominal_iteration_s() const override { return 3.5; }

 private:
  /// ServeSession::run's arrival seed domain, so replay() of the trace
  /// built here serves exactly what run() would have generated.
  static constexpr std::uint64_t kArrivalSeedDomain = 0xa11a5eedULL;

  struct Sinks {
    smr::obs::MetricsRegistry metrics;
    smr::metrics::TraceLog trace;
    smr::obs::SpanLog spans;
    smr::obs::DecisionLog decisions;
    smr::alloc::FairnessTracker fairness;

    /// Serialise every artifact into memory; returns the bytes written.
    std::uint64_t export_all(double heartbeat_period) const {
      std::ostringstream out;
      trace.write_chrome_trace(out, &spans);
      spans.write_jsonl(out);
      metrics.write_jsonl(out);
      smr::obs::write_decisions_csv(decisions, out);
      smr::alloc::write_fairness_json(fairness.report(), out);
      smr::obs::analyze_critical_path(spans, heartbeat_period).write_json(out);
      return static_cast<std::uint64_t>(out.tellp());
    }
  };

  struct Session {
    smr::serve::ArrivalTrace trace;
    std::unique_ptr<Sinks> sinks;
    std::unique_ptr<smr::serve::ServeSession> session;
  };

  void run_session(Session& session, Iteration& out, Layers* layers) const {
    const Stopwatch clock;
    const smr::serve::ServeReport report = session.session->replay(
        std::move(session.trace), record_ ? &session.sinks->metrics : nullptr);
    const double seconds = clock.seconds();
    out.run_s += seconds;

    std::uint64_t export_bytes = 0;
    const Stopwatch export_clock;
    if (record_) export_bytes = session.sinks->export_all(heartbeat_period_);
    const double export_s = export_clock.seconds();

    const mr::Runtime& runtime = *session.session->runtime();
    out.sims.push_back({digest_serve(report, session.session->run_result(), runtime),
                        report.completed, seconds * 1e3, export_s * 1e3});
    if (layers != nullptr) {
      layers->run_s += seconds;
      // Runtime::engine() has no const overload; peak_pending() only reads.
      const std::size_t peak = const_cast<mr::Runtime&>(runtime).engine().peak_pending();
      layers->add_runtime(runtime, session.session->run_result().engine_events, peak);
      if (record_) {
        smr::obs::MetricsRegistry& metrics = session.sinks->metrics;
        layers->jobs_arrived += metrics.counter("serve.jobs_arrived").value();
        layers->jobs_admitted += metrics.counter("serve.jobs_admitted").value();
        layers->jobs_shed += metrics.counter("serve.jobs_shed").value();
        layers->export_s += export_s;
        layers->trace_events += session.sinks->trace.size();
        layers->spans += session.sinks->spans.size();
        layers->export_bytes += export_bytes;
      }
    }
  }

  smr::serve::ServeConfig make_config(Mode mode, std::uint64_t session_seed) const {
    smr::serve::ServeConfig config;
    config.experiment = driver::ExperimentConfig::paper_default(driver::EngineKind::kSMapReduce);
    config.experiment.policy = mode == Mode::kProbed ? probe_spec("karma")
                                                     : smr::alloc::parse_policy_spec("karma");
    config.experiment.scheduler = driver::SchedulerKind::kDeadline;
    if (tick_ > 0.0) config.experiment.runtime.tick = tick_;
    config.horizon = kHorizon;
    config.seed = session_seed;
    config.admission.policy = smr::serve::AdmissionPolicy::kShed;
    config.admission.max_in_system = 12;

    smr::workload::SyntheticMixConfig shape;
    shape.min_input = 5 * smr::kGiB;
    shape.max_input = 20 * smr::kGiB;
    shape.reduce_tasks = smr::workload::recommended_reduce_tasks(
        config.experiment.runtime.cluster.worker_count(),
        config.experiment.runtime.initial_reduce_slots);
    shape.slo_classes.push_back({});
    for (int i = 0; i < 4; ++i) {
      smr::serve::TenantConfig tenant;
      tenant.name = "tenant" + std::to_string(i);
      tenant.jobs_per_hour = 60.0 / 4;
      tenant.shape = shape;
      config.tenants.push_back(std::move(tenant));
    }
    return config;
  }

  std::uint64_t seed_;
  double tick_;
  double heartbeat_period_ = 0.0;
  smr::ThreadPool pool_{1};
  std::vector<Session> sessions_;
  /// False in kSinksOff: the trace, span and decision logs stay detached,
  /// each session records metrics into its own registry, and nothing is
  /// exported.
  bool record_ = false;
};

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"paper_suite", "bigcluster", "serve_mix"};
  return names;
}

std::unique_ptr<Workload> make_workload(const std::string& name, std::uint64_t seed,
                                        double tick) {
  if (name == "paper_suite") return std::make_unique<PaperSuite>(seed, tick);
  if (name == "bigcluster") return std::make_unique<BigCluster>(seed, tick);
  if (name == "serve_mix") return std::make_unique<ServeMix>(seed, tick);
  return nullptr;
}

Iteration run_iteration(Workload& workload, Mode mode, Layers* layers) {
  Iteration iteration;
  const Stopwatch setup;
  workload.setup(mode, layers);
  iteration.setup_s = setup.seconds();
  const Stopwatch timed;
  workload.run(iteration, layers);
  iteration.wall_s = timed.seconds();
  workload.teardown();
  return iteration;
}

}  // namespace perfbench
