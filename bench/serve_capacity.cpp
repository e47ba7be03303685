// Serving capacity: rate-vs-p99 curves and the capacity knee per engine.
//
// The serving-mode analogue of the paper's Fig. 8: instead of a fixed
// 4-job batch, an open-loop Poisson stream of Grep-class jobs arrives at
// a swept aggregate rate, and we measure the steady-state p99 sojourn
// time behind each slot policy.  The knee — the highest rate with p99
// under the bound and no shedding — is the headline capacity number.
// Expected shape: SMapReduce's faster per-job completion (Fig. 8) turns
// into a higher sustainable arrival rate than HadoopV1's static slots.
#include "figures.hpp"
#include "smr/serve/capacity.hpp"

namespace smr::bench {
namespace {

serve::CapacityConfig capacity_config() {
  serve::CapacityConfig config;
  config.base.experiment = paper_config(driver::EngineKind::kSMapReduce);
  config.base.experiment.scheduler = driver::SchedulerKind::kDeadline;

  workload::SyntheticMixConfig shape;
  shape.candidates = {workload::Puma::kGrep};
  shape.min_input = 4 * kGiB;
  shape.max_input = 12 * kGiB;
  shape.reduce_tasks = 30;
  workload::SyntheticMixConfig::SloClass slo;
  slo.base_deadline_s = 600.0;
  slo.per_gib_s = 60.0;
  shape.slo_classes.push_back(slo);

  for (int i = 0; i < 2; ++i) {
    serve::TenantConfig tenant;
    tenant.name = "tenant" + std::to_string(i);
    tenant.jobs_per_hour = 1.0;  // scaled to each grid rate by the sweep
    tenant.shape = shape;
    config.base.tenants.push_back(std::move(tenant));
  }

  config.base.admission.max_in_system = 12;
  config.base.admission.policy = serve::AdmissionPolicy::kShed;
  config.base.horizon = 3600.0;
  config.base.warmup = 600.0;
  config.base.drain_limit = 3600.0;
  config.base.seed = 7;

  config.rates = {30.0, 60.0, 90.0, 120.0, 150.0, 180.0};
  config.p99_bound_s = 1200.0;
  config.max_shed_fraction = 0.0;
  return config;
}

}  // namespace

void serve_capacity() {
  const serve::CapacityConfig config = capacity_config();
  const auto done = run_cells(driver::all_engines(), [&config](driver::EngineKind engine) {
    return serve::sweep_capacity(config, engine);
  });
  FigureTable table("Serving capacity: p99 sojourn (s) by offered rate");
  for (const auto& [engine, curve] : done) {
    for (const auto& point : curve.points) {
      char row[64];
      std::snprintf(row, sizeof(row), "p99 @ %4.0f jobs/h", point.jobs_per_hour);
      table.set(row, curve.engine, point.report.aggregate.latency.p99);
    }
    table.set("knee (jobs/h)", curve.engine, curve.knee_jobs_per_hour);
  }
  table.print();
}

}  // namespace smr::bench
