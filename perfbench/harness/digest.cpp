#include "digest.hpp"

#include <cstdio>

namespace perfbench {

namespace {

void add_run(Digest& digest, const smr::metrics::RunResult& result,
             const smr::mapreduce::Runtime& runtime) {
  digest.add(result.makespan);
  digest.add(result.completed);
  digest.add(static_cast<std::uint64_t>(result.jobs.size()));
  for (const smr::metrics::JobResult& job : result.jobs) {
    digest.add(job.submit_time);
    digest.add(job.finish_time);
    digest.add(job.failed);
  }
  digest.add(result.engine_events);
  const smr::cluster::MaxMinSolver::Stats stats = runtime.solver_stats();
  digest.add(stats.calls);
  digest.add(stats.cache_hits);
  digest.add(stats.cap_fast_hits);
  digest.add(stats.full_solves);
}

void add_tenant(Digest& digest, const smr::serve::TenantReport& tenant) {
  digest.add(tenant.name);
  digest.add(tenant.arrived);
  digest.add(tenant.shed);
  digest.add(tenant.deferred);
  digest.add(tenant.completed);
  digest.add(tenant.failed);
  digest.add(tenant.slo_met);
  digest.add(tenant.with_deadline);
  digest.add(static_cast<std::uint64_t>(tenant.latency.count));
  digest.add(tenant.latency.mean);
  digest.add(tenant.latency.p50);
  digest.add(tenant.latency.p95);
  digest.add(tenant.latency.p99);
  digest.add(tenant.latency.max);
  digest.add(tenant.mean_slowdown);
  digest.add(tenant.goodput_per_hour);
}

}  // namespace

void Digest::add_bytes(const void* data, std::size_t size) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < size; ++i) {
    state_ ^= bytes[i];
    state_ *= 0x100000001b3ULL;
  }
}

std::string Digest::hex() const {
  char text[17];
  std::snprintf(text, sizeof(text), "%016llx",
                static_cast<unsigned long long>(state_));
  return text;
}

std::string digest_run(const smr::metrics::RunResult& result,
                       const smr::mapreduce::Runtime& runtime) {
  Digest digest;
  add_run(digest, result, runtime);
  return digest.hex();
}

std::string digest_serve(const smr::serve::ServeReport& report,
                         const smr::metrics::RunResult& result,
                         const smr::mapreduce::Runtime& runtime) {
  Digest digest;
  add_run(digest, result, runtime);
  digest.add(report.engine);
  digest.add(report.scheduler);
  digest.add(report.admission);
  digest.add(report.offered_jobs_per_hour);
  digest.add(report.makespan);
  digest.add(report.completed);
  digest.add(report.unfinished);
  digest.add(report.utilization);
  add_tenant(digest, report.aggregate);
  for (const smr::serve::TenantReport& tenant : report.tenants) add_tenant(digest, tenant);
  return digest.hex();
}

}  // namespace perfbench
