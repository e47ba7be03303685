// Figures 8 and 9: mean and last-finished execution time of a multiple
// concurrent job workload: 4 jobs of the same benchmark, each submitted
// 5 s after the previous one; FIFO scheduler on HadoopV1/SMapReduce,
// capacity scheduler on YARN (the defaults).
//
// Expected shape (paper §V-F): for 4 Grep jobs (Fig. 8), SMapReduce's mean
// execution time and last-finish time are both ≈60% of HadoopV1's and ≈70%
// of YARN's — later jobs inherit the already-adapted slot configuration, so
// the whole batch runs near the optimum.  For 4 InvertedIndex jobs (Fig. 9)
// the same holds with a medium-shuffle workload: SMapReduce clearly ahead
// of both HadoopV1 (FIFO) and YARN (capacity scheduler) on both metrics.
#include "figures.hpp"

namespace smr::bench {
namespace {

void multi_job_figure(const char* title, workload::Puma bench_id) {
  const auto done = run_cells(driver::all_engines(), [bench_id](driver::EngineKind engine) {
    std::vector<driver::JobSubmission> submissions;
    for (int i = 0; i < 4; ++i) {
      submissions.push_back({workload::make_puma_job(bench_id, 30 * kGiB), 5.0 * i});
    }
    return driver::run_experiment(paper_config(engine), submissions);
  });
  FigureTable table(title);
  for (const auto& [engine, result] : done) {
    table.set("mean execution time", driver::engine_name(engine),
              result.mean_execution_time());
    table.set("last job finish time", driver::engine_name(engine),
              result.last_finish_time());
  }
  table.print();
}

}  // namespace

void fig8() {
  multi_job_figure("Fig 8: 4 concurrent Grep jobs (s)", workload::Puma::kGrep);
}

void fig9() {
  multi_job_figure("Fig 9: 4 concurrent InvertedIndex jobs (s)",
                   workload::Puma::kInvertedIndex);
}

}  // namespace smr::bench
