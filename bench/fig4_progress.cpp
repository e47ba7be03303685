// Figure 4: progress percentage over time of the HistogramMovies benchmark
// (map progress + reduce progress, 0-200%).
//
// Expected shape: all three systems start at the same speed; SMapReduce's
// curve bends upward as the slot manager approaches the optimal
// configuration; HadoopV1 and YARN progress at a constant slope; every
// curve has a sharp turn slightly above the 100% mark when the map tasks
// finish.
#include "figures.hpp"

namespace smr::bench {

void fig4() {
  const auto done = run_cells(driver::all_engines(), [](driver::EngineKind engine) {
    return driver::run_experiment(
        paper_config(engine, /*trials=*/1),
        {{workload::make_puma_job(workload::Puma::kHistogramMovies, 30 * kGiB), 0.0}});
  });
  FigureTable table("Fig 4: total progress (%) of HistogramMovies over time (s)");
  for (const auto& [engine, result] : done) {
    // Sample the curve on a fixed grid so the three systems share rows.
    const auto& series = result.progress[0];
    const double grid = 25.0;
    std::size_t i = 0;
    for (double t = 0.0; t <= result.jobs[0].finish_time + grid; t += grid) {
      while (i + 1 < series.size() && series[i + 1].time <= t) ++i;
      const double pct = series.empty()
                             ? 0.0
                             : (t >= result.jobs[0].finish_time
                                    ? 200.0
                                    : series[std::min(i, series.size() - 1)].total_pct());
      char row[32];
      std::snprintf(row, sizeof(row), "t=%6.0fs", t);
      table.set(row, driver::engine_name(engine), pct);
    }
  }
  table.print();
}

}  // namespace smr::bench
