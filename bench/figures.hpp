// Shared infrastructure for smr_figures.
//
// Each figure of the paper (and each ablation) is one function below.  A
// figure lists its cells, runs them — each an independent simulation, or a
// few — concurrently through run_cells(), then fills its FigureTables one
// cell at a time in list order and prints them.  Those tables are the
// output EXPERIMENTS.md quotes; filling them serially keeps every printed
// byte the same at any pool size.
#pragma once

#include <algorithm>
#include <cstdio>
#include <map>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "smr/common/thread_pool.hpp"
#include "smr/driver/experiment.hpp"
#include "smr/workload/puma.hpp"

namespace smr::bench {

/// (row, column) -> value cells, printed as a fixed-width table with rows
/// and columns in first-insertion order.
class FigureTable {
 public:
  explicit FigureTable(std::string title) : title_(std::move(title)) {}

  void set(const std::string& row, const std::string& column, double value) {
    if (cells_.count(row) == 0) rows_.push_back(row);
    if (std::find(columns_.begin(), columns_.end(), column) == columns_.end()) {
      columns_.push_back(column);
    }
    cells_[row][column] = value;
  }

  void print(const char* value_format = "%12.1f") const {
    std::printf("\n=== %s ===\n", title_.c_str());
    std::printf("%-28s", "");
    for (const auto& column : columns_) std::printf("%12s", column.c_str());
    std::printf("\n");
    for (const auto& row : rows_) {
      std::printf("%-28s", row.c_str());
      const auto& row_cells = cells_.at(row);
      for (const auto& column : columns_) {
        const auto it = row_cells.find(column);
        if (it == row_cells.end()) {
          std::printf("%12s", "-");
        } else {
          std::printf(value_format, it->second);
        }
      }
      std::printf("\n");
    }
    std::fflush(stdout);
  }

 private:
  std::string title_;
  std::vector<std::string> rows_;
  std::vector<std::string> columns_;
  std::map<std::string, std::map<std::string, double>> cells_;
};

/// Runs `run(cell)` for every cell concurrently on the default pool and
/// returns (cell, result) pairs in `cells` order.
template <typename Cell, typename Run>
auto run_cells(const std::vector<Cell>& cells, const Run& run) {
  using Result = std::invoke_result_t<const Run&, const Cell&>;
  std::vector<std::pair<Cell, Result>> done;
  done.reserve(cells.size());
  for (const Cell& cell : cells) done.emplace_back(cell, Result{});
  parallel_for(0, done.size(), [&](std::size_t i) { done[i].second = run(done[i].first); });
  return done;
}

/// The paper's standard experiment for `engine` with `trials` averaged
/// trials (2, like the evaluation).
inline driver::ExperimentConfig paper_config(driver::EngineKind engine, int trials = 2) {
  driver::ExperimentConfig config = driver::ExperimentConfig::paper_default(engine);
  config.trials = trials;
  return config;
}

/// Run one single-job experiment and return the averaged job result.
inline metrics::JobResult run_job(const driver::ExperimentConfig& config,
                                  const mapreduce::JobSpec& spec) {
  return driver::run_single_job(config, spec).jobs[0];
}

// The figures, in the order `smr_figures --figure=all` prints them.
void fig1();
void fig3();
void fig4();
void fig5();
void fig6();
void fig7();
void fig8();
void fig9();
void lazy_slots();
void balance_bounds();
void heterogeneous();
void schedulers();
void speculation();
void locality();
void slowstart();
void calibration();
void serve_capacity();

}  // namespace smr::bench
