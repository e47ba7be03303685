// smr_sweep — parallel parameter sweeps over the simulator.
//
//   smr_sweep --dimension=map-slots --values=1,2,3,4,6,8 --benchmark=terasort
//   smr_sweep --dimension=input-gib --values=50,100,150,200,250 --csv=fig6.csv
//   smr_sweep --dimension=nodes --values=4,8,16,32 --engines=smapreduce
//
// Every (value, engine) cell runs as an independent deterministic
// simulation; cells execute concurrently on all cores.
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>

#include "smr/common/error.hpp"
#include "smr/common/flags.hpp"
#include "smr/driver/sweep.hpp"
#include "smr/metrics/reporter.hpp"
#include "smr/workload/puma.hpp"

using namespace smr;

namespace {

int fail(const std::string& message) {
  std::fprintf(stderr, "smr_sweep: %s\n", message.c_str());
  return 1;
}

std::vector<double> parse_values(const std::string& text, bool& ok) {
  std::vector<double> values;
  std::stringstream stream(text);
  std::string field;
  ok = true;
  while (std::getline(stream, field, ',')) {
    char* end = nullptr;
    const double value = std::strtod(field.c_str(), &end);
    if (field.empty() || end == nullptr || *end != '\0') {
      ok = false;
      return values;
    }
    values.push_back(value);
  }
  ok = !values.empty();
  return values;
}

}  // namespace

int main(int argc, char** argv) {
  FlagSet flags("Sweep one simulator dimension across all engines, in parallel.");
  flags.define_string("dimension", "map-slots",
                      "map-slots | input-gib | nodes | seed");
  flags.define_string("values", "1,2,3,4,5,6,7,8", "comma-separated sweep values");
  flags.define_string("benchmark", "histogram-ratings", "PUMA benchmark");
  flags.define_int("input-gib", 30, "input size (unless sweeping input-gib)");
  flags.define_string("engines", "all",
                      "comma-separated engines, or 'all'");
  flags.define_string("policies", "",
                      "semicolon list of registry policy specs "
                      "('smapreduce;karma:decay=0.99;...'); replaces "
                      "--engines as the sweep columns");
  flags.define_int("trials", 2, "trials per cell");
  flags.define_int("seed", 1, "base seed (unless sweeping seed)");
  flags.define_string("csv", "", "also write the table to this CSV path");
  flags.define_bool("help", false, "print this help");

  if (!flags.parse(argc, argv)) {
    std::fprintf(stderr, "smr_sweep: %s\n\n%s", flags.error().c_str(),
                 flags.usage("smr_sweep").c_str());
    return 1;
  }
  if (flags.get_bool("help")) {
    std::fputs(flags.usage("smr_sweep").c_str(), stdout);
    return 0;
  }

  driver::SweepConfig config;
  const auto dimension = driver::sweep_dimension_from_name(flags.get_string("dimension"));
  if (!dimension) return fail("unknown dimension '" + flags.get_string("dimension") + "'");
  config.dimension = *dimension;

  bool values_ok = false;
  config.values = parse_values(flags.get_string("values"), values_ok);
  if (!values_ok) return fail("bad --values list '" + flags.get_string("values") + "'");

  const auto bench = workload::puma_from_name(flags.get_string("benchmark"));
  if (!bench) return fail("unknown benchmark '" + flags.get_string("benchmark") + "'");
  try {
    config.spec = workload::make_puma_job(*bench, flags.get_int("input-gib") * kGiB);
  } catch (const SmrError& e) {
    return fail(e.what());
  }

  config.base = driver::ExperimentConfig::paper_default(driver::EngineKind::kHadoopV1);
  config.base.trials = static_cast<int>(flags.get_int("trials"));
  config.base.runtime.seed = static_cast<std::uint64_t>(flags.get_int("seed"));

  if (const std::string policies = flags.get_string("policies");
      !policies.empty()) {
    try {
      config.policies = alloc::parse_policy_list(policies);
    } catch (const SmrError& e) {
      return fail(e.what());
    }
  } else if (const std::string engines = flags.get_string("engines");
             engines != "all") {
    config.engines.clear();
    std::stringstream stream(engines);
    std::string field;
    while (std::getline(stream, field, ',')) {
      const auto engine = driver::engine_from_name(field);
      if (!engine) return fail("unknown engine '" + field + "'");
      config.engines.push_back(*engine);
    }
    if (config.engines.empty()) return fail("empty --engines list");
  }

  driver::SweepResult result;
  try {
    result = driver::run_sweep(config);
  } catch (const SmrError& e) {
    return fail(e.what());
  }

  // Human-readable table: one row per value, one column per allocator.
  const std::size_t columns = config.columns();
  metrics::TextTable table([&] {
    std::vector<std::string> headers{flags.get_string("dimension")};
    for (std::size_t c = 0; c < columns; ++c) {
      headers.push_back(result.cells[c].label);
    }
    return headers;
  }());
  for (std::size_t v = 0; v < config.values.size(); ++v) {
    std::vector<std::string> row{metrics::format_fixed(config.values[v], 0)};
    for (std::size_t e = 0; e < columns; ++e) {
      const auto& cell = result.cells[v * columns + e];
      row.push_back(cell.job.finished()
                        ? metrics::format_fixed(cell.job.total_time()) + "s"
                        : "(unfinished)");
    }
    table.add_row(std::move(row));
  }
  std::printf("%s on %s, total execution time per engine\n\n",
              flags.get_string("benchmark").c_str(),
              flags.get_string("dimension").c_str());
  table.write(std::cout);

  if (const std::string path = flags.get_string("csv"); !path.empty()) {
    std::ofstream out(path);
    if (!out) return fail("cannot write " + path);
    result.write_csv(out);
    std::printf("\nCSV written to %s\n", path.c_str());
  }
  return 0;
}
