// perfbench — host-time benchmark of the simulator.
//
//   perfbench --workload=paper_suite --seed=1 --seconds=10 --trace=0
//   perfbench --workload=bigcluster --seed=1 --seconds=10 --trace=1
//   perfbench --selftest
//   perfbench --workload=serve_mix --seed=2 --print-digests
//
// --trace=0 runs the workload with no probes and reports the end-to-end
// metrics.  --trace=1 alternates unprobed and probed iterations and reports
// the per-layer metrics (see NOTES.md).  The number of iterations follows
// from --seconds and the workload's nominal iteration time alone.  Every simulation's output digest
// is checked: against the pinned digests when the seed is pinned, and
// otherwise against the first iteration of the run.  The last line of
// stdout is one JSON object: {"correct", "attempted", "failed", "metrics"}.
#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "probes.hpp"
#include "smr/common/error.hpp"
#include "smr/common/flags.hpp"
#include "smr/obs/self_profile.hpp"
#include "workloads.hpp"

using namespace perfbench;
using smr::obs::Stopwatch;

namespace {

/// Set-ups timed on their own (outside any iteration), so that setup_s is
/// the fastest of more samples than there are iterations: kLeadSetups
/// before the first iteration and kSetupsPerIteration after each.
constexpr std::size_t kLeadSetups = 3;
constexpr std::size_t kSetupsPerIteration = 2;

/// Fewest measured iterations (or traced rounds) of a run.
constexpr std::size_t kMinIterations = 3;

/// Pinned digests: (workload, seed) -> one digest per simulation.
using Pins = std::map<std::pair<std::string, std::uint64_t>, std::vector<std::string>>;

/// Format: `<workload> <seed> <index> <digest>` per line; `#` comments.
Pins load_pins(const std::string& path) {
  Pins pins;
  std::ifstream in(path);
  if (!in) throw smr::SmrError("cannot read pinned digests " + path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string workload;
    std::string digest;
    std::uint64_t seed = 0;
    std::size_t index = 0;
    if (!(fields >> workload >> seed >> index >> digest)) {
      throw smr::SmrError("malformed pinned digest line: " + line);
    }
    std::vector<std::string>& list = pins[{workload, seed}];
    if (list.size() <= index) list.resize(index + 1);
    list[index] = digest;
  }
  return pins;
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

/// Host times are minima over iterations: on a shared host, load from
/// other tenants slows whole stretches of a run by up to ~1.7x, and the
/// fastest iteration is the estimate those stretches disturb least (see
/// NOTES.md).  A slower build still slows every iteration.
double fastest(const std::vector<double>& values) {
  return values.empty() ? 0.0 : *std::min_element(values.begin(), values.end());
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// Checks every simulation's digest against a reference list: the pinned
/// one when given, otherwise the first iteration checked.
class Checker {
 public:
  explicit Checker(const std::vector<std::string>* pinned) {
    if (pinned != nullptr) reference_ = *pinned;
  }

  void check(const Iteration& iteration, const char* label) {
    const bool adopt = reference_.empty();
    for (std::size_t i = 0; i < iteration.sims.size(); ++i) {
      const SimOutcome& sim = iteration.sims[i];
      ++attempted_;
      bool ok = sim.completed;
      if (!adopt) ok = ok && i < reference_.size() && sim.digest == reference_[i];
      if (!ok) {
        ++failed_;
        std::fprintf(stderr, "perfbench: %s simulation %zu failed (digest %s, completed %d)\n",
                     label, i, sim.digest.c_str(), sim.completed ? 1 : 0);
      }
    }
    if (!adopt && iteration.sims.size() != reference_.size()) {
      ++failed_;
      std::fprintf(stderr, "perfbench: %s ran %zu simulations, expected %zu\n", label,
                   iteration.sims.size(), reference_.size());
    }
    if (adopt) {
      for (const SimOutcome& sim : iteration.sims) reference_.push_back(sim.digest);
    }
  }

  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }

 private:
  std::vector<std::string> reference_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void print_result(const Checker& checker, const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("%-32s %18.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64 ", \"failed\": %" PRIu64
              ", \"metrics\": {",
              checker.failed() == 0 ? "true" : "false", checker.attempted(),
              checker.failed());
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i > 0 ? ", " : "",
                metrics[i].name.c_str(), metrics[i].value, metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

void print_meta(const std::string& workload_name, const Workload& workload,
                std::uint64_t seed, int trace, const std::string& commit,
                std::size_t iterations, std::size_t sims, std::size_t setup_samples,
                bool pinned) {
  std::printf(
      "meta {\"workload\": \"%s\", \"seed\": %" PRIu64 ", \"trace\": %d, "
      "\"nproc\": %u, \"pool_threads\": %d, \"shard_count\": %d, "
      "\"build_type\": \"%s\", \"compiler\": \"%s\", \"commit\": \"%s\", "
      "\"iterations\": %zu, \"simulations\": %zu, \"setup_samples\": %zu, "
      "\"pinned_seed\": %s}\n",
      workload_name.c_str(), seed, trace, std::thread::hardware_concurrency(),
      workload.pool_threads(), workload.shard_count(), PERFBENCH_BUILD_TYPE,
      PERFBENCH_COMPILER, commit.c_str(), iterations, sims,
      setup_samples, pinned ? "true" : "false");
}

/// Time `count` set-up-only repetitions; appends to `samples`.
void time_setups(Workload& workload, std::size_t count, std::vector<double>& samples) {
  for (std::size_t rep = 0; rep < count; ++rep) {
    const Stopwatch clock;
    workload.setup(Mode::kPlain, nullptr);
    samples.push_back(clock.seconds());
    workload.teardown();
  }
}

/// The fixed number of iterations, each of `modes` runs, that fits a run
/// of `seconds` at the workload's nominal speed.  It depends on nothing
/// measured, so every run takes its minima over the same sample count.
std::size_t planned_iterations(const Workload& workload, double seconds, std::size_t modes) {
  const double per_round = workload.nominal_iteration_s() * static_cast<double>(modes);
  return std::max(kMinIterations, static_cast<std::size_t>(seconds / per_round));
}

/// Appends one sample per simulation to `per_sim` (grown as needed).
void add_samples(std::vector<std::vector<double>>& per_sim, std::size_t i, double value) {
  if (per_sim.size() <= i) per_sim.resize(i + 1);
  per_sim[i].push_back(value);
}

/// --trace=0: the end-to-end metrics of `iterations` unprobed iterations
/// run back to back.
std::vector<Metric> measure(Workload& workload, std::size_t iterations, Checker& checker,
                            std::size_t& setup_samples) {
  std::vector<double> setup;
  time_setups(workload, kLeadSetups, setup);
  std::vector<double> rest_s;                  // timed section outside the parts below
  std::vector<std::vector<double>> sim_ms;     // per simulation, per iteration
  std::vector<std::vector<double>> export_ms;  // likewise, serve_mix's exports
  for (std::size_t it = 0; it < iterations; ++it) {
    const Iteration iteration = run_iteration(workload, Mode::kPlain, nullptr);
    checker.check(iteration, "plain");
    std::printf("iteration %zu setup_s %.6f wall_s %.6f\n", it, iteration.setup_s,
                iteration.wall_s);
    setup.push_back(iteration.setup_s);
    double parts_s = 0.0;
    for (std::size_t i = 0; i < iteration.sims.size(); ++i) {
      const SimOutcome& sim = iteration.sims[i];
      add_samples(sim_ms, i, sim.host_ms);
      add_samples(export_ms, i, sim.export_ms);
      parts_s += (sim.host_ms + sim.export_ms) / 1e3;
    }
    rest_s.push_back(iteration.wall_s - parts_s);
    time_setups(workload, kSetupsPerIteration, setup);
  }
  setup_samples = setup.size();
  // Each part of the timed section at its fastest over the iterations:
  // every simulation, every export, and the rest (digests).  The shorter
  // the part, the more likely one of its samples fell in a quiet stretch,
  // so wall_s is their sum rather than the fastest whole iteration;
  // simulation percentiles are taken across the simulations.
  std::vector<double> per_sim;
  double wall_s = fastest(rest_s);
  for (std::size_t i = 0; i < sim_ms.size(); ++i) {
    per_sim.push_back(fastest(sim_ms[i]));
    wall_s += (per_sim.back() + fastest(export_ms[i])) / 1e3;
  }
  return {
      {"wall_s", wall_s, "s"},
      {"setup_s", fastest(setup), "s"},
      {"sim_ms_p50", quantile(per_sim, 0.5), "ms"},
      {"sim_ms_p90", quantile(per_sim, 0.9), "ms"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
  };
}

/// Iterations in one traced round: unprobed, probed, and on serve_mix one
/// with the sinks detached.
std::size_t traced_modes(const std::string& name) { return name == "serve_mix" ? 3 : 2; }

/// --trace=1: `rounds` rounds of one unprobed and one probed iteration
/// (plus one with the sinks detached on serve_mix).  Per-layer values are
/// per probed iteration.
std::vector<Metric> measure_layers(const std::string& name, Workload& workload,
                                   std::size_t rounds, Checker& checker) {
  const bool serve = traced_modes(name) == 3;
  Layers layers;
  set_probe_sink(&layers);
  std::vector<double> plain_wall;
  std::vector<double> probed_wall;
  std::vector<double> plain_run;
  std::vector<double> sinks_off_run;
  std::uint64_t probed = 0;
  for (std::size_t round = 0; round < rounds; ++round) {
    const Iteration plain = run_iteration(workload, Mode::kPlain, nullptr);
    checker.check(plain, "plain");
    plain_wall.push_back(plain.wall_s);
    plain_run.push_back(plain.run_s);

    const Iteration traced = run_iteration(workload, Mode::kProbed, &layers);
    checker.check(traced, "probed");
    probed_wall.push_back(traced.wall_s);
    ++probed;

    if (serve) {
      const Iteration bare = run_iteration(workload, Mode::kSinksOff, nullptr);
      checker.check(bare, "sinks-off");
      sinks_off_run.push_back(bare.run_s);
    }
  }
  set_probe_sink(nullptr);

  const auto n = static_cast<double>(probed);
  const auto per = [n](double total_value) { return total_value / n; };
  const auto count = [n](std::uint64_t total_value) {
    return static_cast<double>(total_value) / n;
  };
  const double run_s = layers.run_s - layers.replay_s;
  const double self_s =
      run_s - layers.heartbeat_s - layers.period_s - layers.scheduler_s;
  const double record_s = serve ? fastest(plain_run) - fastest(sinks_off_run) : 0.0;
  return {
      {"workload.build_s", per(layers.workload_build_s), "s"},
      {"mapreduce.construct_s", per(layers.construct_s), "s"},
      {"mapreduce.run_s", per(run_s), "s"},
      {"mapreduce.self_s", per(self_s), "s"},
      {"mapreduce.scheduler_calls", count(layers.scheduler_calls), "count"},
      {"mapreduce.scheduler_s", per(layers.scheduler_s), "s"},
      {"mapreduce.shard_stall_s", per(layers.shard_stall_s), "s"},
      {"mapreduce.shard_entries_peak", static_cast<double>(layers.shard_entries_peak),
       "count"},
      {"sim.events", count(layers.events), "count"},
      {"sim.peak_pending", static_cast<double>(layers.peak_pending), "count"},
      {"sim.events_per_s", count(layers.events) / fastest(plain_run), "1/s"},
      {"alloc.heartbeat_calls", count(layers.heartbeat_calls), "count"},
      {"alloc.heartbeat_s", per(layers.heartbeat_s), "s"},
      {"alloc.period_calls", count(layers.period_calls), "count"},
      {"alloc.period_s", per(layers.period_s), "s"},
      {"cluster.solver_calls", count(layers.solver_calls), "count"},
      {"cluster.full_solves", count(layers.full_solves), "count"},
      {"cluster.cache_hits", count(layers.cache_hits), "count"},
      {"cluster.cap_fast_hits", count(layers.cap_fast_hits), "count"},
      {"cluster.net_solves", static_cast<double>(layers.net_solve_us.size()) / n, "count"},
      {"cluster.net_solve_us_p50", quantile(layers.net_solve_us, 0.5), "us"},
      {"cluster.net_solve_us_p90", quantile(layers.net_solve_us, 0.9), "us"},
      {"cluster.net_flows_p50", quantile(layers.net_flows, 0.5), "count"},
      {"serve.jobs_arrived", per(static_cast<double>(layers.jobs_arrived)), "count"},
      {"serve.jobs_admitted", per(static_cast<double>(layers.jobs_admitted)), "count"},
      {"serve.jobs_shed", per(static_cast<double>(layers.jobs_shed)), "count"},
      {"obs.record_s", record_s, "s"},
      {"obs.export_s", per(layers.export_s), "s"},
      {"obs.trace_events", count(layers.trace_events), "count"},
      {"obs.spans", count(layers.spans), "count"},
      {"obs.export_bytes", count(layers.export_bytes), "bytes"},
      {"trace.overhead_s", fastest(probed_wall) - fastest(plain_wall), "s"},
  };
}

/// The benchmark's own tests: probes are behaviour-neutral on every
/// workload, and a perturbed config is caught by the pinned digests.
int selftest(const Pins& pins, std::uint64_t seed) {
  int failures = 0;
  const auto expect = [&failures](bool ok, const std::string& what) {
    std::printf("%s  %s\n", ok ? "PASS" : "FAIL", what.c_str());
    if (!ok) ++failures;
  };
  Layers layers;
  set_probe_sink(&layers);
  for (const std::string& name : workload_names()) {
    const auto found = pins.find({name, seed});
    if (found == pins.end()) {
      expect(false, name + ": digests pinned for seed " + std::to_string(seed));
      continue;
    }
    std::unique_ptr<Workload> workload = make_workload(name, seed);
    std::vector<Mode> modes = {Mode::kPlain, Mode::kProbed};
    if (name == "serve_mix") modes.push_back(Mode::kSinksOff);
    for (Mode mode : modes) {
      Checker checker(&found->second);
      checker.check(run_iteration(*workload, mode, mode == Mode::kProbed ? &layers : nullptr),
                    name.c_str());
      const char* label = mode == Mode::kPlain    ? "plain"
                          : mode == Mode::kProbed ? "probed"
                                                  : "sinks-off";
      expect(checker.failed() == 0,
             name + " " + label + ": reproduces the pinned digests");
    }
  }
  set_probe_sink(nullptr);

  // A perturbed fluid tick (0.25 -> 0.5 s) must change the digests.
  const auto found = pins.find({"paper_suite", seed});
  if (found != pins.end()) {
    std::unique_ptr<Workload> perturbed = make_workload("paper_suite", seed, 0.5);
    Checker checker(&found->second);
    checker.check(run_iteration(*perturbed, Mode::kPlain, nullptr), "perturbed");
    expect(checker.failed() > 0,
           "paper_suite with tick 0.5: " + std::to_string(checker.failed()) + " of " +
               std::to_string(checker.attempted()) + " digests caught");
  }
  std::printf("%s\n", failures == 0 ? "selftest passed" : "selftest FAILED");
  return failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  smr::FlagSet flags("Host-time benchmark of the SMapReduce simulator.");
  flags.define_string("workload", "", "paper_suite | bigcluster | serve_mix");
  flags.define_int("seed", 1, "workload seed");
  flags.define_double("seconds", 10.0, "intended run time; sets the iteration count");
  flags.define_int("trace", 0, "1 = per-layer (probed) run");
  flags.define_string("pinned", "", "pinned digests file");
  flags.define_string("commit", "unknown", "source revision, recorded in the result");
  flags.define_bool("selftest", false, "run the benchmark's own tests");
  flags.define_bool("print-digests", false,
                    "print one plain iteration's digests in the pinned format");
  flags.define_bool("help", false, "print this help");
  if (!flags.parse(argc, argv)) {
    std::fprintf(stderr, "perfbench: %s\n\n%s", flags.error().c_str(),
                 flags.usage("perfbench").c_str());
    return 1;
  }
  if (flags.get_bool("help")) {
    std::fputs(flags.usage("perfbench").c_str(), stdout);
    return 0;
  }
  try {
    register_probe_policy();
    const auto seed = static_cast<std::uint64_t>(flags.get_int("seed"));
    const Pins pins = flags.get_string("pinned").empty()
                          ? Pins{}
                          : load_pins(flags.get_string("pinned"));
    if (flags.get_bool("selftest")) return selftest(pins, seed);

    const std::string name = flags.get_string("workload");
    std::unique_ptr<Workload> workload = make_workload(name, seed);
    if (!workload) {
      std::fprintf(stderr, "perfbench: unknown workload '%s'\n", name.c_str());
      return 1;
    }
    if (flags.get_bool("print-digests")) {
      const Iteration iteration = run_iteration(*workload, Mode::kPlain, nullptr);
      for (std::size_t i = 0; i < iteration.sims.size(); ++i) {
        std::printf("%s %" PRIu64 " %zu %s\n", name.c_str(), seed, i,
                    iteration.sims[i].digest.c_str());
      }
      return 0;
    }

    const auto found = pins.find({name, seed});
    Checker checker(found != pins.end() ? &found->second : nullptr);
    const int trace = static_cast<int>(flags.get_int("trace"));
    const double seconds = flags.get_double("seconds");
    const std::size_t modes = trace != 0 ? traced_modes(name) : 1;
    const std::size_t rounds = planned_iterations(*workload, seconds, modes);
    const std::size_t iterations = rounds * modes;
    std::size_t setup_samples = 0;
    const std::vector<Metric> metrics =
        trace != 0 ? measure_layers(name, *workload, rounds, checker)
                   : measure(*workload, rounds, checker, setup_samples);
    print_meta(name, *workload, seed, trace, flags.get_string("commit"), iterations,
               checker.attempted(), setup_samples, found != pins.end());
    print_result(checker, metrics);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
