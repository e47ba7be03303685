// The benchmark's three workloads, each a closed loop of simulations run
// back to back through the simulator's public API.  One iteration is a
// set-up (inputs, policies, runtimes: everything before the first
// simulated event) followed by a timed section (the simulations, plus the
// in-memory export of the observability sinks on serve_mix).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "probes.hpp"

namespace perfbench {

/// How an iteration is built.  kPlain is the measured configuration;
/// kProbed wraps the policy and scheduler in the forwarding probes and
/// fills a Layers; kSinksOff (serve_mix only) detaches every
/// observability sink.
enum class Mode { kPlain, kProbed, kSinksOff };

struct SimOutcome {
  std::string digest;
  bool completed = false;
  /// Host ms of the simulation itself.
  double host_ms = 0.0;
  /// Host ms of the timed work that belongs to this simulation after it
  /// ends: the in-memory export of its sinks on serve_mix, else 0.
  double export_ms = 0.0;
};

struct Iteration {
  double setup_s = 0.0;
  double wall_s = 0.0;
  /// Host seconds inside Runtime::run / ServeSession::replay.
  double run_s = 0.0;
  std::vector<SimOutcome> sims;
};

class Workload {
 public:
  virtual ~Workload() = default;
  Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;

  /// Build everything the timed section needs.  `layers` is non-null
  /// exactly when mode == kProbed.
  virtual void setup(Mode mode, Layers* layers) = 0;
  /// Run the simulations built by setup(); appends one SimOutcome each.
  virtual void run(Iteration& out, Layers* layers) = 0;
  /// Release what setup() built (outside the timed section).
  virtual void teardown() = 0;

  virtual int pool_threads() const = 0;
  virtual int shard_count() const = 0;
  /// Rough host seconds of one iteration (set-up included).  It only sizes
  /// the fixed number of iterations a run of a given length makes, so
  /// that every run takes the fastest over the same number of samples.
  virtual double nominal_iteration_s() const = 0;
};

/// Workload names, in BENCHMARK.json order.
const std::vector<std::string>& workload_names();

/// nullptr for an unknown name.  `tick` overrides the fluid tick of every
/// runtime (0 keeps the default); only the self-test perturbs it.
std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed, double tick = 0.0);

/// One full iteration: set-up, timed section, tear-down.
Iteration run_iteration(Workload& workload, Mode mode, Layers* layers);

}  // namespace perfbench
