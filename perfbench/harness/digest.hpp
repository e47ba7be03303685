// Output digests: a 64-bit FNV-1a hash over everything a simulation
// decides (makespan, completion, every job's submit and finish times,
// engine events, solver counters, and for serving runs the report).  Any
// change to the simulated outcome changes the digest; host timing never
// enters it.
#pragma once

#include <cstdint>
#include <cstring>
#include <string>

#include "smr/mapreduce/runtime.hpp"
#include "smr/metrics/job_metrics.hpp"
#include "smr/serve/slo.hpp"

namespace perfbench {

class Digest {
 public:
  void add_bytes(const void* data, std::size_t size);
  void add(std::uint64_t value) { add_bytes(&value, sizeof(value)); }
  void add(std::int64_t value) { add_bytes(&value, sizeof(value)); }
  void add(bool value) { add(static_cast<std::uint64_t>(value)); }
  void add(double value) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &value, sizeof(bits));
    add(bits);
  }
  void add(const std::string& value) {
    add(static_cast<std::uint64_t>(value.size()));
    add_bytes(value.data(), value.size());
  }
  /// 16 lowercase hex digits.
  std::string hex() const;

 private:
  std::uint64_t state_ = 0xcbf29ce484222325ULL;
};

/// Digest of one batch simulation run to completion on `runtime`.
std::string digest_run(const smr::metrics::RunResult& result,
                       const smr::mapreduce::Runtime& runtime);

/// Digest of one serving run: the runtime's result plus the serve report.
std::string digest_serve(const smr::serve::ServeReport& report,
                         const smr::metrics::RunResult& result,
                         const smr::mapreduce::Runtime& runtime);

}  // namespace perfbench
