#include "smr/mapreduce/task.hpp"

#include <algorithm>

namespace smr::mapreduce {

double MapTask::progress() const {
  auto frac = [this] {
    const double total = phase_total();
    return total > 0.0 ? std::clamp(phase_done / total, 0.0, 1.0) : 1.0;
  };
  switch (phase) {
    case MapPhase::kMapping:
      return 0.5 * frac();
    case MapPhase::kCombining:
      return 0.5 + 0.25 * frac();
    case MapPhase::kSpilling:
      return combine_total > 0 ? 0.75 + 0.25 * frac() : 0.5 + 0.5 * frac();
    case MapPhase::kDone:
      return 1.0;
  }
  return 0.0;
}

double ReduceTask::progress() const {
  const double total = static_cast<double>(partition_size);
  auto frac = [&](double done) {
    return total > 0.0 ? std::clamp(done / total, 0.0, 1.0) : 1.0;
  };
  switch (phase) {
    case ReducePhase::kShuffling: return (1.0 / 3.0) * frac(fetched);
    case ReducePhase::kSorting: return 1.0 / 3.0 + (1.0 / 3.0) * frac(phase_done);
    case ReducePhase::kReducing: return 2.0 / 3.0 + (1.0 / 3.0) * frac(phase_done);
    case ReducePhase::kDone: return 1.0;
  }
  return 0.0;
}

}  // namespace smr::mapreduce
