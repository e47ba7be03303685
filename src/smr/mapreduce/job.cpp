#include "smr/mapreduce/job.hpp"

namespace smr::mapreduce {

namespace {
template <class Task>
double mean_progress(const std::vector<Task>& tasks, const Job::TaskWindow& window) {
  if (tasks.empty()) return 1.0;
  double sum = static_cast<double>(window.done);
  for (int i = window.done; i < window.hi; ++i) {
    sum += tasks[static_cast<std::size_t>(i)].progress();
  }
  return sum / static_cast<double>(tasks.size());
}
}  // namespace

double Job::map_progress() const { return mean_progress(maps, map_window); }

double Job::reduce_progress() const { return mean_progress(reduces, reduce_window); }

}  // namespace smr::mapreduce
