#include "smr/mapreduce/runtime.hpp"

#include <algorithm>
#include <cmath>

#include "smr/common/log.hpp"
#include "smr/obs/decision_log.hpp"

namespace smr::mapreduce {

namespace {
constexpr double kByteEps = 1.0;  // one byte of slack on fluid comparisons

// Min-heap comparator for the pending-job heap: "later" on (submit_time,
// index), so the earliest submission (ties by id) sits at the front.
bool pending_later(const std::pair<SimTime, std::size_t>& a,
                   const std::pair<SimTime, std::size_t>& b) {
  return a.first > b.first || (a.first == b.first && a.second > b.second);
}
}  // namespace

void RuntimeConfig::validate() const {
  cluster.validate();
  SMR_CHECK(initial_map_slots >= 0 && initial_reduce_slots >= 0);
  SMR_CHECK(initial_map_slots + initial_reduce_slots >= 1);
  SMR_CHECK(tick > 0.0);
  SMR_CHECK(shard_count >= 1);
  SMR_CHECK(heartbeat_period > 0.0 && policy_period > 0.0 && sample_period > 0.0);
  SMR_CHECK(reduce_slowstart >= 0.0 && reduce_slowstart <= 1.0);
  SMR_CHECK(shuffle_disk_share > 0.0 && shuffle_disk_share <= 1.0);
  SMR_CHECK(parallel_copies >= 1);
  SMR_CHECK(time_limit > 0.0);
  SMR_CHECK(locality_wait_offers >= 0);
  for (const auto& failure : failures) {
    SMR_CHECK_MSG(failure.node >= 0 && failure.node < cluster.worker_count(),
                  "failure on unknown node " << failure.node);
    SMR_CHECK(failure.at >= 0.0);
    SMR_CHECK_MSG(failure.recover_at == kTimeNever || failure.recover_at > failure.at,
                  "node " << failure.node << " recovery at " << failure.recover_at
                          << " precedes its failure at " << failure.at);
  }
  SMR_CHECK(task_fail_rate >= 0.0 && task_fail_rate <= 1.0);
  SMR_CHECK(max_attempts >= 1);
  SMR_CHECK(blacklist_after >= 0);
}

Runtime::Runtime(RuntimeConfig config, std::unique_ptr<AllocationPolicy> policy,
                 std::unique_ptr<JobScheduler> scheduler)
    : config_(std::move(config)),
      policy_(std::move(policy)),
      scheduler_(scheduler ? std::move(scheduler)
                           : std::make_unique<FifoScheduler>()),
      dfs_(config_.cluster.worker_count(), config_.cluster.dfs_replication,
           Rng(config_.seed ^ 0x9e3779b97f4a7c15ULL)),
      network_(config_.cluster),
      rng_(config_.seed),
      // Independent stream for attempt-failure draws: task_fail_rate == 0
      // must reproduce fault-free runs bit-for-bit, so injection never
      // advances (or forks) rng_.
      fault_rng_(config_.seed ^ 0xfa011a7e5eedULL) {
  config_.validate();
  SMR_CHECK(policy_ != nullptr);
  trackers_.reserve(static_cast<std::size_t>(config_.cluster.worker_count()));
  for (NodeId n = 0; n < config_.cluster.worker_count(); ++n) {
    trackers_.emplace_back(n, config_.initial_map_slots, config_.initial_reduce_slots);
  }
  node_alive_.assign(static_cast<std::size_t>(config_.cluster.worker_count()), true);
  node_map_input_.assign(node_alive_.size(), 0.0);
  node_map_output_.assign(node_alive_.size(), 0.0);
  node_shuffled_in_.assign(node_alive_.size(), 0.0);
  node_attempt_failures_.assign(node_alive_.size(), 0);
  heartbeat_events_.assign(node_alive_.size(), sim::kInvalidEvent);
  node_models_.resize(node_alive_.size());
  node_dirty_.assign(node_alive_.size(), 1);
  node_solve_version_.assign(node_alive_.size(), 0);
  node_bg_prev_.assign(node_alive_.size(), cluster::BackgroundLoad{});
  node_rates_cache_.resize(node_alive_.size());
  setup_shards();
}

cluster::MaxMinSolver::Stats Runtime::solver_stats() const {
  cluster::MaxMinSolver::Stats total = network_.solver_stats();
  for (const auto& model : node_models_) {
    const auto& s = model.solver_stats();
    total.calls += s.calls;
    total.cache_hits += s.cache_hits;
    total.cap_fast_hits += s.cap_fast_hits;
    total.full_solves += s.full_solves;
  }
  return total;
}

JobId Runtime::submit(const JobSpec& spec, SimTime at) {
  if (ran_) {
    // The serving path: submission into a running simulation.  Only a
    // runtime held open can still be fed (a closed batch run may already
    // have torn its periodic machinery down), and only from the engine's
    // present onwards.
    SMR_CHECK_MSG(open_, "submit() after run() on a runtime not kept open");
    SMR_CHECK_MSG(!stopping_, "submit() on a stopped runtime");
    SMR_CHECK(at >= engine_.now());
  } else {
    SMR_CHECK(at >= 0.0);
  }
  spec.validate();

  Job job;
  job.id = static_cast<JobId>(jobs_.size());
  job.spec = spec;
  job.submit_time = at;
  job.deadline =
      spec.relative_deadline == kTimeNever ? kTimeNever : at + spec.relative_deadline;
  job.input_file = dfs_.add_file(spec.input_size, spec.split_size);

  Rng task_rng = rng_.fork();
  const auto& file = dfs_.file(job.input_file);
  job.maps.reserve(file.blocks.size());
  for (std::size_t b = 0; b < file.blocks.size(); ++b) {
    MapTask task;
    task.id = next_task_id_++;
    task.job = job.id;
    task.split_index = static_cast<int>(b);
    task.input_size = file.blocks[b].size;
    task.cost_factor = task_rng.jitter(spec.duration_cv);
    task.output_size = static_cast<Bytes>(
        std::llround(static_cast<double>(task.input_size) * spec.map_selectivity));
    if (spec.has_combiner) {
      task.combine_total = static_cast<Bytes>(std::llround(
          static_cast<double>(task.output_size) / spec.combiner_reduction));
    }
    set_task_ref(task.id, TaskRef{job.id, static_cast<int>(b), true});
    job.maps.push_back(task);
  }
  // Map output is partitioned uniformly over the reduce tasks (Section
  // IV-A3's estimation assumption); partition sizes derive from the actual
  // per-task outputs so bytes are conserved exactly.
  Bytes total_output = 0;
  for (const auto& m : job.maps) total_output += m.output_size;
  job.reduces.reserve(static_cast<std::size_t>(spec.reduce_tasks));
  for (int r = 0; r < spec.reduce_tasks; ++r) {
    ReduceTask task;
    task.id = next_task_id_++;
    task.job = job.id;
    task.partition = r;
    // Distribute the remainder over the first partitions.
    const Bytes base = total_output / spec.reduce_tasks;
    const Bytes extra = (r < static_cast<int>(total_output % spec.reduce_tasks)) ? 1 : 0;
    task.partition_size = base + extra;
    task.cost_factor = task_rng.jitter(spec.duration_cv);
    set_task_ref(task.id, TaskRef{job.id, r, false});
    job.reduces.push_back(task);
  }

  jobs_.push_back(std::move(job));
  ++storage_generation_;
  ++unfinished_jobs_;
  ++jobs_not_yet_submitted_;
  pending_jobs_.emplace_back(at, jobs_.size() - 1);
  std::push_heap(pending_jobs_.begin(), pending_jobs_.end(), pending_later);
  if (ran_) {
    // run() has already sized the progress table and scheduled the batch's
    // arrival events; do both for this late job now.
    result_.progress.emplace_back();
    const JobId id = jobs_.back().id;
    engine_.schedule_at(at, [this, id] {
      --jobs_not_yet_submitted_;
      trace_event(metrics::TraceEventKind::kJobSubmitted, id, kInvalidTask,
                  kInvalidNode, true);
    });
  }
  return jobs_.back().id;
}

metrics::RunResult Runtime::run() {
  SMR_CHECK_MSG(!ran_, "run() called twice");
  ran_ = true;
  // An open (serving) runtime may start empty: arrivals stream in later.
  SMR_CHECK_MSG(!jobs_.empty() || open_, "no jobs submitted");

  policy_->on_start(trackers());
  // Seed the slot-target counter tracks at their initial values so the
  // trace timeline starts at t = 0 rather than the first change.
  if (trace_ != nullptr) {
    trace_event(metrics::TraceEventKind::kSlotTargetChanged, kInvalidJob,
                kInvalidTask, kInvalidNode, true, "map",
                static_cast<double>(total_map_target()));
    trace_event(metrics::TraceEventKind::kSlotTargetChanged, kInvalidJob,
                kInvalidTask, kInvalidNode, false, "reduce",
                static_cast<double>(total_reduce_target()));
  }

  periodic_events_.push_back(
      engine_.schedule_periodic(config_.tick, config_.tick, [this] { on_tick(); }));
  // Heartbeats live outside periodic_events_ so a node failure can cancel
  // just its tracker's event (and a recovery re-schedule it).
  for (std::size_t i = 0; i < trackers_.size(); ++i) {
    const SimTime offset = config_.heartbeat_period * static_cast<double>(i + 1) /
                           static_cast<double>(trackers_.size());
    heartbeat_events_[i] = engine_.schedule_periodic(
        offset, config_.heartbeat_period, [this, i] { on_heartbeat(i); });
  }
  periodic_events_.push_back(engine_.schedule_periodic(
      config_.policy_period, config_.policy_period, [this] { on_policy_period(); }));
  periodic_events_.push_back(engine_.schedule_periodic(
      config_.sample_period, config_.sample_period, [this] { on_sample(); }));

  // Job arrivals only need an event so that a heartbeat is forced promptly;
  // assignment itself filters on submit_time.
  for (const auto& job : jobs_) {
    const JobId id = job.id;
    engine_.schedule_at(job.submit_time, [this, id] {
      --jobs_not_yet_submitted_;
      trace_event(metrics::TraceEventKind::kJobSubmitted, id, kInvalidTask,
                  kInvalidNode, true);
    });
  }

  for (const auto& failure : config_.failures) {
    const NodeId node = failure.node;
    engine_.schedule_at(failure.at, [this, node] { fail_node(node); });
    if (failure.recover_at != kTimeNever) {
      // Count the scheduled recovery up front: an all-nodes-dead cluster
      // must wait for it instead of aborting the run.
      ++pending_recoveries_;
      engine_.schedule_at(failure.recover_at,
                          [this, node] { recover_node(node); });
    }
  }

  result_.progress.assign(jobs_.size(), {});
  engine_.run(config_.time_limit);

  result_.jobs.clear();
  result_.jobs.reserve(jobs_.size());
  for (const auto& job : jobs_) {
    metrics::JobResult jr;
    jr.id = job.id;
    jr.name = job.spec.name;
    jr.input_size = job.spec.input_size;
    jr.shuffle_volume = job.spec.map_output_total();
    jr.submit_time = job.submit_time;
    jr.start_time = job.start_time;
    jr.maps_done_time = job.maps_done_time;
    jr.finish_time = job.finish_time;
    jr.deadline = job.deadline;
    jr.failed = job.failed;
    result_.jobs.push_back(jr);
  }
  result_.completed = unfinished_jobs_ == 0 && !aborted_ && failed_jobs_ == 0;
  if (aborted_) {
    result_.failure_reason = run_failure_reason_;
  } else if (failed_jobs_ > 0) {
    for (const auto& job : jobs_) {
      if (!job.failed) continue;
      result_.failure_reason =
          "job " + job.spec.name + " failed: " + job.failure_reason;
      break;
    }
  } else if (!result_.completed) {
    result_.failure_reason = "time limit reached";
  }
  if (aborted_) {
    // The run was cut short; the makespan is when it stopped making
    // progress, not the far-away time limit the engine ran out to.
    result_.makespan = abort_time_;
  } else if (unfinished_jobs_ == 0) {
    // The clock sits at the run limit after engine_.run(); the makespan is
    // when the last job actually finished (teardown time for failed jobs).
    result_.makespan = 0.0;
    for (const auto& job : result_.jobs) {
      result_.makespan = std::max(result_.makespan, job.finish_time);
    }
  } else {
    result_.makespan = config_.time_limit;
  }
  if (spans_ != nullptr && run_span_ != obs::kInvalidSpan) {
    // Close whatever the run left open: the run root always, plus phases
    // and attempts when the time limit truncated it (abort_run already
    // flushed its own spans at the abort instant).
    spans_->close_open(result_.makespan, result_.completed
                                             ? obs::SpanOutcome::kOk
                                             : obs::SpanOutcome::kAborted);
  }
  result_.engine_events = engine_.dispatched();
  const cluster::MaxMinSolver::Stats solver = solver_stats();
  result_.solver_calls = solver.calls;
  result_.solver_full_solves = solver.full_solves;
  return result_;
}

ClusterStats Runtime::snapshot() const {
  ClusterStats stats;
  snapshot_into(stats);
  return stats;
}

std::span<const std::size_t> Runtime::active_jobs_now(SimTime now) const {
  // Drain every pending job whose submit time has been reached into the
  // id-sorted active list.  Draining at read time (rather than from the
  // arrival events) keeps the set identical to the historic filter even
  // when a reader fires at the same instant as, but before, the arrival
  // event.  Each job is drained exactly once, so the lazy inserts are
  // amortised O(log n + shift) over the whole run.
  while (!pending_jobs_.empty() && pending_jobs_.front().first <= now) {
    std::pop_heap(pending_jobs_.begin(), pending_jobs_.end(), pending_later);
    const std::size_t idx = pending_jobs_.back().second;
    pending_jobs_.pop_back();
    // A job can leave the system (teardown on failure) at the very instant
    // it was due; never resurrect it into the active set.
    if (jobs_[idx].finished()) continue;
    active_job_ids_.insert(
        std::lower_bound(active_job_ids_.begin(), active_job_ids_.end(), idx),
        idx);
  }
  return active_job_ids_;
}

void Runtime::deactivate_job(JobId id) {
  const auto idx = static_cast<std::size_t>(id);
  const auto it =
      std::lower_bound(active_job_ids_.begin(), active_job_ids_.end(), idx);
  if (it != active_job_ids_.end() && *it == idx) active_job_ids_.erase(it);
}

void Runtime::snapshot_into(ClusterStats& stats) const {
  // Reset to defaults while keeping the vectors' capacity: the heartbeat
  // path reuses one scratch instance instead of reallocating per beat.
  auto active_jobs = std::move(stats.active_jobs);
  auto per_node = std::move(stats.per_node);
  auto job_stats = std::move(stats.job_stats);
  active_jobs.clear();
  per_node.clear();
  job_stats.clear();
  stats = ClusterStats{};
  stats.active_jobs = std::move(active_jobs);
  stats.per_node = std::move(per_node);
  stats.job_stats = std::move(job_stats);
  stats.now = engine_.now();
  stats.nodes = config_.cluster.worker_count();
  stats.cum_map_input = cum_map_input_;
  stats.cum_map_output = cum_map_output_;
  stats.cum_shuffled = cum_shuffled_;

  const bool want_jobs = policy_->wants_job_stats();
  const Job* front = nullptr;
  for (const std::size_t j : active_jobs_now(stats.now)) {
    const Job& job = jobs_[j];
    if (front == nullptr) front = &job;
    stats.has_active_job = true;
    stats.active_jobs.push_back(job.id);
    stats.pending_maps += job.maps_pending();
    stats.finished_maps += job.maps_finished;
    stats.total_maps += static_cast<int>(job.maps.size());
    stats.running_maps +=
        job.maps_assigned - job.maps_finished;
    stats.pending_reduces += job.reduces_pending();
    stats.total_reduces += static_cast<int>(job.reduces.size());
    stats.running_reduces += job.reduces_assigned - job.reduces_finished;
    if (want_jobs) {
      JobStats js;
      js.job = job.id;
      js.tenant = job.spec.tenant;
      js.submit_time = job.submit_time;
      js.deadline = job.deadline;
      js.pending_maps = job.maps_pending();
      js.running_maps = job.maps_assigned - job.maps_finished;
      js.pending_reduces = job.reduces_pending();
      js.running_reduces = job.reduces_assigned - job.reduces_finished;
      stats.job_stats.push_back(std::move(js));
    }
  }
  if (front != nullptr) {
    stats.front_job_map_fraction = front->map_completion_fraction();
    stats.front_job_shuffle_volume = front->spec.map_output_total();
  }
  stats.per_node.reserve(trackers_.size());
  for (std::size_t n = 0; n < trackers_.size(); ++n) {
    NodeStats node;
    node.node = static_cast<NodeId>(n);
    node.alive = node_alive_[n];
    node.blacklisted = trackers_[n].blacklisted();
    node.running_maps = trackers_[n].running_maps();
    node.running_reduces = trackers_[n].running_reduces();
    node.cum_map_input = node_map_input_[n];
    node.cum_map_output = node_map_output_[n];
    node.cum_shuffled_in = node_shuffled_in_[n];
    stats.per_node.push_back(node);
  }
  if (policy_->wants_placement_stats()) {
    // Pending-split placement: input bytes of unassigned map tasks credited
    // to every node holding a replica of their split.  One pass over the
    // pending maps, so the cost scales with outstanding work, not nodes ×
    // tasks; only locality-driven policies (wants_placement_stats) pay it.
    for (const std::size_t j : active_jobs_now(stats.now)) {
      const Job& job = jobs_[j];
      if (job.maps_pending() == 0) continue;
      const auto& file = dfs_.file(job.input_file);
      const double split = static_cast<double>(job.spec.split_size);
      for (const auto& task : job.maps) {
        if (task.node != kInvalidNode) continue;
        const auto& block =
            file.blocks[static_cast<std::size_t>(task.split_index)];
        for (const NodeId replica : block.replicas) {
          stats.per_node[static_cast<std::size_t>(replica)]
              .local_pending_input += split;
        }
      }
    }
  }
}

MapTask& Runtime::map_task(TaskId id) {
  const TaskRef* ref = find_task_ref(id);
  SMR_CHECK_MSG(ref != nullptr && ref->is_map, "unknown map task " << id);
  if (ref->speculative) {
    SMR_CHECK_MSG(ref->shadow_slot >= 0, "dangling shadow " << id);
    return map_shadow_pool_[static_cast<std::size_t>(ref->shadow_slot)];
  }
  return job_of(ref->job).maps[static_cast<std::size_t>(ref->index)];
}

ReduceTask& Runtime::reduce_task(TaskId id) {
  const TaskRef* ref = find_task_ref(id);
  SMR_CHECK_MSG(ref != nullptr && !ref->is_map, "unknown reduce task " << id);
  if (ref->speculative) {
    SMR_CHECK_MSG(ref->shadow_slot >= 0, "dangling reduce shadow " << id);
    return reduce_shadow_pool_[static_cast<std::size_t>(ref->shadow_slot)];
  }
  return job_of(ref->job).reduces[static_cast<std::size_t>(ref->index)];
}

// --- Shadow-pool slot management -------------------------------------------

void Runtime::set_shadow_link(TaskId primary, TaskId shadow) {
  if (static_cast<std::size_t>(primary) >= shadow_link_.size()) {
    shadow_link_.resize(static_cast<std::size_t>(primary) + 1, kInvalidTask);
  }
  shadow_link_[static_cast<std::size_t>(primary)] = shadow;
}

std::int32_t Runtime::acquire_map_shadow_slot() {
  if (!map_shadow_free_.empty()) {
    const std::int32_t slot = map_shadow_free_.back();
    map_shadow_free_.pop_back();
    return slot;
  }
  map_shadow_pool_.emplace_back();
  ++storage_generation_;
  return static_cast<std::int32_t>(map_shadow_pool_.size() - 1);
}

void Runtime::release_map_shadow_slot(std::int32_t slot) {
  map_shadow_pool_[static_cast<std::size_t>(slot)].id = kInvalidTask;
  map_shadow_free_.push_back(slot);
}

std::int32_t Runtime::acquire_reduce_shadow_slot() {
  if (!reduce_shadow_free_.empty()) {
    const std::int32_t slot = reduce_shadow_free_.back();
    reduce_shadow_free_.pop_back();
    return slot;
  }
  reduce_shadow_pool_.emplace_back();
  ++storage_generation_;
  return static_cast<std::int32_t>(reduce_shadow_pool_.size() - 1);
}

void Runtime::release_reduce_shadow_slot(std::int32_t slot) {
  reduce_shadow_pool_[static_cast<std::size_t>(slot)].id = kInvalidTask;
  reduce_shadow_free_.push_back(slot);
}

// The fluid tick (on_tick) and its per-shard stages live in runtime_shard.cpp.

void Runtime::complete_map(Job& job, MapTask& task, TaskId attempt_id) {
  SMR_CHECK(task.phase != MapPhase::kDone);
  // A surviving shadow loses the race the moment the primary completes.
  if (has_shadow(task.id)) kill_shadow(task);
  task.phase = MapPhase::kDone;
  task.finish_time = engine_.now();
  if (metrics_ != nullptr) {
    metrics_->histogram("task.map_duration_s", obs::kDurationBounds)
        .observe(task.finish_time - task.start_time);
  }
  trace_event(metrics::TraceEventKind::kTaskFinished, job.id, task.id,
              task.node, true);
  span_attempt_ended(attempt_id, obs::SpanOutcome::kOk);
  trackers_[static_cast<std::size_t>(task.node)].finish_map(attempt_id);
  ++job.maps_finished;
  if (spans_ != nullptr && !job.maps.empty() &&
      job.map_completion_fraction() >= config_.reduce_slowstart) {
    span_reduce_eligible(job);
  }
  job.map_output_produced += static_cast<double>(task.output_size);
  cum_map_output_ += static_cast<double>(task.output_size);
  node_map_output_[static_cast<std::size_t>(task.node)] +=
      static_cast<double>(task.output_size);

  // Feed this map's output into every reduce partition of the job.  Uniform
  // partitioning; the last reduce absorbs rounding so bytes are conserved.
  if (!job.reduces.empty() && task.output_size > 0) {
    const double share = static_cast<double>(task.output_size) /
                         static_cast<double>(job.reduces.size());
    for (auto& reduce : job.reduces) reduce.available += share;
  }

  if (job.maps_all_finished()) {
    job.maps_done_time = engine_.now();
    // Kill accumulated floating-point drift: every partition is now fully
    // available by definition.
    for (auto& reduce : job.reduces) {
      reduce.available = static_cast<double>(reduce.partition_size);
      reduce.fetched = std::min(reduce.fetched, reduce.available);
    }
    trace_event(metrics::TraceEventKind::kBarrierCrossed, job.id, kInvalidTask,
                kInvalidNode, true);
    span_barrier_crossed(job);
    SMR_DEBUG("job " << job.spec.name << " crossed the barrier at "
                     << format_duration(engine_.now()));
  }
}

void Runtime::settle_reduce(Job& job, ReduceTask& task) {
  SMR_CHECK(task.phase == ReducePhase::kShuffling);
  const double total = static_cast<double>(task.partition_size);
  if (!job.maps_all_finished()) return;
  if (total - task.fetched > kByteEps) return;
  // Shuffle complete: account any sub-byte residue, then cross into the
  // compute phases; zero-size partitions fall straight through.
  task.fetched = total;
  task.shuffle_end_time = engine_.now();
  task.phase = ReducePhase::kSorting;
  task.phase_done = 0.0;
  mark_node_dirty(task.node);
  trace_event(metrics::TraceEventKind::kPhaseStarted, task.job, task.id,
              task.node, false, "SORT");
  span_shuffle_settled(job, task.id);
  if (task.partition_size == 0) {
    // Nothing to sort or reduce; the task completes immediately (zero-size
    // partitions never have speculative shadows).
    complete_reduce(job, task, task.id);
  }
}

void Runtime::complete_reduce(Job& job, ReduceTask& task, TaskId attempt_id) {
  SMR_CHECK(task.phase != ReducePhase::kDone);
  if (has_reduce_shadow(task.id)) kill_reduce_shadow(task);
  task.phase = ReducePhase::kDone;
  task.finish_time = engine_.now();
  if (metrics_ != nullptr) {
    metrics_->histogram("task.reduce_duration_s", obs::kDurationBounds)
        .observe(task.finish_time - task.start_time);
  }
  trace_event(metrics::TraceEventKind::kTaskFinished, job.id, task.id,
              task.node, false);
  span_attempt_ended(attempt_id, obs::SpanOutcome::kOk);
  trackers_[static_cast<std::size_t>(task.node)].finish_reduce(attempt_id);
  ++job.reduces_finished;
  if (job.reduces_finished == static_cast<int>(job.reduces.size()) &&
      job.maps_all_finished()) {
    job.finish_time = engine_.now();
    --unfinished_jobs_;
    deactivate_job(job.id);
    trace_event(metrics::TraceEventKind::kJobFinished, job.id, kInvalidTask,
                kInvalidNode, true);
    span_job_finished(job, obs::SpanOutcome::kOk);
    SMR_INFO("job " << job.spec.name << " finished at "
                    << format_duration(engine_.now()));
    if (on_job_finished_) on_job_finished_(job);
  }
}

void Runtime::close_submissions() {
  open_ = false;
  if (ran_) check_all_done();
}

void Runtime::check_all_done() {
  if (stopping_) return;
  // An open runtime idles through empty-queue stretches: the arrival
  // process may still inject work.
  if (open_) return;
  if (unfinished_jobs_ == 0 && jobs_not_yet_submitted_ == 0) {
    stopping_ = true;
    for (sim::EventId id : periodic_events_) engine_.cancel(id);
    periodic_events_.clear();
    for (sim::EventId& id : heartbeat_events_) {
      if (id != sim::kInvalidEvent) engine_.cancel(id);
      id = sim::kInvalidEvent;
    }
  }
}

void Runtime::abort_run(std::string reason) {
  if (stopping_) return;
  SMR_WARN("aborting run at " << format_duration(engine_.now()) << ": " << reason);
  aborted_ = true;
  abort_time_ = engine_.now();
  run_failure_reason_ = std::move(reason);
  stopping_ = true;
  for (sim::EventId id : periodic_events_) engine_.cancel(id);
  periodic_events_.clear();
  for (sim::EventId& id : heartbeat_events_) {
    if (id != sim::kInvalidEvent) engine_.cancel(id);
    id = sim::kInvalidEvent;
  }
  // Graceful-degradation flush: the samplers above are dead, so leave the
  // obs sinks complete as of the abort instant — one final metric sample,
  // any policy decisions not yet mirrored into the trace, and every span
  // closed (kAborted).  The decision/trace logs themselves are append-only
  // and already consistent.
  record_metric_samples(abort_time_);
  span_refresh_decisions();
  span_flush_aborted();
}

// ---------------------------------------------------------------------------
// Control plane.
// ---------------------------------------------------------------------------

void Runtime::on_heartbeat(std::size_t tracker_index) {
  if (stopping_) return;
  if (!node_alive_[tracker_index]) return;
  TaskTracker& tracker = trackers_[tracker_index];
  // Stagger offsets keep heartbeat instants distinct, so every heartbeat
  // would need a fresh snapshot; snapshot_into reuses the scratch's vector
  // capacity instead of reallocating per-job / per-node arrays each time.
  // Policies whose on_heartbeat ignores its stats argument (the static
  // policy, the slot manager) declare so and skip the snapshot entirely —
  // the dominant per-heartbeat cost on large clusters.
  if (policy_->wants_heartbeat_stats()) snapshot_into(hb_stats_);
  const ClusterStats& stats = hb_stats_;
  // Heartbeat-level policies (YARN's capacity accounting) adjust targets
  // here; watch the cluster totals so the counter tracks stay truthful.
  const int prev_map_total = trace_ != nullptr ? total_map_target() : 0;
  const int prev_reduce_total = trace_ != nullptr ? total_reduce_target() : 0;
  policy_->on_heartbeat(tracker, stats);
  if (trace_ != nullptr) trace_slot_targets(prev_map_total, prev_reduce_total);
  if (metrics_ != nullptr) metrics_->counter("heartbeats.processed").inc();
  // A blacklisted tracker still heartbeats (its statistics stay fresh and
  // running tasks drain lazily) but takes no new assignments.
  if (tracker.blacklisted()) return;
  if (config_.eager_slot_shrink) eager_shrink(tracker);
  assign_tasks(tracker);
}

void Runtime::eager_shrink(TaskTracker& tracker) {
  while (tracker.running_maps() > tracker.map_target()) {
    // Kill the most recently started map: the least sunk progress.
    // Speculative shadows go first — they are pure duplicates.
    TaskId victim = kInvalidTask;
    SimTime latest = -1.0;
    bool victim_is_shadow = false;
    for (TaskId id : tracker.running_map_tasks()) {
      const bool is_shadow = task_ref_at(id).speculative;
      const MapTask& task = map_task(id);
      if ((is_shadow && !victim_is_shadow) ||
          (is_shadow == victim_is_shadow && task.start_time > latest)) {
        latest = task.start_time;
        victim = id;
        victim_is_shadow = is_shadow;
      }
    }
    SMR_CHECK(victim != kInvalidTask);
    if (victim_is_shadow) {
      const TaskRef ref = task_ref_at(victim);
      kill_shadow(job_of(ref.job).maps[static_cast<std::size_t>(ref.index)]);
    } else {
      requeue_running_map(map_task(victim));
    }
    ++killed_map_tasks_;
  }
}

void Runtime::rollback_map_progress(const MapTask& task) {
  Job& job = job_of(task.job);
  const double processed = task.phase == MapPhase::kMapping
                               ? task.phase_done
                               : static_cast<double>(task.input_size);
  job.map_input_processed -= processed;
  cum_map_input_ -= processed;
  node_map_input_[static_cast<std::size_t>(task.node)] -= processed;
}

void Runtime::requeue_running_map(MapTask& task) {
  SMR_CHECK(task.running());
  // A requeued primary cannot race its own shadow: retire the shadow too.
  if (has_shadow(task.id)) kill_shadow(task);
  Job& job = job_of(task.job);
  // Roll the fluid accounting back: its partial input no longer counts.
  rollback_map_progress(task);
  trace_event(metrics::TraceEventKind::kTaskKilled, task.job, task.id,
              task.node, true);
  span_mark_retry(task.id, task.id);
  span_attempt_ended(task.id, obs::SpanOutcome::kKilled);
  trackers_[static_cast<std::size_t>(task.node)].finish_map(task.id);
  task.node = kInvalidNode;
  task.src_node = kInvalidNode;
  task.local = true;
  task.phase = MapPhase::kMapping;
  task.phase_done = 0.0;
  task.start_time = kTimeNever;
  --job.maps_assigned;
}

void Runtime::requeue_running_reduce(ReduceTask& task) {
  SMR_CHECK(task.running());
  if (has_reduce_shadow(task.id)) kill_reduce_shadow(task);
  Job& job = job_of(task.job);
  // Whatever the task fetched sat on the failed node's disk; the work has
  // to be redone by the fresh attempt.
  job.bytes_shuffled -= task.fetched;
  cum_shuffled_ -= task.fetched;
  node_shuffled_in_[static_cast<std::size_t>(task.node)] -= task.fetched;
  trace_event(metrics::TraceEventKind::kTaskKilled, task.job, task.id,
              task.node, false);
  span_mark_retry(task.id, task.id);
  span_attempt_ended(task.id, obs::SpanOutcome::kKilled);
  trackers_[static_cast<std::size_t>(task.node)].finish_reduce(task.id);
  task.node = kInvalidNode;
  task.phase = ReducePhase::kShuffling;
  task.fetched = 0.0;
  task.phase_done = 0.0;
  task.start_time = kTimeNever;
  task.shuffle_end_time = kTimeNever;
  --job.reduces_assigned;
}

void Runtime::requeue_completed_map(Job& job, MapTask& task) {
  SMR_CHECK(task.phase == MapPhase::kDone);
  trace_event(metrics::TraceEventKind::kTaskKilled, task.job, task.id,
              task.node, true);
  // The re-execution is causally a retry of the (successfully completed,
  // then lost) attempt; its span is already closed, so link via the
  // last-attempt record.
  span_mark_retry(task.id, task.id);
  --job.maps_finished;
  --job.maps_assigned;
  job.map_input_processed -= static_cast<double>(task.input_size);
  cum_map_input_ -= static_cast<double>(task.input_size);
  node_map_input_[static_cast<std::size_t>(task.node)] -=
      static_cast<double>(task.input_size);
  job.map_output_produced -= static_cast<double>(task.output_size);
  cum_map_output_ -= static_cast<double>(task.output_size);
  node_map_output_[static_cast<std::size_t>(task.node)] -=
      static_cast<double>(task.output_size);
  // Take this map's share back out of every reduce backlog.  The fluid
  // partition model cannot attribute already-fetched bytes to individual
  // maps, so the claw-back is clamped at what each reducer still holds:
  // reducers keep everything they fetched and re-fetch only the remainder.
  if (!job.reduces.empty() && task.output_size > 0) {
    const double share = static_cast<double>(task.output_size) /
                         static_cast<double>(job.reduces.size());
    for (auto& reduce : job.reduces) {
      reduce.available = std::max(reduce.fetched, reduce.available - share);
    }
  }
  // If the job had crossed the barrier, the barrier re-opens.
  job.maps_done_time = kTimeNever;
  task.node = kInvalidNode;
  task.src_node = kInvalidNode;
  task.local = true;
  task.phase = MapPhase::kMapping;
  task.phase_done = 0.0;
  task.start_time = kTimeNever;
  task.finish_time = kTimeNever;
}

void Runtime::fail_node(NodeId node) {
  if (stopping_) return;  // failure scheduled past the end of the run
  SMR_CHECK(node >= 0 && static_cast<std::size_t>(node) < node_alive_.size());
  SMR_CHECK_MSG(node_alive_[static_cast<std::size_t>(node)],
                "node " << node << " failed twice");
  const int prev_map_total = trace_ != nullptr ? total_map_target() : 0;
  const int prev_reduce_total = trace_ != nullptr ? total_reduce_target() : 0;
  node_alive_[static_cast<std::size_t>(node)] = false;
  trace_event(metrics::TraceEventKind::kNodeFailed, kInvalidJob, kInvalidTask,
              node, true);
  if (metrics_ != nullptr) metrics_->counter("nodes.failed").inc();
  TaskTracker& tracker = trackers_[static_cast<std::size_t>(node)];
  SMR_WARN("node " << node << " failed at " << format_duration(engine_.now()));

  // A dead tracker stops heartbeating (the job tracker expires it); leaving
  // the periodic event live would keep running its control loop.  Park the
  // series instead of cancelling so a recovery can revive the same event.
  const sim::EventId heartbeat = heartbeat_events_[static_cast<std::size_t>(node)];
  if (heartbeat != sim::kInvalidEvent) {
    engine_.reschedule(heartbeat, kTimeNever);
  }
  // Its slots are gone with it: zero the targets so cluster totals (and the
  // slot-target counter tracks) reflect live capacity only.
  tracker.set_map_target(0);
  tracker.set_reduce_target(0);
  if (trace_ != nullptr) trace_slot_targets(prev_map_total, prev_reduce_total);

  // Kill everything running there (copies: requeue mutates the lists).
  const std::vector<TaskId> running_maps = tracker.running_map_tasks();
  for (TaskId id : running_maps) {
    const TaskRef ref = task_ref_at(id);
    if (ref.speculative) {
      kill_shadow(job_of(ref.job).maps[static_cast<std::size_t>(ref.index)]);
    } else {
      requeue_running_map(map_task(id));
    }
    ++tasks_lost_to_failures_;
  }
  const std::vector<TaskId> running_reduces = tracker.running_reduce_tasks();
  for (TaskId id : running_reduces) {
    const TaskRef ref = task_ref_at(id);
    if (ref.speculative) {
      kill_reduce_shadow(
          job_of(ref.job).reduces[static_cast<std::size_t>(ref.index)]);
    } else {
      requeue_running_reduce(reduce_task(id));
    }
    ++tasks_lost_to_failures_;
  }

  // Completed map outputs on this node are gone; re-execute them for any
  // job whose shuffle still needs them (Hadoop's map re-execution on
  // tracker loss).
  for (const std::size_t j : active_jobs_now(engine_.now())) {
    Job& job = jobs_[j];
    bool shuffle_outstanding = false;
    for (const auto& reduce : job.reduces) {
      if (reduce.phase == ReducePhase::kShuffling) {
        shuffle_outstanding = true;
        break;
      }
    }
    if (!shuffle_outstanding && job.reduces_assigned == static_cast<int>(job.reduces.size())) {
      continue;  // every reducer already holds its full partition
    }
    for (auto& task : job.maps) {
      if (task.phase == MapPhase::kDone && task.node == node) {
        requeue_completed_map(job, task);
        ++tasks_lost_to_failures_;
      }
    }
  }

  // With every worker down and no recovery on the calendar, the run can
  // never finish — degrade gracefully instead of wedging until the time
  // limit (or crashing in the assignment path).
  bool any_alive = false;
  for (const bool alive : node_alive_) any_alive = any_alive || alive;
  if (!any_alive && (unfinished_jobs_ > 0 || jobs_not_yet_submitted_ > 0)) {
    if (pending_recoveries_ > 0) {
      SMR_WARN("all worker nodes are down; waiting for scheduled recovery");
    } else {
      abort_run("all worker nodes have failed");
    }
  }
}

void Runtime::recover_node(NodeId node) {
  --pending_recoveries_;
  if (stopping_) return;  // recovery scheduled past the end of the run
  SMR_CHECK(node >= 0 && static_cast<std::size_t>(node) < node_alive_.size());
  SMR_CHECK_MSG(!node_alive_[static_cast<std::size_t>(node)],
                "node " << node << " recovered while alive");
  const int prev_map_total = trace_ != nullptr ? total_map_target() : 0;
  const int prev_reduce_total = trace_ != nullptr ? total_reduce_target() : 0;
  node_alive_[static_cast<std::size_t>(node)] = true;
  TaskTracker& tracker = trackers_[static_cast<std::size_t>(node)];
  // A fresh tracker process rejoins: no running tasks (the failure already
  // emptied the lists), initial slot targets, a clean blacklist record.
  tracker.set_blacklisted(false);
  node_attempt_failures_[static_cast<std::size_t>(node)] = 0;
  tracker.set_map_target(config_.initial_map_slots);
  tracker.set_reduce_target(config_.initial_reduce_slots);
  if (trace_ != nullptr) trace_slot_targets(prev_map_total, prev_reduce_total);
  ++nodes_recovered_;
  trace_event(metrics::TraceEventKind::kNodeRecovered, kInvalidJob,
              kInvalidTask, node, true);
  if (metrics_ != nullptr) metrics_->counter("nodes.recovered").inc();
  SMR_INFO("node " << node << " recovered at " << format_duration(engine_.now()));
  // Resume the heartbeat on this tracker's original stagger grid, at the
  // first grid point after the recovery instant.  The parked periodic
  // series is revived in place — no cancel+push pair, no new event id.
  const std::size_t i = static_cast<std::size_t>(node);
  const SimTime offset = config_.heartbeat_period * static_cast<double>(i + 1) /
                         static_cast<double>(trackers_.size());
  const SimTime now = engine_.now();
  SimTime first = offset;
  if (first <= now) {
    first = offset + std::ceil((now - offset) / config_.heartbeat_period) *
                         config_.heartbeat_period;
    if (first <= now) first += config_.heartbeat_period;
  }
  const bool revived = engine_.reschedule(heartbeat_events_[i], first);
  SMR_CHECK_MSG(revived, "heartbeat series for node " << node << " vanished");
}

// ---------------------------------------------------------------------------
// Fault injection: per-attempt failures, retries, blacklisting.
// ---------------------------------------------------------------------------

NodeId Runtime::pick_live_source(const std::vector<NodeId>& replicas) {
  std::vector<NodeId> alive;
  for (NodeId r : replicas) {
    if (node_alive_[static_cast<std::size_t>(r)]) alive.push_back(r);
  }
  if (alive.empty()) {
    // Every replica died: HDFS would have re-replicated long before the
    // split is read; model that by reading from a random live node.
    for (NodeId r = 0; r < static_cast<NodeId>(node_alive_.size()); ++r) {
      if (node_alive_[static_cast<std::size_t>(r)]) alive.push_back(r);
    }
  }
  if (alive.empty()) return kInvalidNode;
  return alive[static_cast<std::size_t>(
      rng_.uniform_int(0, static_cast<std::int64_t>(alive.size()) - 1))];
}

double Runtime::draw_fail_threshold() {
  // Draw only when injection is on: a fault-free config must not advance
  // fault_rng_ either, so later enabling injection cannot perturb it.
  if (config_.task_fail_rate <= 0.0) return kNeverFail;
  if (fault_rng_.uniform() >= config_.task_fail_rate) return kNeverFail;
  // Doomed: die somewhere mid-phase (never at 0, where the attempt has no
  // footprint yet, and never so close to 1 that it always finishes first).
  return fault_rng_.uniform(0.05, 0.95);
}

void Runtime::fail_doomed_attempts() {
  // Fail in id order: the collection order (tracker lists) is launch
  // history, not deterministic rank.  A failure can tear a job down and
  // retire other doomed attempts mid-sweep; fail_*_attempt re-checks.
  std::sort(tick_.doomed_maps.begin(), tick_.doomed_maps.end());
  std::sort(tick_.doomed_reduces.begin(), tick_.doomed_reduces.end());
  for (TaskId id : tick_.doomed_maps) fail_map_attempt(id);
  for (TaskId id : tick_.doomed_reduces) fail_reduce_attempt(id);
}

void Runtime::fail_map_attempt(TaskId id) {
  const TaskRef* it = find_task_ref(id);
  if (it == nullptr) return;  // retired by an earlier teardown
  const TaskRef ref = *it;
  Job& job = job_of(ref.job);
  if (job.failed) return;
  MapTask& primary = job.maps[static_cast<std::size_t>(ref.index)];
  const NodeId node = map_task(id).node;
  ++task_attempt_failures_;
  ++primary.failed_attempts;
  if (metrics_ != nullptr) metrics_->counter("tasks.map_attempt_failures").inc();
  trace_event(metrics::TraceEventKind::kTaskAttemptFailed, job.id, id, node,
              true, ref.speculative ? "injected-speculative" : "injected",
              static_cast<double>(primary.failed_attempts));
  // Close the span as kFailed before the requeue/kill path (whose own
  // close would report kKilled); mark the retry link for a relaunch.
  if (!ref.speculative) span_mark_retry(primary.id, id);
  span_attempt_ended(id, obs::SpanOutcome::kFailed);
  if (ref.speculative) {
    // The shadow dies; the primary keeps running (but the failure counts
    // against the shared attempt budget, as in Hadoop).
    kill_shadow(primary);
  } else if (primary.failed_attempts < config_.max_attempts) {
    requeue_running_map(primary);  // emits TASK_KILLED, frees the slot
    ++task_retries_;
    if (metrics_ != nullptr) metrics_->counter("tasks.retries").inc();
  }
  record_attempt_failure_on(node);
  if (primary.failed_attempts >= config_.max_attempts) {
    fail_job(job, "map task " + std::to_string(primary.id) + " failed " +
                      std::to_string(primary.failed_attempts) + " attempts");
  }
}

void Runtime::fail_reduce_attempt(TaskId id) {
  const TaskRef* it = find_task_ref(id);
  if (it == nullptr) return;  // retired by an earlier teardown
  const TaskRef ref = *it;
  Job& job = job_of(ref.job);
  if (job.failed) return;
  ReduceTask& primary = job.reduces[static_cast<std::size_t>(ref.index)];
  const NodeId node = reduce_task(id).node;
  ++task_attempt_failures_;
  ++primary.failed_attempts;
  if (metrics_ != nullptr) {
    metrics_->counter("tasks.reduce_attempt_failures").inc();
  }
  trace_event(metrics::TraceEventKind::kTaskAttemptFailed, job.id, id, node,
              false, ref.speculative ? "injected-speculative" : "injected",
              static_cast<double>(primary.failed_attempts));
  if (!ref.speculative) span_mark_retry(primary.id, id);
  span_attempt_ended(id, obs::SpanOutcome::kFailed);
  if (ref.speculative) {
    kill_reduce_shadow(primary);
  } else if (primary.failed_attempts < config_.max_attempts) {
    requeue_running_reduce(primary);
    ++task_retries_;
    if (metrics_ != nullptr) metrics_->counter("tasks.retries").inc();
  }
  record_attempt_failure_on(node);
  if (primary.failed_attempts >= config_.max_attempts) {
    fail_job(job, "reduce task " + std::to_string(primary.id) + " failed " +
                      std::to_string(primary.failed_attempts) + " attempts");
  }
}

void Runtime::record_attempt_failure_on(NodeId node) {
  if (config_.blacklist_after <= 0) return;
  const auto n = static_cast<std::size_t>(node);
  if (!node_alive_[n] || trackers_[n].blacklisted()) return;
  if (++node_attempt_failures_[n] < config_.blacklist_after) return;
  // Never blacklist the last healthy tracker: a cluster with zero
  // assignable slots can only wedge.
  int healthy = 0;
  for (std::size_t i = 0; i < trackers_.size(); ++i) {
    if (node_alive_[i] && !trackers_[i].blacklisted()) ++healthy;
  }
  if (healthy <= 1) return;
  const int prev_map_total = trace_ != nullptr ? total_map_target() : 0;
  const int prev_reduce_total = trace_ != nullptr ? total_reduce_target() : 0;
  trackers_[n].set_blacklisted(true);
  if (trace_ != nullptr) trace_slot_targets(prev_map_total, prev_reduce_total);
  ++nodes_blacklisted_;
  trace_event(metrics::TraceEventKind::kNodeBlacklisted, kInvalidJob,
              kInvalidTask, node, true, "",
              static_cast<double>(node_attempt_failures_[n]));
  if (metrics_ != nullptr) metrics_->counter("nodes.blacklisted").inc();
  SMR_WARN("node " << node << " blacklisted after " << node_attempt_failures_[n]
                   << " attempt failures at " << format_duration(engine_.now()));
}

void Runtime::fail_job(Job& job, std::string reason) {
  SMR_CHECK(!job.failed);
  SMR_WARN("job " << job.spec.name << " failed: " << reason);
  // Tear down every running attempt; the requeue helpers retire shadows,
  // emit TASK_KILLED and roll the fluid accounting back.  Queued tasks are
  // cancelled implicitly: a finished job is invisible to the scheduler.
  for (auto& task : job.maps) {
    if (task.running()) requeue_running_map(task);
  }
  for (auto& task : job.reduces) {
    if (task.running()) requeue_running_reduce(task);
  }
  job.failed = true;
  job.failure_reason = std::move(reason);
  job.finish_time = engine_.now();
  --unfinished_jobs_;
  deactivate_job(job.id);
  ++failed_jobs_;
  trace_event(metrics::TraceEventKind::kJobFailed, job.id, kInvalidTask,
              kInvalidNode, true, job.failure_reason.c_str());
  span_job_finished(job, obs::SpanOutcome::kFailed);
  if (metrics_ != nullptr) metrics_->counter("jobs.failed").inc();
  if (on_job_finished_) on_job_finished_(job);
  check_all_done();  // this may have been the last unfinished job
}

void Runtime::on_policy_period() {
  if (stopping_) return;
  const obs::DecisionLog* decisions = policy_->decision_log();
  const std::size_t decisions_before =
      decisions != nullptr ? decisions->size() : 0;
  const int prev_map_total = trace_ != nullptr ? total_map_target() : 0;
  const int prev_reduce_total = trace_ != nullptr ? total_reduce_target() : 0;

  policy_->on_period(trackers(), snapshot());

  span_refresh_decisions();
  if (metrics_ != nullptr) metrics_->counter("policy.periods").inc();
  if (trace_ != nullptr) {
    trace_slot_targets(prev_map_total, prev_reduce_total);
    // Mirror freshly appended audit records into the trace so Perfetto
    // shows the control loop's reasoning next to the task slices.
    if (decisions != nullptr) {
      for (std::size_t i = decisions_before; i < decisions->size(); ++i) {
        const obs::SlotDecision& d = decisions->decisions()[i];
        std::string detail = obs::to_string(d.action);
        if (!d.reason.empty()) {
          detail += ": ";
          detail += d.reason;
        }
        trace_event(metrics::TraceEventKind::kPolicyDecision, kInvalidJob,
                    kInvalidTask, kInvalidNode, true, detail.c_str(),
                    d.balance_factor.value_or(0.0));
      }
    }
  }
}

int Runtime::total_map_target() const {
  // Live capacity only: dead and blacklisted trackers contribute nothing,
  // whatever stale targets they may carry.
  int total = 0;
  for (std::size_t n = 0; n < trackers_.size(); ++n) {
    if (!node_alive_[n] || trackers_[n].blacklisted()) continue;
    total += trackers_[n].map_target();
  }
  return total;
}

int Runtime::total_reduce_target() const {
  int total = 0;
  for (std::size_t n = 0; n < trackers_.size(); ++n) {
    if (!node_alive_[n] || trackers_[n].blacklisted()) continue;
    total += trackers_[n].reduce_target();
  }
  return total;
}

void Runtime::trace_slot_targets(int prev_map_total, int prev_reduce_total) {
  if (const int now_map = total_map_target(); now_map != prev_map_total) {
    trace_event(metrics::TraceEventKind::kSlotTargetChanged, kInvalidJob,
                kInvalidTask, kInvalidNode, true, "map",
                static_cast<double>(now_map));
  }
  if (const int now_reduce = total_reduce_target();
      now_reduce != prev_reduce_total) {
    trace_event(metrics::TraceEventKind::kSlotTargetChanged, kInvalidJob,
                kInvalidTask, kInvalidNode, false, "reduce",
                static_cast<double>(now_reduce));
  }
}

bool Runtime::job_at_cap(const Job& job, bool for_map) const {
  const std::vector<int>* caps = policy_->job_task_caps();
  if (caps == nullptr) return false;
  const auto idx = static_cast<std::size_t>(job.id);
  if (idx >= caps->size()) return false;
  const int cap = (*caps)[idx];
  if (cap < 0) return false;
  // Per-phase count: see AllocationPolicy::job_task_caps — a combined
  // count deadlocks once waiting reduces hold the cap against their maps.
  const int in_flight = for_map ? job.maps_assigned - job.maps_finished
                                : job.reduces_assigned - job.reduces_finished;
  return in_flight >= cap;
}

std::vector<JobStats> Runtime::job_census() const {
  std::vector<JobStats> census;
  const SimTime now = engine_.now();
  for (const std::size_t j : active_jobs_now(now)) {
    const Job& job = jobs_[j];
    JobStats js;
    js.job = job.id;
    js.tenant = job.spec.tenant;
    js.submit_time = job.submit_time;
    js.deadline = job.deadline;
    js.pending_maps = job.maps_pending();
    js.running_maps = job.maps_assigned - job.maps_finished;
    js.pending_reduces = job.reduces_pending();
    js.running_reduces = job.reduces_assigned - job.reduces_finished;
    census.push_back(std::move(js));
  }
  return census;
}

void Runtime::assign_tasks(TaskTracker& tracker) {
  while (tracker.free_map_slots() > 0 && assign_one_map(tracker)) {
  }
  while (tracker.free_reduce_slots() > 0 && assign_one_reduce(tracker)) {
  }
}

bool Runtime::assign_one_map(TaskTracker& tracker) {
  const SimTime now = engine_.now();
  for (std::size_t job_index :
       scheduler_->job_order(jobs_, active_jobs_now(now), /*for_map=*/true)) {
    Job& job = jobs_[job_index];
    if (job.maps_pending() == 0) continue;
    if (job_at_cap(job, /*for_map=*/true)) continue;
    const auto& file = dfs_.file(job.input_file);
    MapTask* chosen = nullptr;
    // Node-local preference (the FIFO scheduler's locality pass).
    for (auto& task : job.maps) {
      if (task.node != kInvalidNode) continue;
      if (file.blocks[static_cast<std::size_t>(task.split_index)].has_replica_on(
              tracker.node())) {
        chosen = &task;
        break;
      }
    }
    bool local = chosen != nullptr;
    if (chosen == nullptr) {
      // Delay scheduling: decline this (non-local) offer a bounded number
      // of times in the hope that a node holding one of our splits frees a
      // slot first.
      if (job.locality_skips < config_.locality_wait_offers) {
        ++job.locality_skips;
        continue;
      }
      for (auto& task : job.maps) {
        if (task.node == kInvalidNode) {
          chosen = &task;
          break;
        }
      }
    } else {
      job.locality_skips = 0;
    }
    SMR_CHECK(chosen != nullptr);  // maps_pending() > 0 guarantees one
    chosen->node = tracker.node();
    chosen->local = local;
    if (!local) {
      const auto& replicas =
          file.blocks[static_cast<std::size_t>(chosen->split_index)].replicas;
      const NodeId src = pick_live_source(replicas);
      if (src == kInvalidNode) {
        // No live node holds (or could re-host) the split.  Unreachable
        // while the assigning tracker itself is alive, but degrade to "no
        // assignment" rather than crashing the run.
        chosen->node = kInvalidNode;
        chosen->local = true;
        return false;
      }
      chosen->src_node = src;
      ++remote_map_launches_;
    } else {
      ++local_map_launches_;
    }
    chosen->start_time = now;
    chosen->fail_at_progress = draw_fail_threshold();
    tracker.launch_map(chosen->id);
    ++job.maps_assigned;
    if (!job.started()) job.start_time = now;
    trace_event(metrics::TraceEventKind::kTaskLaunched, job.id, chosen->id,
                tracker.node(), true);
    trace_event(metrics::TraceEventKind::kPhaseStarted, job.id, chosen->id,
                tracker.node(), true, "MAP");
    span_attempt_launched(chosen->id, job, tracker.node(), /*is_map=*/true,
                          /*speculative=*/false, chosen->id);
    return true;
  }
  if (config_.speculative_execution && launch_speculative(tracker)) return true;
  return false;
}

bool Runtime::launch_speculative(TaskTracker& tracker) {
  const SimTime now = engine_.now();
  for (std::size_t job_index :
       scheduler_->job_order(jobs_, active_jobs_now(now), /*for_map=*/true)) {
    Job& job = jobs_[job_index];
    // Hadoop speculates only once a job has no pending maps left.
    if (job.maps_pending() != 0 || job.maps_all_finished()) continue;
    // Mean progress over the whole map phase (finished tasks count 1.0),
    // as in Hadoop's speculation heuristic; comparing only against other
    // *running* tasks would blind the detector in the final wave, where
    // everyone still running is a straggler.
    double mean_progress = 0.0;
    bool any_running = false;
    for (const auto& task : job.maps) {
      mean_progress += task.progress();
      any_running = any_running || task.running();
    }
    if (!any_running) continue;
    mean_progress /= static_cast<double>(job.maps.size());

    MapTask* straggler = nullptr;
    for (auto& task : job.maps) {
      if (!task.running() || has_shadow(task.id)) continue;
      if (task.node == tracker.node()) continue;  // duplicate elsewhere
      if (now - task.start_time < config_.speculative_min_age) continue;
      const double progress = task.progress();
      if (progress > 0.9) continue;
      if (progress < mean_progress - config_.speculative_progress_gap &&
          (straggler == nullptr || progress < straggler->progress())) {
        straggler = &task;
      }
    }
    if (straggler == nullptr) continue;

    MapTask shadow = *straggler;
    shadow.id = next_task_id_++;
    shadow.node = tracker.node();
    shadow.phase = MapPhase::kMapping;
    shadow.phase_done = 0.0;
    shadow.start_time = now;
    // A fresh attempt redraws its cost (the straggle is attempt-specific).
    shadow.cost_factor = rng_.jitter(job.spec.duration_cv);
    const auto& file = dfs_.file(job.input_file);
    const auto& block = file.blocks[static_cast<std::size_t>(shadow.split_index)];
    shadow.local = block.has_replica_on(tracker.node());
    if (!shadow.local) {
      // Fall back to any live node when every replica holder is dead (the
      // re-replication model of assign_one_map); previously this crashed
      // with dfs_replication == 1 and the sole replica's node down.
      const NodeId src = pick_live_source(block.replicas);
      if (src == kInvalidNode) continue;  // nowhere to read from: skip
      shadow.src_node = src;
    }
    shadow.fail_at_progress = draw_fail_threshold();
    shadow.failed_attempts = 0;  // the budget lives on the primary
    const std::int32_t slot = acquire_map_shadow_slot();
    const TaskId shadow_id = shadow.id;
    set_task_ref(shadow_id, TaskRef{job.id, straggler->split_index, true,
                                    /*speculative=*/true, slot});
    set_shadow_link(straggler->id, shadow_id);
    map_shadow_pool_[static_cast<std::size_t>(slot)] = std::move(shadow);
    tracker.launch_map(shadow_id);
    ++speculative_launches_;
    trace_event(metrics::TraceEventKind::kTaskLaunched, job.id, shadow_id,
                tracker.node(), true, "speculative");
    trace_event(metrics::TraceEventKind::kPhaseStarted, job.id, shadow_id,
                tracker.node(), true, "MAP");
    span_attempt_launched(shadow_id, job, tracker.node(), /*is_map=*/true,
                          /*speculative=*/true, straggler->id);
    return true;
  }
  return false;
}

void Runtime::kill_shadow(MapTask& primary) {
  const TaskId shadow_id = shadow_id_of(primary.id);
  SMR_CHECK(shadow_id != kInvalidTask);
  const TaskRef ref = task_ref_at(shadow_id);
  MapTask& shadow = map_shadow_pool_[static_cast<std::size_t>(ref.shadow_slot)];
  rollback_map_progress(shadow);
  trace_event(metrics::TraceEventKind::kTaskKilled, shadow.job, shadow_id,
              shadow.node, true, "speculative");
  span_attempt_ended(shadow_id, obs::SpanOutcome::kKilled);
  trackers_[static_cast<std::size_t>(shadow.node)].finish_map(shadow_id);
  set_shadow_link(primary.id, kInvalidTask);
  release_map_shadow_slot(ref.shadow_slot);
  erase_task_ref(shadow_id);
}

void Runtime::win_speculative(TaskId shadow_id) {
  const TaskRef ref = task_ref_at(shadow_id);
  SMR_CHECK(ref.speculative);
  Job& job = job_of(ref.job);
  MapTask& primary = job.maps[static_cast<std::size_t>(ref.index)];
  MapTask shadow = map_shadow_pool_[static_cast<std::size_t>(ref.shadow_slot)];
  SMR_CHECK(primary.phase != MapPhase::kDone);

  // The original attempt loses: discard its partial work.
  rollback_map_progress(primary);
  trace_event(metrics::TraceEventKind::kTaskKilled, job.id, primary.id,
              primary.node, true, "lost-race");
  span_attempt_ended(primary.id, obs::SpanOutcome::kKilled);
  trackers_[static_cast<std::size_t>(primary.node)].finish_map(primary.id);

  // The task completes where the shadow ran.
  primary.node = shadow.node;
  primary.local = shadow.local;
  primary.src_node = shadow.src_node;
  primary.phase = shadow.phase == MapPhase::kDone ? MapPhase::kSpilling
                                                  : shadow.phase;
  primary.phase_done = shadow.phase_done;
  set_shadow_link(primary.id, kInvalidTask);
  release_map_shadow_slot(ref.shadow_slot);
  erase_task_ref(shadow_id);
  ++speculative_wins_;
  complete_map(job, primary, shadow_id);
}

bool Runtime::assign_one_reduce(TaskTracker& tracker) {
  const SimTime now = engine_.now();
  for (std::size_t job_index :
       scheduler_->job_order(jobs_, active_jobs_now(now), /*for_map=*/false)) {
    Job& job = jobs_[job_index];
    if (job.reduces_pending() == 0) continue;
    if (job_at_cap(job, /*for_map=*/false)) continue;
    if (!job.maps.empty() &&
        job.map_completion_fraction() < config_.reduce_slowstart) {
      continue;
    }
    for (auto& task : job.reduces) {
      if (task.node != kInvalidNode) continue;
      task.node = tracker.node();
      task.start_time = now;
      task.fail_at_progress = draw_fail_threshold();
      tracker.launch_reduce(task.id);
      ++job.reduces_assigned;
      if (!job.started()) job.start_time = now;
      trace_event(metrics::TraceEventKind::kTaskLaunched, job.id, task.id,
                  tracker.node(), false);
      trace_event(metrics::TraceEventKind::kPhaseStarted, job.id, task.id,
                  tracker.node(), false, "SHUFFLE");
      span_attempt_launched(task.id, job, tracker.node(), /*is_map=*/false,
                            /*speculative=*/false, task.id);
      return true;
    }
  }
  if (config_.speculative_execution && config_.speculative_reduce_execution &&
      launch_speculative_reduce(tracker)) {
    return true;
  }
  return false;
}

bool Runtime::launch_speculative_reduce(TaskTracker& tracker) {
  const SimTime now = engine_.now();
  for (std::size_t job_index :
       scheduler_->job_order(jobs_, active_jobs_now(now), /*for_map=*/false)) {
    Job& job = jobs_[job_index];
    // Only past the barrier with every reduce assigned: the partition is
    // fully available, so a backup can re-fetch independently.
    if (!job.maps_all_finished() || job.reduces_pending() != 0) continue;
    if (job.reduces_finished == static_cast<int>(job.reduces.size())) continue;
    double mean_progress = 0.0;
    bool any_running = false;
    for (const auto& task : job.reduces) {
      mean_progress += task.progress();
      any_running = any_running || task.running();
    }
    if (!any_running) continue;
    mean_progress /= static_cast<double>(job.reduces.size());

    ReduceTask* straggler = nullptr;
    for (auto& task : job.reduces) {
      if (!task.running() || has_reduce_shadow(task.id)) continue;
      if (task.node == tracker.node()) continue;
      if (now - task.start_time < config_.speculative_min_age) continue;
      const double progress = task.progress();
      if (progress > 0.9) continue;
      if (progress < mean_progress - config_.speculative_progress_gap &&
          (straggler == nullptr || progress < straggler->progress())) {
        straggler = &task;
      }
    }
    if (straggler == nullptr) continue;

    ReduceTask shadow = *straggler;
    shadow.id = next_task_id_++;
    shadow.node = tracker.node();
    shadow.phase = ReducePhase::kShuffling;
    shadow.available = static_cast<double>(shadow.partition_size);  // post-barrier
    shadow.fetched = 0.0;
    shadow.phase_done = 0.0;
    shadow.start_time = now;
    shadow.shuffle_end_time = kTimeNever;
    shadow.cost_factor = rng_.jitter(job.spec.duration_cv);
    shadow.fail_at_progress = draw_fail_threshold();
    shadow.failed_attempts = 0;  // the budget lives on the primary
    const std::int32_t slot = acquire_reduce_shadow_slot();
    const TaskId shadow_id = shadow.id;
    set_task_ref(shadow_id, TaskRef{job.id, straggler->partition, false,
                                    /*speculative=*/true, slot});
    set_shadow_link(straggler->id, shadow_id);
    reduce_shadow_pool_[static_cast<std::size_t>(slot)] = std::move(shadow);
    tracker.launch_reduce(shadow_id);
    ++speculative_reduce_launches_;
    trace_event(metrics::TraceEventKind::kTaskLaunched, job.id, shadow_id,
                tracker.node(), false, "speculative");
    trace_event(metrics::TraceEventKind::kPhaseStarted, job.id, shadow_id,
                tracker.node(), false, "SHUFFLE");
    span_attempt_launched(shadow_id, job, tracker.node(), /*is_map=*/false,
                          /*speculative=*/true, straggler->id);
    return true;
  }
  return false;
}

void Runtime::kill_reduce_shadow(ReduceTask& primary) {
  const TaskId shadow_id = shadow_id_of(primary.id);
  SMR_CHECK(shadow_id != kInvalidTask);
  const TaskRef ref = task_ref_at(shadow_id);
  ReduceTask& shadow =
      reduce_shadow_pool_[static_cast<std::size_t>(ref.shadow_slot)];
  Job& job = job_of(shadow.job);
  // The shadow's fetched bytes were duplicate work: back them out.
  job.bytes_shuffled -= shadow.fetched;
  cum_shuffled_ -= shadow.fetched;
  node_shuffled_in_[static_cast<std::size_t>(shadow.node)] -= shadow.fetched;
  trace_event(metrics::TraceEventKind::kTaskKilled, shadow.job, shadow_id,
              shadow.node, false, "speculative");
  span_attempt_ended(shadow_id, obs::SpanOutcome::kKilled);
  trackers_[static_cast<std::size_t>(shadow.node)].finish_reduce(shadow_id);
  set_shadow_link(primary.id, kInvalidTask);
  release_reduce_shadow_slot(ref.shadow_slot);
  erase_task_ref(shadow_id);
}

void Runtime::win_speculative_reduce(TaskId shadow_id) {
  const TaskRef ref = task_ref_at(shadow_id);
  SMR_CHECK(ref.speculative && !ref.is_map);
  Job& job = job_of(ref.job);
  ReduceTask& primary = job.reduces[static_cast<std::size_t>(ref.index)];
  ReduceTask shadow =
      reduce_shadow_pool_[static_cast<std::size_t>(ref.shadow_slot)];
  SMR_CHECK(primary.phase != ReducePhase::kDone);

  // The original attempt loses: back its fetched bytes out and free it.
  job.bytes_shuffled -= primary.fetched;
  cum_shuffled_ -= primary.fetched;
  node_shuffled_in_[static_cast<std::size_t>(primary.node)] -= primary.fetched;
  trace_event(metrics::TraceEventKind::kTaskKilled, job.id, primary.id,
              primary.node, false, "lost-race");
  span_attempt_ended(primary.id, obs::SpanOutcome::kKilled);
  trackers_[static_cast<std::size_t>(primary.node)].finish_reduce(primary.id);

  primary.node = shadow.node;
  primary.fetched = shadow.fetched;
  primary.phase_done = shadow.phase_done;
  primary.shuffle_end_time = shadow.shuffle_end_time;
  primary.phase = ReducePhase::kReducing;  // completing momentarily
  set_shadow_link(primary.id, kInvalidTask);
  release_reduce_shadow_slot(ref.shadow_slot);
  erase_task_ref(shadow_id);
  ++speculative_reduce_wins_;
  complete_reduce(job, primary, shadow_id);
}

void Runtime::on_sample() {
  if (stopping_) return;
  const SimTime now = engine_.now();
  for (const std::size_t j : active_jobs_now(now)) {
    const Job& job = jobs_[j];
    metrics::ProgressSample sample;
    sample.time = now;
    sample.map_pct = 100.0 * job.map_progress();
    sample.reduce_pct = 100.0 * job.reduce_progress();
    result_.progress[j].push_back(sample);
  }
  metrics::SlotSample slot_sample;
  slot_sample.time = now;
  for (const auto& tracker : trackers_) {
    slot_sample.map_target += tracker.map_target();
    slot_sample.reduce_target += tracker.reduce_target();
    slot_sample.running_maps += tracker.running_maps();
    slot_sample.running_reduces += tracker.running_reduces();
  }
  record_metric_samples(now);
  const double nt = static_cast<double>(trackers_.size());
  slot_sample.map_target /= nt;
  slot_sample.reduce_target /= nt;
  slot_sample.running_maps /= nt;
  slot_sample.running_reduces /= nt;
  result_.slots.push_back(slot_sample);

  // Per-shard window-occupancy / barrier-stall series (shards.json only;
  // the occupancy numbers are deterministic, the stall is wall-clock).
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    ShardScratch& shard = shards_[s];
    ShardStats& stats = shard_stats_[s];
    const double mean =
        shard.stat_windows > 0
            ? static_cast<double>(shard.stat_entries) /
                  static_cast<double>(shard.stat_windows)
            : 0.0;
    stats.occupancy_series.emplace_back(now, mean);
    stats.stall_series.emplace_back(now, stats.barrier_stall_s);
    shard.stat_entries = 0;
    shard.stat_windows = 0;
  }
}

void Runtime::record_metric_samples(SimTime now) {
  if (metrics_ == nullptr) return;
  // Cluster totals (the per-node averages land in result_.slots instead).
  double map_target = 0.0;
  double reduce_target = 0.0;
  double running_maps = 0.0;
  double running_reduces = 0.0;
  for (const auto& tracker : trackers_) {
    map_target += tracker.map_target();
    reduce_target += tracker.reduce_target();
    running_maps += tracker.running_maps();
    running_reduces += tracker.running_reduces();
  }
  metrics_->series("slots.map_target").append(now, map_target);
  metrics_->series("slots.reduce_target").append(now, reduce_target);
  metrics_->series("tasks.running_maps").append(now, running_maps);
  metrics_->series("tasks.running_reduces").append(now, running_reduces);
  double pending_maps = 0.0;
  double pending_reduces = 0.0;
  double shuffle_backlog = 0.0;
  for (const std::size_t j : active_jobs_now(now)) {
    const Job& job = jobs_[j];
    pending_maps += job.maps_pending();
    pending_reduces += job.reduces_pending();
    for (const ReduceTask& task : job.reduces) {
      if (task.running() && task.phase == ReducePhase::kShuffling) {
        shuffle_backlog += task.backlog();
      }
    }
  }
  metrics_->series("queue.pending_maps").append(now, pending_maps);
  metrics_->series("queue.pending_reduces").append(now, pending_reduces);
  metrics_->series("shuffle.bytes_in_flight").append(now, shuffle_backlog);
}

void Runtime::trace_event(metrics::TraceEventKind kind, JobId job, TaskId task,
                          NodeId node, bool is_map, const char* detail,
                          double value) {
  // Every launch and kill flows through here, so the control-plane counters
  // live here rather than at each call site.
  if (metrics_ != nullptr) {
    switch (kind) {
      case metrics::TraceEventKind::kTaskLaunched:
        metrics_
            ->counter(is_map ? "tasks.map_launches" : "tasks.reduce_launches")
            .inc();
        break;
      case metrics::TraceEventKind::kTaskKilled:
        metrics_->counter("tasks.kills").inc();
        break;
      default:
        break;
    }
  }
  if (trace_ == nullptr) return;
  metrics::TraceEvent event;
  event.time = engine_.now();
  event.kind = kind;
  event.job = job;
  event.task = task;
  event.node = node;
  event.is_map = is_map;
  event.detail = detail;
  event.value = value;
  trace_->record(event);
}

// ---------------------------------------------------------------------------
// Span recording.  Everything here is purely observational: no RNG draws,
// no events, no reads that feed back into scheduling — a run with a
// SpanLog attached is bit-identical to one without.
// ---------------------------------------------------------------------------

obs::SpanId Runtime::span_run_root() {
  if (run_span_ == obs::kInvalidSpan) {
    run_span_ = spans_->open(obs::SpanKind::kRun, "run", 0.0);
  }
  return run_span_;
}

Runtime::JobSpanState* Runtime::span_job_state(const Job& job) {
  if (spans_ == nullptr) return nullptr;
  const auto slot = static_cast<std::size_t>(job.id);
  if (slot >= job_spans_.size()) job_spans_.resize(slot + 1);
  JobSpanState& state = job_spans_[slot];
  if (state.job == obs::kInvalidSpan) {
    state.job = spans_->open(obs::SpanKind::kJob, job.spec.name,
                             job.submit_time, span_run_root());
    spans_->at(state.job).job = job.id;
    // The map phase opens with the job: its tasks are runnable (and
    // usually waiting for slots) from submission on.
    state.maps_phase = spans_->open(obs::SpanKind::kPhase, "maps",
                                    job.submit_time, state.job);
  }
  return &state;
}

void Runtime::span_attempt_launched(TaskId attempt, const Job& job,
                                    NodeId node, bool is_map, bool speculative,
                                    TaskId primary) {
  if (spans_ == nullptr) return;
  JobSpanState* state = span_job_state(job);
  const SimTime now = engine_.now();
  obs::SpanId parent;
  if (is_map) {
    if (state->maps_phase == obs::kInvalidSpan) {
      // The barrier re-opened (a completed map was lost to a node
      // failure): a fresh map phase carries the re-execution.
      ++state->maps_phases;
      state->maps_phase =
          spans_->open(obs::SpanKind::kPhase,
                       "maps-" + std::to_string(state->maps_phases), now,
                       state->job);
    }
    if (state->open_map_attempts == 0) {
      ++state->waves;
      state->wave = spans_->open(obs::SpanKind::kWave,
                                 "wave-" + std::to_string(state->waves), now,
                                 state->maps_phase);
    }
    ++state->open_map_attempts;
    parent = state->wave;
  } else {
    if (state->shuffle_phase == obs::kInvalidSpan) {
      state->shuffle_phase =
          spans_->open(obs::SpanKind::kPhase, "shuffle", now, state->job);
      spans_->at(state->shuffle_phase).is_map = false;
    }
    parent = state->reduce_phase != obs::kInvalidSpan ? state->reduce_phase
                                                      : state->shuffle_phase;
  }

  std::string name = speculative ? "spec-" : "";
  name += is_map ? "map-" : "reduce-";
  name += std::to_string(primary);
  const obs::SpanId id = spans_->open(obs::SpanKind::kAttempt,
                                      std::move(name), now, parent);
  obs::Span& span = spans_->at(id);
  span.task = attempt;
  span.node = node;
  span.is_map = is_map;
  span.speculative = speculative;
  span.decision_id = last_decision_id_;
  span.decision_time = last_decision_time_;
  if (!speculative) {
    const obs::SpanId retry_of = span_slot_get(retry_parent_, primary);
    if (retry_of != obs::kInvalidSpan) {
      span.retry_of = retry_of;
      span_slot_set(retry_parent_, primary, obs::kInvalidSpan);
    }
    span_slot_set(last_attempt_span_, primary, id);
  }
  span_slot_set(attempt_spans_, attempt, id);
}

void Runtime::span_attempt_ended(TaskId attempt, obs::SpanOutcome outcome) {
  if (spans_ == nullptr) return;
  const obs::SpanId id = span_slot_get(attempt_spans_, attempt);
  if (id == obs::kInvalidSpan) return;  // already closed by an earlier path
  span_slot_set(attempt_spans_, attempt, obs::kInvalidSpan);
  spans_->close(id, engine_.now(), outcome);
  const obs::Span& span = spans_->at(id);
  if (span.is_map) {
    const auto slot = static_cast<std::size_t>(span.job);
    if (span.job >= 0 && slot < job_spans_.size() &&
        job_spans_[slot].job != obs::kInvalidSpan) {
      JobSpanState& state = job_spans_[slot];
      if (--state.open_map_attempts == 0 &&
          state.wave != obs::kInvalidSpan) {
        spans_->close(state.wave, engine_.now());
        state.wave = obs::kInvalidSpan;
      }
    }
  }
}

void Runtime::span_mark_retry(TaskId primary, TaskId failed_attempt) {
  if (spans_ == nullptr) return;
  const obs::SpanId open_span = span_slot_get(attempt_spans_, failed_attempt);
  if (open_span != obs::kInvalidSpan) {
    span_slot_set(retry_parent_, primary, open_span);
    return;
  }
  // The attempt span is already closed (e.g. a *completed* map lost to
  // a node failure): link the re-execution to its last recorded span.
  const obs::SpanId last = span_slot_get(last_attempt_span_, primary);
  if (last != obs::kInvalidSpan) {
    span_slot_set(retry_parent_, primary, last);
  }
}

void Runtime::span_barrier_crossed(const Job& job) {
  if (spans_ == nullptr) return;
  JobSpanState* state = span_job_state(job);
  const SimTime now = engine_.now();
  if (state->wave != obs::kInvalidSpan) {
    spans_->close(state->wave, now);
    state->wave = obs::kInvalidSpan;
  }
  if (state->maps_phase != obs::kInvalidSpan) {
    spans_->close(state->maps_phase, now);
    state->maps_phase = obs::kInvalidSpan;
  }
  if (state->reduce_phase == obs::kInvalidSpan) {
    state->reduce_phase =
        spans_->open(obs::SpanKind::kPhase, "reduce", now, state->job);
    spans_->at(state->reduce_phase).is_map = false;
  }
}

void Runtime::span_reduce_eligible(const Job& job) {
  if (spans_ == nullptr) return;
  JobSpanState* state = span_job_state(job);
  obs::Span& job_span = spans_->at(state->job);
  if (job_span.reduce_eligible == kTimeNever) {
    job_span.reduce_eligible = engine_.now();
  }
}

void Runtime::span_shuffle_settled(const Job& job, TaskId attempt) {
  if (spans_ == nullptr) return;
  const SimTime now = engine_.now();
  const obs::SpanId id = span_slot_get(attempt_spans_, attempt);
  if (id != obs::kInvalidSpan) spans_->at(id).shuffle_end = now;
  const auto slot = static_cast<std::size_t>(job.id);
  if (slot < job_spans_.size() && job_spans_[slot].job != obs::kInvalidSpan) {
    job_spans_[slot].last_shuffle_end = now;
  }
}

void Runtime::span_job_finished(const Job& job, obs::SpanOutcome outcome) {
  if (spans_ == nullptr) return;
  JobSpanState* state = span_job_state(job);
  const SimTime now = engine_.now();
  const obs::SpanOutcome phase_outcome =
      outcome == obs::SpanOutcome::kOk ? obs::SpanOutcome::kOk
                                       : obs::SpanOutcome::kKilled;
  if (state->wave != obs::kInvalidSpan) {
    spans_->close(state->wave, now, phase_outcome);
    state->wave = obs::kInvalidSpan;
  }
  if (state->maps_phase != obs::kInvalidSpan) {
    spans_->close(state->maps_phase, now, phase_outcome);
    state->maps_phase = obs::kInvalidSpan;
  }
  if (state->shuffle_phase != obs::kInvalidSpan) {
    // A clean finish dates the shuffle's end at the last settle; a
    // teardown cuts it off at the teardown instant.
    const SimTime end = outcome == obs::SpanOutcome::kOk &&
                                state->last_shuffle_end != kTimeNever
                            ? state->last_shuffle_end
                            : now;
    spans_->close(state->shuffle_phase, end, phase_outcome);
    state->shuffle_phase = obs::kInvalidSpan;
  }
  if (state->reduce_phase != obs::kInvalidSpan) {
    spans_->close(state->reduce_phase, now, phase_outcome);
    state->reduce_phase = obs::kInvalidSpan;
  }
  spans_->close(state->job, now, outcome);
}

void Runtime::span_flush_aborted() {
  if (spans_ == nullptr) return;
  spans_->close_open(engine_.now(), obs::SpanOutcome::kAborted);
  attempt_spans_.assign(attempt_spans_.size(), obs::kInvalidSpan);
  for (auto& state : job_spans_) {
    if (state.job == obs::kInvalidSpan) continue;
    state.wave = obs::kInvalidSpan;
    state.maps_phase = obs::kInvalidSpan;
    state.shuffle_phase = obs::kInvalidSpan;
    state.reduce_phase = obs::kInvalidSpan;
    state.open_map_attempts = 0;
  }
}

void Runtime::span_refresh_decisions() {
  if (spans_ == nullptr) return;
  const obs::DecisionLog* log = policy_->decision_log();
  if (log == nullptr) return;
  const auto& decisions = log->decisions();
  for (; decisions_seen_ < decisions.size(); ++decisions_seen_) {
    const obs::SlotDecision& d = decisions[decisions_seen_];
    // Only decisions that moved slot targets can enable a launch; holds
    // keep the previous annotation current.
    if (d.changed_slots()) {
      last_decision_id_ = d.id;
      last_decision_time_ = d.time;
    }
  }
}

}  // namespace smr::mapreduce
