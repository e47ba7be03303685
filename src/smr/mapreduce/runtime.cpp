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

obs::JobLabel label_of(const Job& job) {
  return {job.id, job.spec.name, job.submit_time};
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
  node_bg_prev_.assign(node_alive_.size(), cluster::BackgroundLoad{});
  node_loaded_.assign(node_alive_.size(), 0);
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

Runtime::TickWork Runtime::tick_work() const {
  TickWork work;
  for (const ShardScratch& s : shards_) {
    work.quiet_replays += s.quiet_replays;
    work.capacity_resolves += s.capacity_resolves;
    work.load_rebuilds += s.load_rebuilds;
  }
  work.progress_terms = progress_terms_;
  work.settle_checks = settle_checks_;
  return work;
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
    // A never-run map with no input weighs 0.5, not +0.0: keep it in the
    // progress window.
    if (task.input_size == 0) job.map_window.hi = static_cast<int>(b) + 1;
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
    // Likewise an empty partition weighs 1/3 (its shuffle) before it runs.
    if (task.partition_size == 0) job.reduce_window.hi = r + 1;
    job.reduces.push_back(task);
  }

  jobs_.push_back(std::move(job));
  mark_all_shards_dirty();  // jobs_ may have moved every task
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
      recorder_.job_submitted(engine_.now(), id);
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
  record_slot_targets();

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
      recorder_.job_submitted(engine_.now(), id);
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
  recorder_.run_end(result_.makespan, result_.completed);
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

// --- Shadow links ------------------------------------------------------------

void Runtime::set_shadow_link(TaskId primary, TaskId shadow) {
  if (static_cast<std::size_t>(primary) >= shadow_link_.size()) {
    shadow_link_.resize(static_cast<std::size_t>(primary) + 1, kInvalidTask);
  }
  shadow_link_[static_cast<std::size_t>(primary)] = shadow;
}

// The fluid tick (on_tick) and its per-shard stages live in runtime_shard.cpp.

template <class Task>
void Runtime::complete_task(Job& job, Task& task, TaskId attempt_id) {
  using Kind = TaskKind<Task>;
  SMR_CHECK(task.phase != Kind::kDone);
  // A surviving shadow loses the race the moment the primary completes.
  if (has_shadow(task.id)) kill_shadow(task);
  task.phase = Kind::kDone;
  task.finish_time = engine_.now();
  Job::TaskWindow& window = Kind::window(job);
  const std::vector<Task>& tasks = Kind::tasks(job);
  while (window.done < window.hi &&
         tasks[static_cast<std::size_t>(window.done)].phase == Kind::kDone) {
    ++window.done;
  }
  recorder_.attempt_finished(task.finish_time, job.id, task.id, attempt_id,
                             task.node, Kind::kIsMap,
                             task.finish_time - task.start_time);
  Kind::finish(trackers_[static_cast<std::size_t>(task.node)], attempt_id);
  mark_node_dirty(task.node);
  ++Kind::finished(job);
  task_completed(job, task);
}

void Runtime::task_completed(Job& job, const MapTask& task) {
  if (job.map_completion_fraction() >= config_.reduce_slowstart) {
    recorder_.reduce_eligible(engine_.now(), label_of(job));
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
    // Its shuffling reduces become settle candidates: this tick's settle
    // stage rebuilds its lists, and every later census lists them.
    barrier_crossed_ = true;
    mark_all_shards_dirty();
    job.maps_done_time = engine_.now();
    // Kill accumulated floating-point drift: every partition is now fully
    // available by definition.
    for (auto& reduce : job.reduces) {
      reduce.available = static_cast<double>(reduce.partition_size);
      reduce.fetched = std::min(reduce.fetched, reduce.available);
    }
    recorder_.barrier_crossed(engine_.now(), label_of(job));
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
  recorder_.shuffle_settled(engine_.now(), task.job, task.id, task.node);
  if (task.partition_size == 0) {
    // Nothing to sort or reduce; the task completes immediately (zero-size
    // partitions never have speculative shadows).
    complete_task(job, task, task.id);
  }
}

void Runtime::task_completed(Job& job, const ReduceTask& /*task*/) {
  if (job.reduces_finished == static_cast<int>(job.reduces.size()) &&
      job.maps_all_finished()) {
    job.finish_time = engine_.now();
    --unfinished_jobs_;
    deactivate_job(job.id);
    recorder_.job_finished(engine_.now(), label_of(job));
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
  // the span annotations caught up with the policy's decisions, and every
  // span closed (kAborted).  The decision/trace logs themselves are
  // append-only and already consistent.
  record_sample(slot_totals(abort_time_));
  recorder_.abort(abort_time_, policy_->decision_log());
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
  // here; report the cluster totals so the counter tracks stay truthful.
  policy_->on_heartbeat(tracker, stats);
  record_slot_targets();
  recorder_.heartbeat();
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
      const MapTask& task = attempt<MapTask>(id);
      if ((is_shadow && !victim_is_shadow) ||
          (is_shadow == victim_is_shadow && task.start_time > latest)) {
        latest = task.start_time;
        victim = id;
        victim_is_shadow = is_shadow;
      }
    }
    SMR_CHECK(victim != kInvalidTask);
    kill_attempt<MapTask>(victim);
    ++killed_map_tasks_;
  }
}

void Runtime::rollback_progress(const MapTask& task) {
  Job& job = job_of(task.job);
  const double processed = task.phase == MapPhase::kMapping
                               ? task.phase_done
                               : static_cast<double>(task.input_size);
  job.map_input_processed -= processed;
  cum_map_input_ -= processed;
  node_map_input_[static_cast<std::size_t>(task.node)] -= processed;
}

void Runtime::rollback_progress(const ReduceTask& task) {
  job_of(task.job).bytes_shuffled -= task.fetched;
  cum_shuffled_ -= task.fetched;
  node_shuffled_in_[static_cast<std::size_t>(task.node)] -= task.fetched;
}

// --- The attempt lifecycle ---------------------------------------------------
//
// Every step is written once for both task kinds: the kill and requeue steps
// here, complete_task above, fail_attempt with the fault injection, and the
// launch and speculation steps with task assignment.  What differs between
// maps and reduces is reached only through TaskKind<Task> and the
// rollback_progress / prepare_shadow / task_completed overloads.

template <class Task>
void Runtime::requeue_running(Task& task) {
  using Kind = TaskKind<Task>;
  SMR_CHECK(task.running());
  // A requeued primary cannot race its own shadow: retire the shadow too.
  if (has_shadow(task.id)) kill_shadow(task);
  Job& job = job_of(task.job);
  // Roll the fluid accounting back: the partial work no longer counts (a
  // reduce's fetched bytes sat on the lost node's disk).
  rollback_progress(task);
  recorder_.attempt_killed(engine_.now(), task.job, task.id, task.node,
                           Kind::kIsMap, obs::KillCause::kRequeued);
  Kind::finish(trackers_[static_cast<std::size_t>(task.node)], task.id);
  mark_node_dirty(task.node);
  Kind::reset(task);
  --Kind::assigned(job);
}

template <class Task>
void Runtime::kill_attempt(TaskId id) {
  const TaskRef ref = task_ref_at(id);
  if (ref.speculative) {
    kill_shadow(primary_of<Task>(ref));
  } else {
    requeue_running(attempt<Task>(id));
  }
}

template <class Task>
void Runtime::lose_running(std::vector<TaskId> running) {
  for (TaskId id : running) {
    kill_attempt<Task>(id);
    ++tasks_lost_to_failures_;
  }
}

void Runtime::requeue_completed_map(Job& job, MapTask& task) {
  SMR_CHECK(task.phase == MapPhase::kDone);
  recorder_.completed_map_lost(engine_.now(), task.job, task.id, task.node);
  --job.maps_finished;
  --job.maps_assigned;
  job.map_window.done =
      std::min(job.map_window.done, static_cast<int>(&task - job.maps.data()));
  rollback_progress(task);  // all of its input, the task being done
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
  TaskKind<MapTask>::reset(task);
  task.finish_time = kTimeNever;
}

void Runtime::fail_node(NodeId node) {
  if (stopping_) return;  // failure scheduled past the end of the run
  SMR_CHECK(node >= 0 && static_cast<std::size_t>(node) < node_alive_.size());
  SMR_CHECK_MSG(node_alive_[static_cast<std::size_t>(node)],
                "node " << node << " failed twice");
  node_alive_[static_cast<std::size_t>(node)] = false;
  recorder_.node_failed(engine_.now(), node);
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
  record_slot_targets();

  // Kill everything running there (copies: killing mutates the lists).
  lose_running<MapTask>(tracker.running_map_tasks());
  lose_running<ReduceTask>(tracker.running_reduce_tasks());

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
  node_alive_[static_cast<std::size_t>(node)] = true;
  TaskTracker& tracker = trackers_[static_cast<std::size_t>(node)];
  // A fresh tracker process rejoins: no running tasks (the failure already
  // emptied the lists), initial slot targets, a clean blacklist record.
  tracker.set_blacklisted(false);
  node_attempt_failures_[static_cast<std::size_t>(node)] = 0;
  tracker.set_map_target(config_.initial_map_slots);
  tracker.set_reduce_target(config_.initial_reduce_slots);
  record_slot_targets();
  ++nodes_recovered_;
  recorder_.node_recovered(engine_.now(), node);
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
  // The lists arrive in id order: the collection order (tracker lists) is
  // launch history, not deterministic rank.  A failure can tear a job down
  // and retire other doomed attempts mid-sweep; fail_attempt re-checks.
  for (TaskId id : tick_.doomed_maps) fail_attempt<MapTask>(id);
  for (TaskId id : tick_.doomed_reduces) fail_attempt<ReduceTask>(id);
}

template <class Task>
void Runtime::fail_attempt(TaskId id) {
  using Kind = TaskKind<Task>;
  const TaskRef* it = find_task_ref(id);
  if (it == nullptr) return;  // retired by an earlier teardown
  const TaskRef ref = *it;
  Job& job = job_of(ref.job);
  if (job.failed) return;
  Task& primary = primary_of<Task>(ref);
  const NodeId node = attempt<Task>(id).node;
  ++task_attempt_failures_;
  ++primary.failed_attempts;
  const bool retried =
      !ref.speculative && primary.failed_attempts < config_.max_attempts;
  recorder_.attempt_failed(engine_.now(), job.id, id, primary.id, node,
                           Kind::kIsMap, primary.failed_attempts, retried);
  if (ref.speculative) {
    // The shadow dies; the primary keeps running (but the failure counts
    // against the shared attempt budget, as in Hadoop).
    kill_shadow(primary);
  } else if (retried) {
    requeue_running(primary);  // emits TASK_KILLED, frees the slot
    ++task_retries_;
  }
  record_attempt_failure_on(node);
  if (primary.failed_attempts >= config_.max_attempts) {
    fail_job(job, std::string(Kind::kName) + " task " +
                      std::to_string(primary.id) + " failed " +
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
  trackers_[n].set_blacklisted(true);
  record_slot_targets();
  ++nodes_blacklisted_;
  recorder_.node_blacklisted(engine_.now(), node, node_attempt_failures_[n]);
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
    if (task.running()) requeue_running(task);
  }
  for (auto& task : job.reduces) {
    if (task.running()) requeue_running(task);
  }
  job.failed = true;
  job.failure_reason = std::move(reason);
  job.finish_time = engine_.now();
  --unfinished_jobs_;
  deactivate_job(job.id);
  ++failed_jobs_;
  recorder_.job_failed(engine_.now(), label_of(job), job.failure_reason);
  if (on_job_finished_) on_job_finished_(job);
  check_all_done();  // this may have been the last unfinished job
}

void Runtime::on_policy_period() {
  if (stopping_) return;
  const obs::DecisionLog* decisions = policy_->decision_log();
  const std::size_t decisions_before =
      decisions != nullptr ? decisions->size() : 0;
  policy_->on_period(trackers(), snapshot());
  record_slot_targets();
  recorder_.policy_period(engine_.now(), decisions, decisions_before);
}

std::pair<int, int> Runtime::live_slot_targets() const {
  // Live capacity only: dead and blacklisted trackers contribute nothing,
  // whatever stale targets they may carry.
  std::pair<int, int> totals{0, 0};
  for (std::size_t n = 0; n < trackers_.size(); ++n) {
    if (!node_alive_[n] || trackers_[n].blacklisted()) continue;
    totals.first += trackers_[n].map_target();
    totals.second += trackers_[n].reduce_target();
  }
  return totals;
}

void Runtime::record_slot_targets() {
  // Every change of a target, a liveness or a blacklist flag is followed
  // by this call, so the recorder's last totals are the ones before it.
  if (!recorder_.tracing()) return;
  const auto [map_total, reduce_total] = live_slot_targets();
  recorder_.slot_targets(engine_.now(), map_total, reduce_total);
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

std::vector<std::size_t> Runtime::assignment_order(bool for_map) const {
  // Exact: job_order only reorders `active`, and the assignment loops skip
  // every job without a pending task of the kind.
  const std::span<const std::size_t> active = active_jobs_now(engine_.now());
  const bool any_pending = std::ranges::any_of(active, [&](std::size_t j) {
    return (for_map ? jobs_[j].maps_pending() : jobs_[j].reduces_pending()) > 0;
  });
  if (!any_pending) return {};
  return scheduler_->job_order(jobs_, active, for_map);
}

bool Runtime::assign_one_map(TaskTracker& tracker) {
  for (std::size_t job_index : assignment_order(/*for_map=*/true)) {
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
    start_attempt(job, *chosen, tracker, chosen->id);
    return true;
  }
  if (config_.speculative_execution && launch_speculative<MapTask>(tracker)) {
    return true;
  }
  return false;
}

bool Runtime::assign_one_reduce(TaskTracker& tracker) {
  for (std::size_t job_index : assignment_order(/*for_map=*/false)) {
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
      start_attempt(job, task, tracker, task.id);
      return true;
    }
  }
  if (config_.speculative_execution && config_.speculative_reduce_execution &&
      launch_speculative<ReduceTask>(tracker)) {
    return true;
  }
  return false;
}

template <class Task>
void Runtime::start_attempt(Job& job, Task& task, TaskTracker& tracker,
                            TaskId primary) {
  using Kind = TaskKind<Task>;
  const SimTime now = engine_.now();
  const bool speculative = task.id != primary;
  task.start_time = now;
  task.fail_at_progress = draw_fail_threshold();
  Kind::launch(tracker, task.id);
  mark_node_dirty(tracker.node());
  if (!speculative) {
    Job::TaskWindow& window = Kind::window(job);
    window.hi = std::max(window.hi,
                         static_cast<int>(&task - Kind::tasks(job).data()) + 1);
    ++Kind::assigned(job);
    if (!job.started()) job.start_time = now;
  }
  recorder_.attempt_launched(now, label_of(job), task.id, primary,
                             tracker.node(), Kind::kIsMap);
}

bool Runtime::prepare_shadow(const Job& job, MapTask& shadow) {
  shadow.phase = MapPhase::kMapping;
  const auto& file = dfs_.file(job.input_file);
  const auto& block = file.blocks[static_cast<std::size_t>(shadow.split_index)];
  shadow.local = block.has_replica_on(shadow.node);
  if (!shadow.local) {
    // Fall back to any live node when every replica holder is dead (the
    // re-replication model of assign_one_map); previously this crashed
    // with dfs_replication == 1 and the sole replica's node down.
    const NodeId src = pick_live_source(block.replicas);
    if (src == kInvalidNode) return false;  // nowhere to read from: skip
    shadow.src_node = src;
  }
  return true;
}

bool Runtime::prepare_shadow(const Job& /*job*/, ReduceTask& shadow) {
  shadow.phase = ReducePhase::kShuffling;
  shadow.available = static_cast<double>(shadow.partition_size);  // post-barrier
  shadow.fetched = 0.0;
  shadow.shuffle_end_time = kTimeNever;
  return true;
}

template <class Task>
bool Runtime::launch_speculative(TaskTracker& tracker) {
  using Kind = TaskKind<Task>;
  const SimTime now = engine_.now();
  for (std::size_t job_index :
       scheduler_->job_order(jobs_, active_jobs_now(now), Kind::kIsMap)) {
    Job& job = jobs_[job_index];
    if (!Kind::speculation_open(job)) continue;
    std::vector<Task>& tasks = Kind::tasks(job);
    // Mean progress over the whole phase (finished tasks count 1.0), as in
    // Hadoop's speculation heuristic; comparing only against other
    // *running* tasks would blind the detector in the final wave, where
    // everyone still running is a straggler.
    const double mean_progress = Kind::progress(job);

    // Only the progress window can hold a running task.
    Task* straggler = nullptr;
    const Job::TaskWindow& window = Kind::window(job);
    for (int i = window.done; i < window.hi; ++i) {
      Task& task = tasks[static_cast<std::size_t>(i)];
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

    Task shadow = *straggler;
    shadow.id = next_task_id_++;
    shadow.node = tracker.node();
    shadow.phase_done = 0.0;
    // A fresh attempt redraws its cost (the straggle is attempt-specific).
    shadow.cost_factor = rng_.jitter(job.spec.duration_cv);
    if (!prepare_shadow(job, shadow)) continue;
    shadow.failed_attempts = 0;  // the budget lives on the primary
    ShadowPool<Task>& pool = shadows<Task>();
    if (pool.free.empty()) mark_all_shards_dirty();  // the pool grows
    const std::int32_t slot = pool.acquire();
    const TaskId shadow_id = shadow.id;
    set_task_ref(shadow_id,
                 TaskRef{job.id, static_cast<int>(straggler - tasks.data()),
                         Kind::kIsMap, /*speculative=*/true, slot});
    set_shadow_link(straggler->id, shadow_id);
    Task& launched = pool.slots[static_cast<std::size_t>(slot)];
    launched = std::move(shadow);
    ++pool.launches;
    start_attempt(job, launched, tracker, straggler->id);
    return true;
  }
  return false;
}

template <class Task>
void Runtime::kill_shadow(Task& primary) {
  const TaskId shadow_id = shadow_id_of(primary.id);
  SMR_CHECK(shadow_id != kInvalidTask);
  const TaskRef ref = task_ref_at(shadow_id);
  Task& shadow = shadows<Task>().slots[static_cast<std::size_t>(ref.shadow_slot)];
  // The shadow's progress was duplicate work: back it out.
  rollback_progress(shadow);
  recorder_.attempt_killed(engine_.now(), shadow.job, shadow_id, shadow.node,
                           TaskKind<Task>::kIsMap, obs::KillCause::kShadowRetired);
  TaskKind<Task>::finish(trackers_[static_cast<std::size_t>(shadow.node)],
                         shadow_id);
  mark_node_dirty(shadow.node);
  set_shadow_link(primary.id, kInvalidTask);
  shadows<Task>().release(ref.shadow_slot);
  erase_task_ref(shadow_id);
}

template <class Task>
void Runtime::win_speculative(TaskId shadow_id) {
  using Kind = TaskKind<Task>;
  const TaskRef ref = task_ref_at(shadow_id);
  SMR_CHECK(ref.speculative && ref.is_map == Kind::kIsMap);
  Job& job = job_of(ref.job);
  Task& primary = primary_of<Task>(ref);
  const Task shadow =
      shadows<Task>().slots[static_cast<std::size_t>(ref.shadow_slot)];
  SMR_CHECK(primary.phase != Kind::kDone);

  // The original attempt loses: discard its partial work and free it.
  rollback_progress(primary);
  recorder_.attempt_killed(engine_.now(), job.id, primary.id, primary.node,
                           Kind::kIsMap, obs::KillCause::kLostRace);
  Kind::finish(trackers_[static_cast<std::size_t>(primary.node)], primary.id);
  mark_node_dirty(primary.node);

  // The task completes where the shadow ran.
  Kind::adopt(primary, shadow);
  set_shadow_link(primary.id, kInvalidTask);
  ShadowPool<Task>& pool = shadows<Task>();
  pool.release(ref.shadow_slot);
  erase_task_ref(shadow_id);
  ++pool.wins;
  complete_task(job, primary, shadow_id);
}

template <class Task>
void Runtime::finish_attempts(const std::vector<TaskId>& ids) {
  for (TaskId id : ids) {
    const TaskRef* ref = find_task_ref(id);
    if (ref == nullptr) continue;  // shadow retired this tick
    if (ref->speculative) {
      win_speculative<Task>(id);
      continue;
    }
    Task& task = attempt<Task>(id);
    if (task.phase == TaskKind<Task>::kDone) continue;  // shadow won this tick
    complete_task(job_of(task.job), task, id);
  }
}

// The fluid tick (runtime_shard.cpp) drains its finished attempts here.
template void Runtime::finish_attempts<MapTask>(const std::vector<TaskId>&);
template void Runtime::finish_attempts<ReduceTask>(const std::vector<TaskId>&);

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
    progress_terms_ += static_cast<std::uint64_t>(
        job.map_window.hi - job.map_window.done + job.reduce_window.hi -
        job.reduce_window.done);
  }
  metrics::SlotSample slot_sample = slot_totals(now);
  record_sample(slot_sample);
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

metrics::SlotSample Runtime::slot_totals(SimTime now) const {
  metrics::SlotSample totals;
  totals.time = now;
  for (const auto& tracker : trackers_) {
    totals.map_target += tracker.map_target();
    totals.reduce_target += tracker.reduce_target();
    totals.running_maps += tracker.running_maps();
    totals.running_reduces += tracker.running_reduces();
  }
  return totals;
}

void Runtime::record_sample(const metrics::SlotSample& totals) {
  if (!recorder_.metering()) return;
  double pending_maps = 0.0;
  double pending_reduces = 0.0;
  double shuffle_backlog = 0.0;
  for (const std::size_t j : active_jobs_now(totals.time)) {
    const Job& job = jobs_[j];
    pending_maps += job.maps_pending();
    pending_reduces += job.reduces_pending();
    // A reduce outside the progress window is not running.
    for (int i = job.reduce_window.done; i < job.reduce_window.hi; ++i) {
      const ReduceTask& task = job.reduces[static_cast<std::size_t>(i)];
      if (task.running() && task.phase == ReducePhase::kShuffling) {
        shuffle_backlog += task.backlog();
      }
    }
  }
  recorder_.sample(totals.time, totals, pending_maps, pending_reduces,
                   shuffle_backlog);
}

}  // namespace smr::mapreduce
