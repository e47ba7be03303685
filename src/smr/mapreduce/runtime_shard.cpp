// The fluid tick: conservative time-window execution of the data plane over
// node shards (docs/PERF.md §7).
//
// The cluster's worker nodes are partitioned into contiguous shards (one
// shard unless RuntimeConfig::shard_count asks for more).  Each tick is one
// conservative window: the fluid step's lookahead is the tick itself, which
// is strictly below the minimum cross-shard interaction latency
// (control-plane effects — assignments, requeues — only happen on
// heartbeats, and data-plane coupling inside the tick is mediated by the
// single global network solve at the window edge).  Within the window every
// shard advances its own nodes; at the barrier the cross-shard effects are
// applied serially in shard order.
//
// Byte-identity across shard counts is by construction, not by tolerance:
//   * Shards are contiguous node ranges, so concatenating per-shard output
//     in shard order reproduces the node order of a single shard exactly —
//     flows for the network solve, compute entries, trace events.
//   * Job-level floating-point accumulators (bytes_shuffled,
//     map_input_processed, the cluster cum_* totals) are never touched
//     inside the window.  Each shard records one (job, delta) mailbox entry
//     per task touch; the barrier replays the mailboxes in (shard, seq)
//     order, which is node order, so every sum is bit-for-bit the same for
//     any shard count.
//   * Completions, settles and doomed attempts are merged and sorted by
//     task id before the serial application loop.
//   * The per-node solver instances and their caches are owned by the
//     node's shard, so solver call/hit counters are identical too.
// None of this depends on the pool size: a 1-thread (inline) pool runs the
// shards serially in shard order with the same merge, so any thread count
// produces the same bytes.  A lone shard runs inline without the pool.

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <iomanip>
#include <ostream>

#include "smr/common/thread_pool.hpp"
#include "smr/mapreduce/runtime.hpp"

namespace smr::mapreduce {

namespace {
constexpr double kByteEps = 1.0;  // one byte of slack on fluid comparisons

double per_mib_to_per_byte(double per_mib) {
  return per_mib / static_cast<double>(kMiB);
}

double wall_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}
}  // namespace

void Runtime::setup_shards() {
  const int n = config_.cluster.worker_count();
  const int count = std::max(1, std::min(config_.shard_count, n));
  shards_.resize(static_cast<std::size_t>(count));
  shard_stats_.assign(static_cast<std::size_t>(count), ShardStats{});
  node_shard_.assign(static_cast<std::size_t>(n), 0);
  for (int s = 0; s < count; ++s) {
    ShardScratch& shard = shards_[static_cast<std::size_t>(s)];
    shard.index = s;
    shard.node_lo = static_cast<NodeId>(s * n / count);
    shard.node_hi = static_cast<NodeId>((s + 1) * n / count);
    ShardStats& stats = shard_stats_[static_cast<std::size_t>(s)];
    stats.shard = s;
    stats.node_begin = shard.node_lo;
    stats.node_end = shard.node_hi;
    for (NodeId d = shard.node_lo; d < shard.node_hi; ++d) {
      node_shard_[static_cast<std::size_t>(d)] = static_cast<std::uint16_t>(s);
    }
  }
}

// --- Stage A: per-shard census ----------------------------------------------
//
// Resolves every running attempt on the shard's nodes once: one pass over the
// tracker lists and the dense task-ref table builds the busy-node list (owned
// nodes with a running attempt) and SoA views (ids / task pointers / job
// pointers / specs), both in node order, and a sweep over the views takes the
// occupancy census and the network-participant and settle-candidate lists.
// It runs only when the shard is marked dirty (a launch, finish or phase
// change on an owned node, or a growth of the task storage) or a doom scan
// is due; otherwise the scratch still holds the previous census, which is
// identical by construction.  Every later stage indexes these instead of
// re-resolving attempt ids, and walks the busy nodes only: an idle node has no
// flows and no loads, so it makes no solver call whether it is visited or not,
// and a node turning busy again was marked dirty by the launch, so it
// re-solves.  Pointers stay valid for the whole tick: no attempt launches
// happen outside heartbeats, and teardown paths run after the stages that
// use them.
//
// Doom detection rides it too: an attempt whose progress crossed its
// injected-failure threshold last tick dies at this tick boundary, before
// the census is used (freeing its slot for the next heartbeat's assignment
// round).  Firing failures mutates the tracker lists, so the census is
// re-run afterwards — a rare second window.

void Runtime::shard_census(ShardScratch& s, bool detect_doom) {
  const auto lo = static_cast<std::size_t>(s.node_lo);
  const auto hi = static_cast<std::size_t>(s.node_hi);
  if (detect_doom) {
    s.doomed_maps.clear();
    s.doomed_reduces.clear();
  }
  if (!s.dirty && !detect_doom) return;
  s.dirty = false;
  s.settle_primaries.clear();
  s.settle_shadows.clear();
  s.shuffle_entries.clear();
  s.remote_entries.clear();
  s.busy.clear();
  s.maps.clear();
  s.reds.clear();
  const auto resolve = [this]<class Task>(const std::vector<TaskId>& running,
                                          ShardScratch::Resolved<Task>& out) {
    const auto begin = static_cast<std::uint32_t>(out.id.size());
    for (TaskId id : running) {
      const TaskRef& ref = task_refs_[static_cast<std::size_t>(id)];
      Job* job = &jobs_[static_cast<std::size_t>(ref.job)];
      out.id.push_back(id);
      out.task.push_back(&attempt_at<Task>(ref));
      out.job.push_back(job);
      out.spec.push_back(&job->spec);
    }
    out.range.emplace_back(begin, static_cast<std::uint32_t>(out.id.size()));
  };
  for (std::size_t d = lo; d < hi; ++d) {
    const TaskTracker& tracker = trackers_[d];
    if (tracker.running_map_tasks().empty() &&
        tracker.running_reduce_tasks().empty()) {
      continue;
    }
    s.busy.push_back(static_cast<NodeId>(d));
    resolve(tracker.running_map_tasks(), s.maps);
    resolve(tracker.running_reduce_tasks(), s.reds);
  }
  // The census over the resolved arrays, by busy position.
  s.occ.assign(s.busy.size(), cluster::Occupancy{});
  for (std::size_t b = 0; b < s.busy.size(); ++b) {
    auto& o = s.occ[b];
    const auto [mb, me] = s.maps.range[b];
    for (std::uint32_t i = mb; i < me; ++i) {
      const MapTask* task = s.maps.task[i];
      const bool remote_mapping =
          task->phase == MapPhase::kMapping && !task->local;
      o.threads += 1;
      o.io_streams += remote_mapping ? 0 : 1;
      o.memory_demand += s.maps.spec[i]->map_task_memory;
      if (remote_mapping) s.remote_entries.push_back(i);
      if (detect_doom && task->progress() >= task->fail_at_progress) {
        s.doomed_maps.push_back(s.maps.id[i]);
      }
    }
    const auto [rb, re] = s.reds.range[b];
    for (std::uint32_t i = rb; i < re; ++i) {
      const ReduceTask* task = s.reds.task[i];
      const bool shuffling = task->phase == ReducePhase::kShuffling;
      o.threads += shuffling ? 2 : 1;
      o.io_streams += 1;
      o.memory_demand += s.reds.spec[i]->reduce_task_memory;
      // Shuffle-settle candidates: only a job past its barrier can settle
      // a reduce, and a job that crosses it after this census rebuilds the
      // lists at the settle stage (barrier_crossed_).  Conditions are
      // re-checked at settle time; phases can only *enter* kShuffling via
      // requeues, which never happen inside a tick.
      if (shuffling) {
        const TaskId id = s.reds.id[i];
        s.shuffle_entries.push_back(i);
        if (s.reds.job[i]->maps_all_finished()) {
          (task_refs_[static_cast<std::size_t>(id)].speculative
               ? s.settle_shadows
               : s.settle_primaries)
              .push_back(id);
        }
      }
      if (detect_doom && task->progress() >= task->fail_at_progress) {
        s.doomed_reduces.push_back(s.reds.id[i]);
      }
    }
  }
}

// --- Stage B: per-shard flow collection ------------------------------------

void Runtime::shard_collect_flows(ShardScratch& s) {
  const double dt = config_.tick;
  const int n = config_.cluster.worker_count();
  // Only last tick's shuffle receivers can hold a nonzero fetch count.
  for (std::size_t f = 0; f < s.flows.size(); ++f) {
    if (s.flow_is_shuffle[f]) {
      tick_.fetch_streams[static_cast<std::size_t>(s.flows[f].dst)] = 0;
    }
  }
  s.flows.clear();
  s.flow_entry.clear();
  s.flow_is_shuffle.clear();
  s.flow_pos.clear();
  // Walk only the network participants collected by the census.  Both lists
  // are in node order, so advancing each cursor to the end of the node's SoA
  // range visits, per node, shuffling reduces first, then remote-reading
  // maps.
  std::size_t sp = 0;
  std::size_t rp = 0;
  for (std::size_t b = 0; b < s.busy.size(); ++b) {
    const auto d = static_cast<std::size_t>(s.busy[b]);
    const auto pos = static_cast<std::uint32_t>(b);
    const NodeId dst = trackers_[d].node();
    const std::uint32_t re = s.reds.range[b].second;
    for (; sp < s.shuffle_entries.size() && s.shuffle_entries[sp] < re; ++sp) {
      const std::uint32_t i = s.shuffle_entries[sp];
      const ReduceTask& task = *s.reds.task[i];
      if (task.backlog() <= kByteEps) continue;
      tick_.fetch_streams[static_cast<std::size_t>(dst)] +=
          std::min(config_.parallel_copies, n);
      const JobSpec& spec = *s.reds.spec[i];
      cluster::NetFlow flow;
      flow.dst = dst;
      flow.src = kInvalidNode;  // diffuse pull from every node
      flow.rate_cap = std::min(task.backlog() / dt, spec.shuffle_fetch_cap);
      s.flows.push_back(flow);
      s.flow_entry.push_back(i);
      s.flow_is_shuffle.push_back(1);
      s.flow_pos.push_back(pos);
    }
    const std::uint32_t me = s.maps.range[b].second;
    for (; rp < s.remote_entries.size() && s.remote_entries[rp] < me; ++rp) {
      const std::uint32_t i = s.remote_entries[rp];
      const MapTask& task = *s.maps.task[i];
      const JobSpec& spec = *s.maps.spec[i];
      const auto& node_spec = config_.cluster.workers[static_cast<std::size_t>(dst)];
      const double cpu_per_byte =
          per_mib_to_per_byte(spec.map_cpu_per_mib) * task.cost_factor;
      const double cpu_rate = node_spec.cpu_speed / cpu_per_byte;
      cluster::NetFlow flow;
      flow.dst = dst;
      flow.src = task.src_node;
      flow.rate_cap = std::min(task.phase_remaining() / dt, cpu_rate);
      s.flows.push_back(flow);
      s.flow_entry.push_back(i);
      s.flow_is_shuffle.push_back(0);
      s.flow_pos.push_back(pos);
    }
  }
}

// --- Stage C: per-shard disk cap, background, solves, integration ----------

void Runtime::shard_solve_integrate(ShardScratch& s) {
  const double dt = config_.tick;
  TickScratch& t = tick_;
  const std::size_t busy_n = s.busy.size();

  // 3. Cap shuffle ingest by each owned receiver's disk share.  Every flow
  // into an owned node was collected by this shard, so the local demand is
  // the full demand.
  s.shuffle_disk_demand.assign(busy_n, 0.0);
  for (std::size_t f = 0; f < s.flows.size(); ++f) {
    if (!s.flow_is_shuffle[f]) continue;
    const JobSpec& spec = *s.reds.spec[s.flow_entry[f]];
    s.shuffle_disk_demand[s.flow_pos[f]] +=
        t.net_rates[s.flow_base + f] * spec.shuffle_disk_factor;
  }
  s.shuffle_scale.assign(busy_n, 1.0);
  for (std::size_t b = 0; b < busy_n; ++b) {
    const double demand = s.shuffle_disk_demand[b];
    if (demand <= 0.0) continue;  // no ingest, nothing to cap
    const double allowed =
        config_.shuffle_disk_share *
        cluster::ComputeModel::effective_disk(
            config_.cluster.workers[static_cast<std::size_t>(s.busy[b])], s.occ[b]);
    if (demand > allowed) s.shuffle_scale[b] = allowed / demand;
  }
  for (std::size_t f = 0; f < s.flows.size(); ++f) {
    if (s.flow_is_shuffle[f]) {
      t.net_rates[s.flow_base + f] *= s.shuffle_scale[s.flow_pos[f]];
    }
  }

  // 4. Background load from shuffle ingest on owned nodes.
  s.background.assign(busy_n, cluster::BackgroundLoad{});
  for (std::size_t f = 0; f < s.flows.size(); ++f) {
    if (!s.flow_is_shuffle[f]) continue;
    const JobSpec& spec = *s.reds.spec[s.flow_entry[f]];
    auto& bg = s.background[s.flow_pos[f]];
    bg.cpu_cores +=
        t.net_rates[s.flow_base + f] * per_mib_to_per_byte(spec.shuffle_cpu_per_mib);
    bg.disk_rate += t.net_rates[s.flow_base + f] * spec.shuffle_disk_factor;
  }

  // 5. Per-node compute solve over owned busy nodes (the node models, their
  // caches and the per-node change state are all owned by this shard).
  // The (task, rate) pairs come out in node order, which keeps the
  // floating-point accumulation below bit-for-bit reproducible.
  //
  // A node's solve inputs are its loads (pure functions of its running set,
  // each task's phase/local/cost_factor and, for remote-read maps only, the
  // per-tick network grant), its occupancy (a function of the running set)
  // and its shuffle background.  Every change to the loads or the
  // occupancy marks the node dirty: a launch or finish at its call site, a
  // phase transition in the integration and settle stages, and a grant that
  // differs from last tick's in on_tick.  Only a dirty node rebuilds its
  // loads.  A clean node with a background bit-equal to its last solve's
  // replays its model's rates; one whose background moved re-solves its
  // cached flows for the new capacities (docs/PERF.md §15).  Either way
  // the solver counters read as if the loads had been rebuilt and solved.
  s.compute.clear();
  for (std::size_t b = 0; b < busy_n; ++b) {
    const auto d = static_cast<std::size_t>(s.busy[b]);
    const auto& node_spec = config_.cluster.workers[d];
    const cluster::BackgroundLoad& bg = s.background[b];
    cluster::ComputeModel& model = node_models_[d];
    if (!node_dirty_[d]) {
      if (!node_loaded_[d]) continue;  // no loads last rebuild, none now
      if (bg.cpu_cores == node_bg_prev_[d].cpu_cores &&
          bg.disk_rate == node_bg_prev_[d].disk_rate) {
        model.count_memo_hit();
        ++s.quiet_replays;
        emit_compute(s, b, model.rates());
      } else {
        node_bg_prev_[d] = bg;
        ++s.capacity_resolves;
        emit_compute(s, b, model.solve_capacities(node_spec, s.occ[b], bg));
      }
      continue;
    }
    node_dirty_[d] = 0;
    node_bg_prev_[d] = bg;
    s.loads.clear();
    const auto [mb, me] = s.maps.range[b];
    for (std::uint32_t i = mb; i < me; ++i) {
      const MapTask& task = *s.maps.task[i];
      const JobSpec& spec = *s.maps.spec[i];
      cluster::PhaseLoad load;
      if (task.phase == MapPhase::kMapping) {
        load.cpu_per_byte = per_mib_to_per_byte(spec.map_cpu_per_mib) * task.cost_factor;
        load.disk_per_byte = task.local ? 1.0 : 0.0;
        if (!task.local) {
          const auto id = static_cast<std::size_t>(s.maps.id[i]);
          load.rate_cap = net_grant_epoch_[id] == net_grant_cur_epoch_
                              ? net_grant_rate_[id]
                              : 0.0;
        }
      } else if (task.phase == MapPhase::kCombining) {
        // In-memory aggregation over the pre-combine output: CPU-bound with
        // light buffer churn on disk.
        load.cpu_per_byte =
            per_mib_to_per_byte(spec.combine_cpu_per_mib) * task.cost_factor;
        load.disk_per_byte = 0.3;
      } else {  // kSpilling: progress in output bytes
        load.cpu_per_byte = per_mib_to_per_byte(spec.spill_cpu_per_mib) * task.cost_factor;
        load.disk_per_byte = spec.spill_disk_factor;
      }
      s.loads.push_back(load);
    }
    const auto [rb, re] = s.reds.range[b];
    for (std::uint32_t i = rb; i < re; ++i) {
      const ReduceTask& task = *s.reds.task[i];
      const JobSpec& spec = *s.reds.spec[i];
      if (task.phase == ReducePhase::kShuffling) continue;  // network-driven
      cluster::PhaseLoad load;
      if (task.phase == ReducePhase::kSorting) {
        load.cpu_per_byte = per_mib_to_per_byte(spec.sort_cpu_per_mib) * task.cost_factor;
        load.disk_per_byte = spec.sort_disk_factor;
      } else {  // kReducing
        load.cpu_per_byte = per_mib_to_per_byte(spec.reduce_cpu_per_mib) * task.cost_factor;
        load.disk_per_byte = 1.0 + spec.reduce_selectivity * spec.output_disk_factor;
      }
      s.loads.push_back(load);
    }
    node_loaded_[d] = s.loads.empty() ? 0 : 1;
    if (s.loads.empty()) continue;
    ++s.load_rebuilds;
    model.take_loads(node_spec, s.loads);
    emit_compute(s, b, model.solve_capacities(node_spec, s.occ[b], bg));
  }

  // 6. Integrate progress on owned tasks; cross-shard (job-level) float
  // accumulation and phase transitions go to the mailboxes.  Shuffle progress
  // first (jumps in `available` only happen via map completions at the
  // barrier, so ordering within the tick is consistent).  Completions are
  // collected and applied at the barrier: map completions mutate reduce
  // backlogs, reduce completions mutate tracker lists.
  s.shuffle_deltas.clear();
  s.map_input_deltas.clear();
  s.phase_starts.clear();
  s.finished_maps.clear();
  s.finished_reduces.clear();
  const bool tracing = recorder_.tracing();
  // Transitions below mark owned nodes only (mark_node_dirty), so the
  // window writes no other shard's flag.
  auto buffer_phase = [&](JobId job, TaskId task, NodeId node, bool is_map,
                          const char* phase) {
    if (tracing) s.phase_starts.push_back({job, task, node, is_map, phase});
  };

  for (std::size_t f = 0; f < s.flows.size(); ++f) {
    if (!s.flow_is_shuffle[f]) continue;
    ReduceTask& task = *s.reds.task[s.flow_entry[f]];
    Job* job = s.reds.job[s.flow_entry[f]];
    const double delta =
        std::min(t.net_rates[s.flow_base + f] * dt, task.backlog());
    if (delta <= 0.0) continue;
    task.fetched += delta;
    node_shuffled_in_[static_cast<std::size_t>(s.flows[f].dst)] += delta;
    s.shuffle_deltas.push_back({job, delta});
  }

  for (const auto& c : s.compute) {
    if (c.is_map) {
      MapTask& task = *s.maps.task[c.entry];
      Job* job = s.maps.job[c.entry];
      double advance = std::min(c.rate * dt, task.phase_remaining());
      if (task.phase == MapPhase::kMapping) {
        task.phase_done += advance;
        node_map_input_[static_cast<std::size_t>(task.node)] += advance;
        s.map_input_deltas.push_back({job, advance});
        if (task.phase_remaining() <= kByteEps) {
          task.phase_done = task.phase_total();
          if (task.combine_total > 0) {
            task.phase = MapPhase::kCombining;
            task.phase_done = 0.0;
            mark_node_dirty(task.node);
            buffer_phase(task.job, task.id, task.node, true, "COMBINE");
          } else if (task.output_size > 0) {
            task.phase = MapPhase::kSpilling;
            task.phase_done = 0.0;
            mark_node_dirty(task.node);
            buffer_phase(task.job, task.id, task.node, true, "SPILL");
          } else {
            s.finished_maps.push_back(s.maps.id[c.entry]);
          }
        }
      } else if (task.phase == MapPhase::kCombining) {
        task.phase_done += advance;
        if (task.phase_remaining() <= kByteEps) {
          if (task.output_size > 0) {
            task.phase = MapPhase::kSpilling;
            task.phase_done = 0.0;
            mark_node_dirty(task.node);
            buffer_phase(task.job, task.id, task.node, true, "SPILL");
          } else {
            s.finished_maps.push_back(s.maps.id[c.entry]);
          }
        }
      } else if (task.phase == MapPhase::kSpilling) {
        task.phase_done += advance;
        if (task.phase_remaining() <= kByteEps) {
          s.finished_maps.push_back(s.maps.id[c.entry]);
        }
      }
    } else {
      ReduceTask& task = *s.reds.task[c.entry];
      double advance = c.rate * dt;
      const double total = static_cast<double>(task.partition_size);
      if (task.phase == ReducePhase::kSorting) {
        task.phase_done = std::min(task.phase_done + advance, total);
        if (total - task.phase_done <= kByteEps) {
          task.phase = ReducePhase::kReducing;
          task.phase_done = 0.0;
          mark_node_dirty(task.node);
          buffer_phase(task.job, task.id, task.node, false, "REDUCE");
        }
      } else if (task.phase == ReducePhase::kReducing) {
        task.phase_done = std::min(task.phase_done + advance, total);
        if (total - task.phase_done <= kByteEps) {
          s.finished_reduces.push_back(s.reds.id[c.entry]);
        }
      }
    }
  }

  // Window-occupancy accounting (deterministic; shard-owned stats row).
  const std::uint64_t entries =
      static_cast<std::uint64_t>(s.maps.id.size() + s.reds.id.size());
  s.stat_entries += entries;
  ++s.stat_windows;
  ShardStats& stats = shard_stats_[static_cast<std::size_t>(s.index)];
  stats.entries += entries;
  ++stats.windows;
  stats.entries_peak = std::max(stats.entries_peak, entries);
}

void Runtime::emit_compute(ShardScratch& s, std::size_t b,
                           const std::vector<double>& rates) {
  std::size_t k = 0;
  const auto [mb, me] = s.maps.range[b];
  for (std::uint32_t i = mb; i < me; ++i) s.compute.push_back({i, true, rates[k++]});
  const auto [rb, re] = s.reds.range[b];
  for (std::uint32_t i = rb; i < re; ++i) {
    if (s.reds.task[i]->phase == ReducePhase::kShuffling) continue;
    s.compute.push_back({i, false, rates[k++]});
  }
  SMR_CHECK(k == rates.size());
}

// --- The window driver ------------------------------------------------------

void Runtime::on_tick() {
  if (stopping_) return;
  const int n = config_.cluster.worker_count();
  TickScratch& t = tick_;

  // Run one stage on every shard.  A lone shard runs inline: no task group,
  // nothing to wait for, no stall to account.  Otherwise the stage fans out
  // over the pool and the barrier stall is accounted: the gap between a
  // shard finishing its work and the slowest shard closing the window.  An
  // inline pool runs the shards serially in shard order, which changes only
  // the stall numbers, never the simulation output.
  auto run_window = [this](auto&& stage) {
    if (shards_.size() == 1) {
      stage(shards_.front());
      return;
    }
    TaskGroup group(pool_ != nullptr ? *pool_ : default_thread_pool());
    for (ShardScratch& s : shards_) {
      ShardScratch* sp = &s;
      group.submit([sp, &stage] {
        stage(*sp);
        sp->stage_end = wall_seconds();
      });
    }
    group.wait();
    double window_end = 0.0;
    for (const ShardScratch& s : shards_) {
      window_end = std::max(window_end, s.stage_end);
    }
    for (std::size_t i = 0; i < shards_.size(); ++i) {
      shard_stats_[i].barrier_stall_s += window_end - shards_[i].stage_end;
    }
  };

  // Concatenate one id list of every shard and sort it: the shards collect
  // in node order, and the barrier applies in id order.
  const auto gather_sorted = [this](std::vector<TaskId> ShardScratch::*list,
                                    std::vector<TaskId>& out) {
    out.clear();
    for (const ShardScratch& s : shards_) {
      out.insert(out.end(), (s.*list).begin(), (s.*list).end());
    }
    std::sort(out.begin(), out.end());
  };

  // --- A. Census windows (re-run after doomed-attempt teardown) ----------
  bool detect_doom = config_.task_fail_rate > 0.0;
  for (;;) {
    run_window([this, detect_doom](ShardScratch& s) {
      shard_census(s, detect_doom);
    });
    if (!detect_doom) break;
    gather_sorted(&ShardScratch::doomed_maps, t.doomed_maps);
    gather_sorted(&ShardScratch::doomed_reduces, t.doomed_reduces);
    if (t.doomed_maps.empty() && t.doomed_reduces.empty()) break;
    detect_doom = false;  // one detection round per tick
    fail_doomed_attempts();
    if (stopping_) return;  // the last failure may have failed the last job
  }

  // --- B. Flow collection window + the single global network solve -------
  if (t.fetch_streams.size() != static_cast<std::size_t>(n)) {
    t.fetch_streams.assign(static_cast<std::size_t>(n), 0);
  }
  run_window([this](ShardScratch& s) { shard_collect_flows(s); });
  t.flows.clear();
  for (ShardScratch& s : shards_) {
    s.flow_base = t.flows.size();
    t.flows.insert(t.flows.end(), s.flows.begin(), s.flows.end());
  }
  // Copy out of the solver cache: the solve window rescales shuffle rates
  // in place.
  {
    const std::vector<double>& granted =
        network_.allocate_cached(t.flows, t.fetch_streams);
    t.net_rates.assign(granted.begin(), granted.end());
  }
  // Remote-read map grants, keyed by task id in an epoch-stamped dense
  // table (no per-tick clearing, no hashing).  Shuffle rescaling never
  // touches non-shuffle rates, so stamping before the disk-cap stage reads
  // identical values.
  ++net_grant_cur_epoch_;
  if (net_grant_rate_.size() < static_cast<std::size_t>(next_task_id_)) {
    net_grant_rate_.resize(static_cast<std::size_t>(next_task_id_), 0.0);
    net_grant_epoch_.resize(static_cast<std::size_t>(next_task_id_), 0);
  }
  for (const ShardScratch& s : shards_) {
    for (std::size_t f = 0; f < s.flows.size(); ++f) {
      if (s.flow_is_shuffle[f]) continue;
      const auto id = static_cast<std::size_t>(s.maps.id[s.flow_entry[f]]);
      const double grant = t.net_rates[s.flow_base + f];
      // The grant caps the map's compute load, so its node re-solves, unless
      // the grant is bit-equal to the one the task held last tick: then the
      // load is too, and the re-solve would have been a cache hit.
      const bool unchanged =
          net_grant_epoch_[id] + 1 == net_grant_cur_epoch_ &&
          std::bit_cast<std::uint64_t>(net_grant_rate_[id]) ==
              std::bit_cast<std::uint64_t>(grant);
      net_grant_rate_[id] = grant;
      net_grant_epoch_[id] = net_grant_cur_epoch_;
      if (!unchanged) node_dirty_[static_cast<std::size_t>(s.flows[f].dst)] = 1;
    }
  }

  // --- C. Solve + integrate window ---------------------------------------
  run_window([this](ShardScratch& s) { shard_solve_integrate(s); });

  // --- D. Barrier: drain the mailboxes in shard order ---------------------
  // (shard, seq) order equals node order for any shard count, so the
  // job-level and cluster-level sums are bit-identical.
  for (ShardScratch& s : shards_) {
    for (const ShardScratch::FpDelta& e : s.shuffle_deltas) {
      e.job->bytes_shuffled += e.delta;
      cum_shuffled_ += e.delta;
    }
  }
  for (ShardScratch& s : shards_) {
    for (const ShardScratch::FpDelta& e : s.map_input_deltas) {
      e.job->map_input_processed += e.delta;
      cum_map_input_ += e.delta;
    }
  }
  for (ShardScratch& s : shards_) {
    for (const ShardScratch::PhaseStart& p : s.phase_starts) {
      recorder_.phase_started(engine_.now(), p.job, p.task, p.node, p.is_map,
                              p.phase);
    }
    s.phase_starts.clear();
  }

  // Completions, in id order.
  gather_sorted(&ShardScratch::finished_maps, t.finished_maps);
  gather_sorted(&ShardScratch::finished_reduces, t.finished_reduces);
  finish_attempts<MapTask>(t.finished_maps);
  finish_attempts<ReduceTask>(t.finished_reduces);

  // Settles: merge the shard candidate lists, sort, apply (must run after
  // map completions so the barrier state is current).  Ascending-id order
  // reproduces the historic jobs-then-partitions scan, primaries before
  // shadows.  settle_reduce() does nothing for a job short of its barrier,
  // so the census lists only reduces past it; when a job crossed since the
  // census, the lists are rebuilt from every shuffling reduce.  No settle
  // moves a barrier, so one pass decides every candidate.
  if (barrier_crossed_) {
    barrier_crossed_ = false;
    t.settle_primaries.clear();
    t.settle_shadows.clear();
    for (const ShardScratch& s : shards_) {
      for (const std::uint32_t i : s.shuffle_entries) {
        const TaskId id = s.reds.id[i];
        const TaskRef* ref = find_task_ref(id);
        if (ref == nullptr) continue;  // a shadow retired above
        if (!jobs_[static_cast<std::size_t>(ref->job)].maps_all_finished()) continue;
        (ref->speculative ? t.settle_shadows : t.settle_primaries).push_back(id);
      }
    }
    std::sort(t.settle_primaries.begin(), t.settle_primaries.end());
    std::sort(t.settle_shadows.begin(), t.settle_shadows.end());
  } else {
    gather_sorted(&ShardScratch::settle_primaries, t.settle_primaries);
    gather_sorted(&ShardScratch::settle_shadows, t.settle_shadows);
  }
  settle_checks_ += t.settle_primaries.size() + t.settle_shadows.size();
  for (TaskId id : t.settle_primaries) {
    const TaskRef& ref = task_refs_[static_cast<std::size_t>(id)];
    Job& job = jobs_[static_cast<std::size_t>(ref.job)];
    ReduceTask& task = job.reduces[static_cast<std::size_t>(ref.index)];
    // Re-check: a speculative win above may have completed (and thereby
    // de-scheduled) the primary since the census.
    if (!task.running() || task.phase != ReducePhase::kShuffling) continue;
    settle_reduce(job, task);
  }
  for (TaskId id : t.settle_shadows) {
    // The shadow may have been retired by a primary completing above.
    const TaskRef* ref = find_task_ref(id);
    if (ref == nullptr) continue;
    ReduceTask& task = attempt_at<ReduceTask>(*ref);
    if (task.phase != ReducePhase::kShuffling) continue;
    settle_reduce(job_of(task.job), task);
  }

  check_all_done();
}

void write_shard_stats_json(const Runtime& runtime, std::ostream& out) {
  // Fixed-precision decimals throughout (never scientific notation): the
  // consumers are smr_inspect and ad-hoc scripts, neither of which should
  // have to parse "1.4e+06".
  const auto flags = out.flags();
  const auto precision = out.precision();
  out << std::fixed;
  const auto series = [&out](const std::vector<std::pair<SimTime, double>>& s) {
    out << '[';
    for (std::size_t i = 0; i < s.size(); ++i) {
      if (i > 0) out << ',';
      out << '[' << std::setprecision(3) << s[i].first << ','
          << std::setprecision(6) << s[i].second << ']';
    }
    out << ']';
  };
  out << "{\"shard_count\":" << runtime.shard_count() << ",\"shards\":[";
  bool first = true;
  for (const Runtime::ShardStats& s : runtime.shard_stats()) {
    if (!first) out << ',';
    first = false;
    const double mean_occupancy =
        s.windows > 0 ? static_cast<double>(s.entries) /
                            static_cast<double>(s.windows)
                      : 0.0;
    out << "{\"shard\":" << s.shard << ",\"node_begin\":" << s.node_begin
        << ",\"node_end\":" << s.node_end << ",\"windows\":" << s.windows
        << ",\"entries\":" << s.entries
        << ",\"entries_peak\":" << s.entries_peak << ",\"mean_occupancy\":"
        << std::setprecision(6) << mean_occupancy << ",\"barrier_stall_s\":"
        << std::setprecision(6) << s.barrier_stall_s
        << ",\"occupancy_series\":";
    series(s.occupancy_series);
    out << ",\"stall_series\":";
    series(s.stall_series);
    out << '}';
  }
  out << "]}\n";
  out.flags(flags);
  out.precision(precision);
}

}  // namespace smr::mapreduce
