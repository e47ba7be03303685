// Deterministic discrete-event simulation kernel.
//
// Events are (time, sequence) ordered: two events at the same simulated time
// fire in scheduling order, which makes every run bit-for-bit reproducible.
// Events are cancellable via the EventId returned by schedule_*; periodic
// events reschedule themselves until cancelled, and reschedule() moves a
// pending event (or the next firing of a periodic series) without consuming
// a new id.
//
// Internally the pending set holds lightweight generation-stamped stubs in
// a two-tier calendar queue plus one FIFO lane per periodic period:
//
//   * `current_` — a small binary heap over the bucket being dispatched,
//     so callbacks may schedule into the present without breaking order;
//   * `ring_` — a power-of-two ring of near-future buckets, one bucket per
//     `bucket_width` seconds of simulated time, each an unsorted vector
//     that is heapified only when its time arrives;
//   * `ladder_` — an overflow spill for stubs beyond the ring's horizon,
//     swept on demand when the window advances (a cached minimum bucket
//     skips the sweep entirely while the window stays short of it);
//   * `lanes_` — the re-arms of periodic series (tracker heartbeats, the
//     fluid tick, sampling, the policy period), one FIFO per distinct
//     period.  Events fire in (when, seq) order, so each re-arm
//     `now + period` is no earlier than the lane's tail and carries a newer
//     seq: a lane is sorted by construction and costs O(1) per firing.
//     One-shots, first firings, reschedules and revivals use the calendar.
//
// step() dispatches the earliest of `current_`'s top and the lane heads.
// Scheduling and popping are O(1) amortised (plus one comparison per lane)
// instead of the O(log n) of the old global binary heap, which matters
// under serving workloads with millions of pending events.  Callbacks and
// per-event state live in a dense slot table indexed by the EventId itself
// (slot | id generation), with a free list recycling slots; callbacks use
// common::SmallFn, so the steady state allocates nothing.  cancel() and
// reschedule() never search the calendar or a lane — they retire the
// stamped stub lazily (it is skipped when it surfaces) and every tier is
// compacted in one pass when retired stubs outnumber live ones (or when
// *every* stub is retired, so park/cancel churn on a small queue cannot
// leak stubs).  This keeps cancel/reschedule O(1) and pending() exact.
// Events parked at kTimeNever hold no stub at all: a million parked events
// cost nothing per dispatch.
#pragma once

#include <cstdint>
#include <limits>
#include <vector>

#include "smr/common/error.hpp"
#include "smr/common/small_fn.hpp"
#include "smr/common/types.hpp"

namespace smr::sim {

using EventId = std::uint64_t;
inline constexpr EventId kInvalidEvent = 0;

class Engine {
 public:
  /// Callback type for scheduled events (small-buffer; see small_fn.hpp).
  using Callback = common::SmallFn;

  /// Calendar geometry.  The defaults put one bucket per fluid tick and a
  /// ~4-minute near-future window; tests shrink them to force ladder and
  /// window-wrap traffic.
  struct CalendarConfig {
    SimTime bucket_width = 0.25;
    std::size_t bucket_count = 1024;  // rounded up to a power of two
  };

  Engine() : Engine(CalendarConfig{}) {}
  explicit Engine(const CalendarConfig& calendar);
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Current simulated time in seconds.
  SimTime now() const { return now_; }

  /// Schedule `fn` to run at absolute time `when` (>= now).
  EventId schedule_at(SimTime when, Callback fn);

  /// Schedule `fn` to run `delay` seconds from now (delay >= 0).
  EventId schedule_in(SimTime delay, Callback fn);

  /// Schedule `fn` to run every `period` seconds, first firing at
  /// `first` (absolute).  Returns an id that cancels the whole series.
  EventId schedule_periodic(SimTime first, SimTime period, Callback fn);

  /// Cancel a pending event (or a periodic series).  Cancelling an already
  /// fired or unknown one-shot event is a no-op and returns false.
  bool cancel(EventId id);

  /// Move a pending event to fire at `when` (>= now) instead.  For a
  /// periodic series this moves the next firing; later firings follow at
  /// `when + period`, `when + 2*period`, ...  Pass kTimeNever to park the
  /// event indefinitely (a later reschedule can revive it).  Returns false
  /// if the id is unknown or already fired.
  bool reschedule(EventId id, SimTime when);

  /// Run until the queue is empty or `limit` is reached, whichever first.
  /// Events parked at kTimeNever never fire.  Returns the final time.
  SimTime run(SimTime limit = kTimeNever);

  /// Run a single event; returns false if the queue was empty or the next
  /// event lies beyond `limit` (time does not advance past `limit`).
  bool step(SimTime limit = kTimeNever);

  /// Exact number of pending events (cancelled/rescheduled stubs excluded;
  /// events parked at kTimeNever included).
  std::size_t pending() const { return live_; }

  bool empty() const { return pending() == 0; }

  /// Total events dispatched so far (for tests / instrumentation).
  std::uint64_t dispatched() const { return dispatched_; }

  /// High-water mark of the stubs held by the calendar and the lanes
  /// (self-profiling: how deep the queue ever got, retired-but-unswept
  /// stubs included).
  std::size_t peak_pending() const { return peak_pending_; }

  /// Stubs currently retired (awaiting lazy skip or compaction).
  /// Exposed for tests of the compaction policy.
  std::size_t stale() const { return stale_; }

 private:
  using Generation = std::uint32_t;
  static constexpr std::uint32_t kNullSlot = 0xffffffffu;
  static constexpr std::uint32_t kNoLane = 0xffffffffu;

  // Lightweight, trivially-copyable calendar stub.  The callback and
  // per-event state stay in the slot table so reschedule() never has to
  // move them.
  struct Stub {
    SimTime when;
    std::uint64_t seq;
    std::uint32_t slot;
    Generation gen;
  };
  struct Later {
    bool operator()(const Stub& a, const Stub& b) const {
      if (a.when != b.when) return a.when > b.when;
      return a.seq > b.seq;
    }
  };
  struct Slot {
    /// Embedded in the EventId; bumped when the slot is freed so a stale
    /// id from a previous tenant never resolves.
    Generation id_gen = 1;
    /// Generation of the live stub; bumped on every reschedule/park so the
    /// retired stub is skipped when it surfaces.  Monotonic across slot
    /// reuse (never reset), so stubs of former tenants stay dead too.
    Generation stub_gen = 0;
    /// Current firing time; kTimeNever while parked (no stub in flight).
    SimTime when = kTimeNever;
    Callback fn;
    /// Index into lanes_ of a periodic series (its period); kNoLane for a
    /// one-shot.
    std::uint32_t lane = kNoLane;
    std::uint32_t next_free = kNullSlot;
    bool occupied = false;
  };

  // The re-arms of every periodic series with one period, in (when, seq)
  // order.  Popped from `head`; the consumed prefix is dropped once it is
  // at least half the vector, so a steady lane reuses its capacity.
  struct Lane {
    SimTime period;
    std::vector<Stub> stubs;
    std::size_t head = 0;

    bool empty() const { return head == stubs.size(); }
    const Stub& front() const { return stubs[head]; }
    void pop_front() {
      if (++head == stubs.size()) {
        stubs.clear();
        head = 0;
      } else if (2 * head >= stubs.size()) {
        stubs.erase(stubs.begin(), stubs.begin() + static_cast<std::ptrdiff_t>(head));
        head = 0;
      }
    }
  };

  static EventId pack_id(std::uint32_t slot, Generation gen) {
    return (static_cast<EventId>(slot) << 32) | gen;
  }
  Slot* lookup(EventId id) {
    const auto slot = static_cast<std::uint32_t>(id >> 32);
    const auto gen = static_cast<Generation>(id & 0xffffffffu);
    if (slot >= slots_.size()) return nullptr;
    Slot& s = slots_[slot];
    return (s.occupied && s.id_gen == gen) ? &s : nullptr;
  }
  std::uint32_t alloc_slot(SimTime when, std::uint32_t lane, Callback fn);
  void free_slot(std::uint32_t index);
  /// The lane for `period`, created on first use.
  std::uint32_t lane_for(SimTime period);
  /// The lane whose head is earliest; nullptr when every lane is empty.
  Lane* earliest_lane();

  std::int64_t bucket_of(SimTime when) const;
  void push_stub(SimTime when, std::uint32_t slot, Generation gen);
  /// Refill current_ from the earliest nonempty calendar bucket no later
  /// than bucket `until` (a lane head there or earlier fires first);
  /// current_ stays empty when the calendar holds no stub up to it.  Lane
  /// stubs are not counted, so a calendar that is empty returns at once.
  void advance(std::int64_t until);
  /// Sweep ladder stubs that entered the ring's window into the calendar.
  void drain_ladder();
  /// Live (non-retired) stubs across all tiers and lanes.
  std::size_t live_stubs() const { return stub_count_ - stale_; }
  /// Drop every retired stub from the calendar and the lanes in one pass.
  void compact();
  void maybe_compact() {
    // Amortised: each compaction touches the whole calendar, so only fire
    // once retired stubs dominate and the calendar is big enough to matter
    // — or once every stub is retired, where "compaction" is a cheap clear
    // and skipping it would leak stubs forever on small park/cancel-heavy
    // queues (and overcount peak_pending).
    if (stale_ == 0) return;
    if (live_stubs() == 0 || (stale_ > live_stubs() && stub_count_ >= 64)) {
      compact();
    }
  }

  SimTime now_ = 0.0;
  std::uint64_t next_seq_ = 1;
  std::uint64_t dispatched_ = 0;
  std::size_t peak_pending_ = 0;

  // --- Calendar geometry -------------------------------------------------
  SimTime width_;
  double inv_width_;
  std::size_t mask_;  // bucket_count - 1 (power of two)
  std::int64_t cur_bucket_ = 0;

  // --- The three calendar tiers and the periodic lanes -------------------
  std::vector<Stub> current_;             // heap over the active bucket
  std::vector<std::vector<Stub>> ring_;   // near-future buckets
  std::vector<Stub> ladder_;              // beyond-horizon spill
  std::size_t ring_stubs_ = 0;
  static constexpr std::int64_t kNoBucket =
      std::numeric_limits<std::int64_t>::max();
  std::int64_t ladder_min_bucket_ = kNoBucket;
  std::vector<Lane> lanes_;               // one per distinct period

  // --- Event state -------------------------------------------------------
  std::vector<Slot> slots_;
  std::uint32_t free_head_ = kNullSlot;
  std::size_t live_ = 0;        // occupied slots (parked included)
  std::size_t stub_count_ = 0;  // stubs in tiers and lanes (stale included)
  std::size_t stale_ = 0;       // retired stubs awaiting skip/compaction
};

}  // namespace smr::sim
