#include "smr/sim/engine.hpp"

#include <algorithm>
#include <utility>

namespace smr::sim {

namespace {

// Buckets above this are treated as "effectively forever" so that
// bucket arithmetic (cur_bucket_ + ring size) can never overflow even for
// events scheduled at astronomically large but finite times.
constexpr std::int64_t kMaxBucket =
    std::numeric_limits<std::int64_t>::max() / 2;

std::size_t round_up_pow2(std::size_t n) {
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

}  // namespace

Engine::Engine(const CalendarConfig& calendar) {
  SMR_CHECK_MSG(calendar.bucket_width > 0.0, "bucket width must be positive");
  SMR_CHECK_MSG(calendar.bucket_count >= 2, "need at least two buckets");
  width_ = calendar.bucket_width;
  inv_width_ = 1.0 / width_;
  const std::size_t n = round_up_pow2(calendar.bucket_count);
  ring_.resize(n);
  mask_ = n - 1;
}

std::uint32_t Engine::alloc_slot(SimTime when, std::uint32_t lane, Callback fn) {
  std::uint32_t index;
  if (free_head_ != kNullSlot) {
    index = free_head_;
    free_head_ = slots_[index].next_free;
  } else {
    SMR_CHECK_MSG(slots_.size() < 0xffffffffu, "event slot table exhausted");
    index = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  }
  Slot& s = slots_[index];
  s.occupied = true;
  // Bump first so any stray stub a former tenant left behind can never
  // match this tenant's pushes.
  ++s.stub_gen;
  s.when = when;
  s.lane = lane;
  s.fn = std::move(fn);
  ++live_;
  return index;
}

void Engine::free_slot(std::uint32_t index) {
  Slot& s = slots_[index];
  s.fn = Callback{};
  s.occupied = false;
  s.when = kTimeNever;
  s.lane = kNoLane;
  if (++s.id_gen == 0) s.id_gen = 1;  // keep ids distinct from kInvalidEvent
  s.next_free = free_head_;
  free_head_ = index;
  --live_;
}

std::uint32_t Engine::lane_for(SimTime period) {
  for (std::size_t i = 0; i < lanes_.size(); ++i) {
    if (lanes_[i].period == period) return static_cast<std::uint32_t>(i);
  }
  SMR_CHECK_MSG(lanes_.size() < kNoLane, "periodic lane table exhausted");
  lanes_.push_back(Lane{period, {}, 0});
  return static_cast<std::uint32_t>(lanes_.size() - 1);
}

Engine::Lane* Engine::earliest_lane() {
  // Selects without branching on the comparison: the winning lane changes
  // from step to step, so a compare-and-branch mispredicts often (on a
  // 16-node event mix that made dispatch slower than the calendar alone).
  Lane* best = nullptr;
  SimTime best_when = kTimeNever;
  std::uint64_t best_seq = std::numeric_limits<std::uint64_t>::max();
  for (Lane& lane : lanes_) {
    if (lane.empty()) continue;
    const Stub& head = lane.front();
    const bool earlier =
        head.when < best_when || (head.when == best_when && head.seq < best_seq);
    best = earlier ? &lane : best;
    best_when = earlier ? head.when : best_when;
    best_seq = earlier ? head.seq : best_seq;
  }
  return best;
}

std::int64_t Engine::bucket_of(SimTime when) const {
  const double scaled = when * inv_width_;
  return scaled >= static_cast<double>(kMaxBucket)
             ? kMaxBucket
             : std::max<std::int64_t>(static_cast<std::int64_t>(scaled), 0);
}

void Engine::push_stub(SimTime when, std::uint32_t slot, Generation gen) {
  const Stub stub{when, next_seq_++, slot, gen};
  const std::int64_t b = bucket_of(when);
  if (b <= cur_bucket_) {
    // Present (or a window that already advanced past the stub's bucket);
    // the active heap keeps full (when, seq) order, so this stays exact.
    current_.push_back(stub);
    std::push_heap(current_.begin(), current_.end(), Later{});
  } else if (b - cur_bucket_ <= static_cast<std::int64_t>(mask_)) {
    ring_[static_cast<std::size_t>(b) & mask_].push_back(stub);
    ++ring_stubs_;
  } else {
    ladder_.push_back(stub);
    ladder_min_bucket_ = std::min(ladder_min_bucket_, b);
  }
  ++stub_count_;
  peak_pending_ = std::max(peak_pending_, stub_count_);
}

void Engine::drain_ladder() {
  // Single pass: keep far stubs in place, move the rest into the window.
  const std::int64_t horizon = cur_bucket_ + static_cast<std::int64_t>(mask_);
  std::size_t keep = 0;
  std::int64_t new_min = kNoBucket;
  for (const Stub& stub : ladder_) {
    const std::int64_t b = bucket_of(stub.when);
    if (b > horizon) {
      new_min = std::min(new_min, b);
      ladder_[keep++] = stub;
    } else if (b <= cur_bucket_) {
      current_.push_back(stub);
      std::push_heap(current_.begin(), current_.end(), Later{});
    } else {
      ring_[static_cast<std::size_t>(b) & mask_].push_back(stub);
      ++ring_stubs_;
    }
  }
  ladder_.resize(keep);
  ladder_min_bucket_ = new_min;
}

void Engine::advance(std::int64_t until) {
  while (current_.empty() && cur_bucket_ < until) {
    if (ring_stubs_ == 0) {
      // The window is empty: jump straight to the ladder's earliest bucket
      // (or to `until`, if a lane head comes first) instead of stepping
      // through (possibly billions of) empty buckets.  Jumping to `until`
      // keeps the window at the clock while lanes alone are firing, so
      // later one-shots still land in the ring.
      const std::int64_t target = std::min(ladder_min_bucket_, until);
      if (target == kNoBucket) return;  // no stub anywhere
      cur_bucket_ = target;
      if (ladder_min_bucket_ - static_cast<std::int64_t>(mask_) <= cur_bucket_) {
        drain_ladder();
      }
      continue;
    }
    ++cur_bucket_;
    if (ladder_min_bucket_ - static_cast<std::int64_t>(mask_) <= cur_bucket_) {
      // The ladder's earliest bucket just entered the window; sweep it in.
      // Stubs landing at cur_bucket_ go straight into current_, so the
      // ring slot below must still be merged (same bucket, same instant).
      drain_ladder();
    }
    std::vector<Stub>& bucket = ring_[static_cast<std::size_t>(cur_bucket_) & mask_];
    if (!bucket.empty()) {
      ring_stubs_ -= bucket.size();
      if (current_.empty()) {
        // Swap instead of copy: the emptied current_ hands its capacity to
        // the ring slot, so the steady state allocates nothing.
        current_.swap(bucket);
      } else {
        current_.insert(current_.end(), bucket.begin(), bucket.end());
        bucket.clear();
      }
      std::make_heap(current_.begin(), current_.end(), Later{});
    }
  }
}

void Engine::compact() {
  const auto retired = [this](const Stub& stub) {
    return slots_[stub.slot].stub_gen != stub.gen;
  };
  std::erase_if(current_, retired);
  std::make_heap(current_.begin(), current_.end(), Later{});
  for (std::vector<Stub>& bucket : ring_) {
    std::erase_if(bucket, retired);
  }
  std::erase_if(ladder_, retired);
  ring_stubs_ = 0;
  for (const std::vector<Stub>& bucket : ring_) ring_stubs_ += bucket.size();
  ladder_min_bucket_ = kNoBucket;
  for (const Stub& stub : ladder_) {
    ladder_min_bucket_ = std::min(ladder_min_bucket_, bucket_of(stub.when));
  }
  stub_count_ = current_.size() + ring_stubs_ + ladder_.size();
  for (Lane& lane : lanes_) {
    // Erasing keeps the lane's (when, seq) order.
    lane.stubs.erase(lane.stubs.begin(),
                     lane.stubs.begin() + static_cast<std::ptrdiff_t>(lane.head));
    lane.head = 0;
    std::erase_if(lane.stubs, retired);
    stub_count_ += lane.stubs.size();
  }
  stale_ = 0;
}

EventId Engine::schedule_at(SimTime when, Callback fn) {
  SMR_CHECK_MSG(when >= now_, "schedule_at in the past: " << when << " < " << now_);
  SMR_CHECK(fn != nullptr);
  const std::uint32_t slot = alloc_slot(when, kNoLane, std::move(fn));
  // Events born parked (when == kTimeNever) hold no calendar stub at all;
  // reschedule() revives them.
  if (when < kTimeNever) push_stub(when, slot, slots_[slot].stub_gen);
  return pack_id(slot, slots_[slot].id_gen);
}

EventId Engine::schedule_in(SimTime delay, Callback fn) {
  SMR_CHECK_MSG(delay >= 0.0, "negative delay " << delay);
  return schedule_at(now_ + delay, std::move(fn));
}

EventId Engine::schedule_periodic(SimTime first, SimTime period, Callback fn) {
  SMR_CHECK_MSG(first >= now_, "periodic first firing in the past");
  SMR_CHECK_MSG(period > 0.0, "periodic period must be positive");
  SMR_CHECK(fn != nullptr);
  const std::uint32_t slot = alloc_slot(first, lane_for(period), std::move(fn));
  if (first < kTimeNever) push_stub(first, slot, slots_[slot].stub_gen);
  return pack_id(slot, slots_[slot].id_gen);
}

bool Engine::cancel(EventId id) {
  Slot* s = lookup(id);
  if (s == nullptr) return false;
  if (s->when < kTimeNever) {
    // Retire the in-flight stub; it is skipped when it surfaces.
    ++s->stub_gen;
    ++stale_;
  }
  free_slot(static_cast<std::uint32_t>(id >> 32));
  maybe_compact();
  return true;
}

bool Engine::reschedule(EventId id, SimTime when) {
  SMR_CHECK_MSG(when >= now_, "reschedule in the past: " << when << " < " << now_);
  Slot* s = lookup(id);
  if (s == nullptr) return false;
  if (s->when < kTimeNever) {
    ++s->stub_gen;
    ++stale_;
  }
  s->when = when;
  if (when < kTimeNever) {
    push_stub(when, static_cast<std::uint32_t>(id >> 32), s->stub_gen);
  }
  maybe_compact();
  return true;
}

bool Engine::step(SimTime limit) {
  for (;;) {
    Lane* lane = earliest_lane();
    if (current_.empty()) {
      advance(lane != nullptr ? bucket_of(lane->front().when) : kNoBucket);
      if (current_.empty() && lane == nullptr) return false;
    }
    // The earliest (when, seq) of the calendar's top and the lane head.
    // advance() stops at the head's bucket, so an empty current_ means
    // every calendar stub lies in a later bucket, hence at a later time.
    const bool from_lane =
        lane != nullptr && (current_.empty() || Later{}(current_.front(), lane->front()));
    const Stub top = from_lane ? lane->front() : current_.front();
    const auto pop = [&] {
      if (from_lane) {
        lane->pop_front();
      } else {
        std::pop_heap(current_.begin(), current_.end(), Later{});
        current_.pop_back();
      }
      --stub_count_;
    };
    Slot& s = slots_[top.slot];
    if (s.stub_gen != top.gen) {
      pop();
      --stale_;
      continue;
    }
    // Live stubs always carry finite times (parked events hold none), so a
    // bare bound check suffices.
    if (top.when > limit) return false;
    pop();
    now_ = top.when;
    ++dispatched_;
    if (s.lane != kNoLane) {
      // Re-arm before running so the callback can cancel or move the
      // series.  Same generation: the popped stub is gone, so the
      // invariant of one stub per scheduled event holds.  The lane stays
      // sorted: its tail is t' + period for some earlier firing t' <= now,
      // rounding is monotone, and next_seq_ is the newest seq.
      Lane& rearm = lanes_[s.lane];
      s.when = top.when + rearm.period;
      rearm.stubs.push_back(Stub{s.when, next_seq_++, top.slot, top.gen});
      ++stub_count_;
      peak_pending_ = std::max(peak_pending_, stub_count_);
      // Invoke through a stack copy (cheap: memcpy or refcount bump) so a
      // callback that cancels its own registration cannot free the frame
      // it is running in.
      Callback fn = s.fn;
      fn();
    } else {
      Callback fn = std::move(s.fn);
      free_slot(top.slot);
      fn();
    }
    return true;
  }
}

SimTime Engine::run(SimTime limit) {
  while (step(limit)) {
  }
  if (limit != kTimeNever) {
    // A bounded run leaves the clock at the bound, whether events remain
    // beyond it or the queue drained early.
    now_ = std::max(now_, limit);
  }
  return now_;
}

}  // namespace smr::sim
