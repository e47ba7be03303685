// Structured audit log of slot-manager decisions.
//
// Every SmrSlotPolicy::on_period with an active job appends one record:
// what the manager saw (windowed rates R_t and R_s, the reduce census
// n/N, the balance factor f), what state its gates were in (slow start,
// thrash detector strikes/ceiling), and what it did, with a
// human-readable reason.  The log turns the paper's runtime feedback loop
// from a black box into a replayable series: tests assert on it, the CLI
// exports it as CSV (--decisions-out) and the trace mirrors it as
// POLICY_DECISION events next to the task slices.
#pragma once

#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

#include "smr/common/chunked_vector.hpp"
#include "smr/common/types.hpp"

namespace smr::obs {

/// The action a slot-manager period resolved to.
enum class SlotAction {
  kHoldSlowStart,   // slow-start gate still closed; no decision taken
  kHoldNoStats,     // no map output landed in the window; no basis to act
  kHoldBalanced,    // f inside the balance band, or a climb was gated
  kGrowMaps,        // map-heavy: +1 map slot
  kShrinkMaps,      // reduce-heavy: -1 map slot
  kRevertThrash,    // thrashing confirmed: revert to the last good count
  kTailStretch,     // no unfinished maps: release maps / boost reduces
};

const char* to_string(SlotAction action);

struct SlotDecision {
  /// Dense per-log index, assigned by DecisionLog::record.  Stable across
  /// a run, so span attempts can cite the decision that enabled their
  /// launch (Span::decision_id) and smr_inspect can join the two logs.
  int id = -1;
  SimTime time = 0.0;

  // What the manager saw (paper §III-C statistics).
  double map_output_rate = 0.0;  // R_t, bytes/s
  double shuffle_rate = 0.0;     // R_s, bytes/s
  int running_reduces = 0;       // n
  int total_reduces = 0;         // N
  /// f = R_s / ((n/N)·R_t); empty when nothing was shuffling.
  std::optional<double> balance_factor;

  // Gate state.
  bool slow_start_passed = false;
  bool thrash_suspected = false;
  bool thrash_confirmed = false;
  int thrash_strikes = 0;
  /// Thrash ceiling in force, or -1 when unconfirmed (no ceiling).
  int thrash_ceiling = -1;

  // What it did.
  int map_slots_before = 0;
  int map_slots_after = 0;
  int reduce_slots_before = 0;
  int reduce_slots_after = 0;
  SlotAction action = SlotAction::kHoldBalanced;
  std::string reason;

  bool changed_slots() const {
    return map_slots_before != map_slots_after ||
           reduce_slots_before != reduce_slots_after;
  }
};

class DecisionLog {
 public:
  void record(SlotDecision decision) {
    decision.id = static_cast<int>(decisions_.size());
    decisions_.push_back(std::move(decision));
  }
  const ChunkedVector<SlotDecision>& decisions() const { return decisions_; }
  std::size_t size() const { return decisions_.size(); }
  bool empty() const { return decisions_.empty(); }
  void clear() { decisions_.clear(); }

  /// Decisions that resolved to `action`, in time order.
  std::vector<SlotDecision> of_action(SlotAction action) const;

 private:
  ChunkedVector<SlotDecision> decisions_;
};

/// One CSV row per decision (header included; reason CSV-quoted):
/// id,time,action,map_output_rate,shuffle_rate,running_reduces,total_reduces,
/// balance_factor,slow_start_passed,thrash_suspected,thrash_confirmed,
/// thrash_strikes,thrash_ceiling,map_slots_before,map_slots_after,
/// reduce_slots_before,reduce_slots_after,reason.
/// An empty balance_factor cell means f was undefined that period.
void write_decisions_csv(const DecisionLog& log, std::ostream& out);

}  // namespace smr::obs
