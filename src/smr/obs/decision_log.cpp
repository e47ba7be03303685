#include "smr/obs/decision_log.hpp"

#include "smr/common/text_out.hpp"

namespace smr::obs {

const char* to_string(SlotAction action) {
  switch (action) {
    case SlotAction::kHoldSlowStart: return "HOLD_SLOW_START";
    case SlotAction::kHoldNoStats: return "HOLD_NO_STATS";
    case SlotAction::kHoldBalanced: return "HOLD_BALANCED";
    case SlotAction::kGrowMaps: return "GROW_MAPS";
    case SlotAction::kShrinkMaps: return "SHRINK_MAPS";
    case SlotAction::kRevertThrash: return "REVERT_THRASH";
    case SlotAction::kTailStretch: return "TAIL_STRETCH";
  }
  return "UNKNOWN";
}

std::vector<SlotDecision> DecisionLog::of_action(SlotAction action) const {
  std::vector<SlotDecision> matching;
  for (const auto& decision : decisions_) {
    if (decision.action == action) matching.push_back(decision);
  }
  return matching;
}

void write_decisions_csv(const DecisionLog& log, std::ostream& stream) {
  TextOut out(stream);
  out << "id,time,action,map_output_rate,shuffle_rate,running_reduces,"
         "total_reduces,balance_factor,slow_start_passed,thrash_suspected,"
         "thrash_confirmed,thrash_strikes,thrash_ceiling,map_slots_before,"
         "map_slots_after,reduce_slots_before,reduce_slots_after,reason\n";
  for (const auto& d : log.decisions()) {
    out << d.id << ',' << d.time << ',' << to_string(d.action) << ',' << d.map_output_rate
        << ',' << d.shuffle_rate << ',' << d.running_reduces << ','
        << d.total_reduces << ',';
    if (d.balance_factor) out << *d.balance_factor;
    out << ',' << (d.slow_start_passed ? '1' : '0') << ','
        << (d.thrash_suspected ? '1' : '0') << ','
        << (d.thrash_confirmed ? '1' : '0')
        << ',' << d.thrash_strikes << ',' << d.thrash_ceiling << ','
        << d.map_slots_before << ',' << d.map_slots_after << ','
        << d.reduce_slots_before << ',' << d.reduce_slots_after << ',';
    out.csv_field(d.reason);
    out << '\n';
  }
}

}  // namespace smr::obs
