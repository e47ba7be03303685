#include "smr/obs/self_profile.hpp"

#include "smr/common/text_out.hpp"

namespace smr::obs {

void EngineProfile::write_json(std::ostream& stream) const {
  TextOut out(stream);
  out << "{\"type\":\"engine\",\"wall_seconds\":" << wall_seconds
      << ",\"sim_seconds\":" << sim_seconds << ",\"events\":" << events
      << ",\"events_per_sec\":" << events_per_sec()
      << ",\"speedup\":" << speedup() << ",\"peak_pending\":" << peak_pending
      << ",\"trace_events\":" << trace_events
      << ",\"trace_bytes\":" << trace_bytes << "}";
}

}  // namespace smr::obs
