// Workload replay from a CSV description.
//
// Format (header optional, '#' comments and blank lines ignored):
//
//     benchmark,input_gib,submit_at[,reduce_tasks]
//     terasort,30,0
//     grep,8,15,12
//
// Lets smr_sim and user programs replay a recorded or hand-written job mix
// instead of the built-in generators.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "smr/workload/synthetic.hpp"

namespace smr::workload {

/// Parse a job list from a stream.  Throws SmrError with a line number on
/// malformed rows or unknown benchmark names.
std::vector<TimedJob> parse_jobs_csv(std::istream& in);

/// Parse a job list from a file.  Throws SmrError if unreadable.
std::vector<TimedJob> load_jobs_csv(const std::string& path);

}  // namespace smr::workload
