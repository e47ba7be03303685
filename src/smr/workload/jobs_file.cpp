#include "smr/workload/jobs_file.hpp"

#include <cmath>
#include <cstdlib>
#include <fstream>
#include <istream>
#include <limits>
#include <sstream>

#include "smr/common/error.hpp"

namespace smr::workload {

namespace {

std::string trim(const std::string& text) {
  const auto begin = text.find_first_not_of(" \t\r");
  if (begin == std::string::npos) return "";
  const auto end = text.find_last_not_of(" \t\r");
  return text.substr(begin, end - begin + 1);
}

std::vector<std::string> split_csv(const std::string& line) {
  std::vector<std::string> fields;
  std::stringstream stream(line);
  std::string field;
  while (std::getline(stream, field, ',')) fields.push_back(trim(field));
  return fields;
}

/// A malformed row is a user error, not a broken invariant: its message
/// names the line and carries no source location.
[[noreturn]] void reject(int line_number, const std::string& what) {
  throw SmrError("jobs csv line " + std::to_string(line_number) + ": " + what);
}

double parse_number(const std::string& text, int line_number, const char* what) {
  char* end = nullptr;
  const double value = std::strtod(text.c_str(), &end);
  if (!(end != nullptr && *end == '\0' && !text.empty())) {
    reject(line_number, "bad " + std::string(what) + " '" + text + "'");
  }
  // strtod accepts "inf" and "nan" and turns out-of-range values such as
  // 1e400 into infinity; none of them is a usable size, time or count.
  if (!std::isfinite(value)) {
    reject(line_number,
           std::string(what) + " '" + text + "' is not a finite number");
  }
  return value;
}

}  // namespace

std::vector<TimedJob> parse_jobs_csv(std::istream& in) {
  std::vector<TimedJob> jobs;
  std::string line;
  int line_number = 0;
  while (std::getline(in, line)) {
    ++line_number;
    const std::string trimmed = trim(line);
    if (trimmed.empty() || trimmed[0] == '#') continue;
    const auto fields = split_csv(trimmed);
    if (line_number == 1 && !fields.empty() && fields[0] == "benchmark") {
      continue;  // header row
    }
    if (!(fields.size() == 3 || fields.size() == 4)) {
      reject(line_number,
             "expected 3-4 fields, got " + std::to_string(fields.size()));
    }
    const auto bench = puma_from_name(fields[0]);
    if (!bench.has_value()) {
      reject(line_number, "unknown benchmark '" + fields[0] + "'");
    }
    const double input_gib = parse_number(fields[1], line_number, "input_gib");
    if (!(input_gib > 0.0)) reject(line_number, "input_gib must be > 0");
    // The byte count must fit Bytes (int64).
    if (!(input_gib * static_cast<double>(kGiB) <
          static_cast<double>(std::numeric_limits<Bytes>::max()))) {
      reject(line_number, "input_gib '" + fields[1] + "' is too large");
    }
    const double submit_at = parse_number(fields[2], line_number, "submit_at");
    if (!(submit_at >= 0.0)) reject(line_number, "submit_at must be >= 0");

    TimedJob job;
    job.spec = make_puma_job(
        *bench, static_cast<Bytes>(input_gib * static_cast<double>(kGiB)));
    job.submit_at = submit_at;
    if (fields.size() == 4) {
      const double reduce_tasks = parse_number(fields[3], line_number, "reduce_tasks");
      if (!(reduce_tasks >= 1.0 &&
            reduce_tasks <= std::numeric_limits<int>::max())) {
        reject(line_number, "reduce_tasks must be in [1, INT_MAX]");
      }
      job.spec.reduce_tasks = static_cast<int>(reduce_tasks);
    }
    jobs.push_back(std::move(job));
  }
  return jobs;
}

std::vector<TimedJob> load_jobs_csv(const std::string& path) {
  std::ifstream in(path);
  if (!in.good()) throw SmrError("cannot read jobs csv '" + path + "'");
  return parse_jobs_csv(in);
}

}  // namespace smr::workload
