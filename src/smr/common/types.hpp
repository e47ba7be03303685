// Fundamental value types and units used across the SMapReduce codebase.
//
// Conventions:
//   * Data volumes are in bytes, held in a signed 64-bit `Bytes`.  Signed so
//     that subtraction of volumes (backlogs, deficits) never wraps.
//   * Simulated time is `SimTime`, a double in seconds since simulation
//     start.  All durations are in seconds.
//   * Data rates are `Rate`, in bytes per second.
#pragma once

#include <cstdint>
#include <limits>
#include <string>

namespace smr {

/// Data volume in bytes (signed: differences of volumes are volumes).
using Bytes = std::int64_t;

/// Simulated time in seconds since the start of the simulation.
using SimTime = double;

/// Data rate in bytes per second.
using Rate = double;

inline constexpr Bytes kKiB = 1024;
inline constexpr Bytes kMiB = 1024 * kKiB;
inline constexpr Bytes kGiB = 1024 * kMiB;

/// Largest representable time; used as "never" for unscheduled deadlines.
inline constexpr SimTime kTimeNever = std::numeric_limits<SimTime>::infinity();

/// Bytes -> gibibytes as a double.
constexpr double to_gib(Bytes b) { return static_cast<double>(b) / static_cast<double>(kGiB); }

/// Human-readable volume, e.g. "1.50 GiB"; used by reporters and logs.
std::string format_bytes(Bytes b);

/// Human-readable rate, e.g. "120.0 MiB/s".
std::string format_rate(Rate r);

/// Human-readable duration, e.g. "93.2 s" or "1h 02m 11s" for long spans.
std::string format_duration(SimTime seconds);

/// Identifier types.  Plain integers wrapped in distinct enums would be
/// heavier than the codebase needs; we use typed aliases plus a reserved
/// invalid value each.
using NodeId = std::int32_t;
using JobId = std::int32_t;
using TaskId = std::int32_t;

inline constexpr NodeId kInvalidNode = -1;
inline constexpr JobId kInvalidJob = -1;
inline constexpr TaskId kInvalidTask = -1;

}  // namespace smr
