#include "smr/common/types.hpp"

#include <cmath>
#include <cstdio>

namespace smr {

namespace {

std::string formatted(const char* fmt, double value, const char* unit) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), fmt, value, unit);
  return buf;
}

}  // namespace

std::string format_bytes(Bytes b) {
  const double v = static_cast<double>(b);
  const double a = std::fabs(v);
  if (a >= static_cast<double>(kGiB)) return formatted("%.2f %s", v / static_cast<double>(kGiB), "GiB");
  if (a >= static_cast<double>(kMiB)) return formatted("%.2f %s", v / static_cast<double>(kMiB), "MiB");
  if (a >= static_cast<double>(kKiB)) return formatted("%.2f %s", v / static_cast<double>(kKiB), "KiB");
  return formatted("%.0f %s", v, "B");
}

std::string format_rate(Rate r) {
  const double a = std::fabs(r);
  if (a >= static_cast<double>(kGiB)) return formatted("%.2f %s", r / static_cast<double>(kGiB), "GiB/s");
  if (a >= static_cast<double>(kMiB)) return formatted("%.2f %s", r / static_cast<double>(kMiB), "MiB/s");
  if (a >= static_cast<double>(kKiB)) return formatted("%.2f %s", r / static_cast<double>(kKiB), "KiB/s");
  return formatted("%.1f %s", r, "B/s");
}

std::string format_duration(SimTime seconds) {
  if (!std::isfinite(seconds)) return "inf";
  if (seconds < 0) return format_duration(-seconds).insert(0, 1, '-');
  if (seconds < 3600.0) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.1f s", seconds);
    return buf;
  }
  const auto total = static_cast<long long>(seconds);
  const long long h = total / 3600;
  const long long m = (total % 3600) / 60;
  const long long s = total % 60;
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%lldh %02lldm %02llds", h, m, s);
  return buf;
}

}  // namespace smr
