#include "smr/obs/self_profile.hpp"

#include <gtest/gtest.h>

#include <sstream>

namespace smr::obs {
namespace {

TEST(Stopwatch, SecondsAreNonNegativeAndMonotonic) {
  Stopwatch stopwatch;
  const double a = stopwatch.seconds();
  const double b = stopwatch.seconds();
  EXPECT_GE(a, 0.0);
  EXPECT_GE(b, a);
  stopwatch.reset();
  EXPECT_LE(stopwatch.seconds(), b + 1.0);
}

TEST(EngineProfile, DerivedRates) {
  EngineProfile profile;
  profile.wall_seconds = 2.0;
  profile.sim_seconds = 200.0;
  profile.events = 1000;
  EXPECT_DOUBLE_EQ(profile.events_per_sec(), 500.0);
  EXPECT_DOUBLE_EQ(profile.speedup(), 100.0);
  profile.wall_seconds = 0.0;  // division guard
  EXPECT_DOUBLE_EQ(profile.events_per_sec(), 0.0);
  EXPECT_DOUBLE_EQ(profile.speedup(), 0.0);
}

TEST(EngineProfile, WriteJsonSingleObject) {
  EngineProfile profile;
  profile.wall_seconds = 0.5;
  profile.sim_seconds = 100.0;
  profile.events = 42;
  profile.peak_pending = 7;
  profile.trace_events = 3;
  profile.trace_bytes = 1024;
  std::ostringstream out;
  profile.write_json(out);
  const std::string json = out.str();
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');  // single line, no trailing newline
  EXPECT_NE(json.find("\"type\":\"engine\""), std::string::npos);
  EXPECT_NE(json.find("\"wall_seconds\":0.5"), std::string::npos);
  EXPECT_NE(json.find("\"events\":42"), std::string::npos);
  EXPECT_NE(json.find("\"events_per_sec\":84"), std::string::npos);
  EXPECT_NE(json.find("\"speedup\":200"), std::string::npos);
  EXPECT_NE(json.find("\"peak_pending\":7"), std::string::npos);
  EXPECT_NE(json.find("\"trace_events\":3"), std::string::npos);
  EXPECT_NE(json.find("\"trace_bytes\":1024"), std::string::npos);
}

TEST(EngineProfile, WriteJsonMatchesRecordedBytes) {
  // Expected text recorded from the ostream-formatting writer: a 64-bit
  // count at its maximum and rates in %g at precision 6.
  EngineProfile profile;
  profile.wall_seconds = 0.123456789;
  profile.sim_seconds = 86400.0;
  profile.events = 18446744073709551615ULL;
  profile.peak_pending = 4096;
  profile.trace_events = 123456789;
  profile.trace_bytes = 0;
  std::ostringstream out;
  profile.write_json(out);
  EXPECT_EQ(out.str(),
            "{\"type\":\"engine\",\"wall_seconds\":0.123457,"
            "\"sim_seconds\":86400,\"events\":18446744073709551615,"
            "\"events_per_sec\":1.49419e+20,\"speedup\":699840,"
            "\"peak_pending\":4096,\"trace_events\":123456789,"
            "\"trace_bytes\":0}");
  std::ostringstream zero;
  EngineProfile().write_json(zero);
  EXPECT_EQ(zero.str(),
            "{\"type\":\"engine\",\"wall_seconds\":0,\"sim_seconds\":0,"
            "\"events\":0,\"events_per_sec\":0,\"speedup\":0,"
            "\"peak_pending\":0,\"trace_events\":0,\"trace_bytes\":0}");
}

}  // namespace
}  // namespace smr::obs
