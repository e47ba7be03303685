#include "smr/common/types.hpp"

#include <gtest/gtest.h>

namespace smr {
namespace {

TEST(Units, ConversionsRoundTrip) {
  EXPECT_DOUBLE_EQ(to_gib(5 * kGiB), 5.0);
  EXPECT_DOUBLE_EQ(to_gib(512 * kMiB), 0.5);
}

TEST(Format, BytesPicksSensibleUnit) {
  EXPECT_EQ(format_bytes(512), "512 B");
  EXPECT_EQ(format_bytes(2048), "2.00 KiB");
  EXPECT_EQ(format_bytes(3 * kMiB), "3.00 MiB");
  EXPECT_EQ(format_bytes(static_cast<Bytes>(1.5 * static_cast<double>(kGiB))), "1.50 GiB");
}

TEST(Format, NegativeBytes) {
  EXPECT_EQ(format_bytes(-2048), "-2.00 KiB");
}

TEST(Format, RatePicksSensibleUnit) {
  EXPECT_EQ(format_rate(100.0), "100.0 B/s");
  EXPECT_EQ(format_rate(120.0 * static_cast<double>(kMiB)), "120.00 MiB/s");
}

TEST(Format, DurationShortAndLong) {
  EXPECT_EQ(format_duration(93.25), "93.2 s");
  EXPECT_EQ(format_duration(3723.0), "1h 02m 03s");
  EXPECT_EQ(format_duration(-5.0), "-5.0 s");
}

TEST(Format, DurationInfinite) {
  EXPECT_EQ(format_duration(kTimeNever), "inf");
}

}  // namespace
}  // namespace smr
