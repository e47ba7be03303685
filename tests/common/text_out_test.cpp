#include "smr/common/text_out.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <iomanip>
#include <limits>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "smr/common/csv.hpp"
#include "smr/common/error.hpp"
#include "smr/common/json.hpp"

namespace smr {
namespace {

enum class Field { kDefault, kFixed, kScientific };

void set_format(std::ostream& out, Field field, int precision) {
  if (field == Field::kFixed) out << std::fixed;
  if (field == Field::kScientific) out << std::scientific;
  out << std::setprecision(precision);
}

/// Writes `values` one per line through `out << v` and through TextOut on
/// identically formatted streams, and reports the first value whose bytes
/// differ.
void expect_same_doubles(const std::vector<double>& values, Field field,
                         int precision) {
  std::ostringstream expected;
  set_format(expected, field, precision);
  for (const double v : values) expected << v << '\n';

  std::ostringstream actual;
  set_format(actual, field, precision);
  {
    TextOut out(actual);
    for (const double v : values) out << v << '\n';
  }
  if (actual.str() == expected.str()) return;

  for (const double v : values) {
    std::ostringstream one_expected;
    set_format(one_expected, field, precision);
    one_expected << v;
    std::ostringstream one_actual;
    set_format(one_actual, field, precision);
    TextOut(one_actual) << v;
    ASSERT_EQ(one_actual.str(), one_expected.str())
        << "bits 0x" << std::hex << std::bit_cast<std::uint64_t>(v)
        << " field " << static_cast<int>(field) << " precision " << std::dec
        << precision;
  }
  FAIL() << "streams differ but no single value does";
}

constexpr int kPrecisions[] = {0, 1, 3, 6, 15, 17};
constexpr Field kFields[] = {Field::kDefault, Field::kFixed, Field::kScientific};

std::vector<double> edge_doubles() {
  using limits = std::numeric_limits<double>;
  std::vector<double> values = {
      0.0, -0.0, 1.0, -1.0, 0.5, 0.1, 1.0 / 3.0, 2.0 / 3.0,
      limits::denorm_min(), -limits::denorm_min(), limits::min() / 2.0,
      std::nextafter(limits::min(), 0.0), limits::min(), limits::max(),
      -limits::max(), limits::epsilon(), limits::infinity(),
      -limits::infinity(), limits::quiet_NaN(), -limits::quiet_NaN(),
      0.5e-5, 0.95, 9.5, 99.5, 0.125, 2.5, 1e21, 1e22, 123456789012345678.0};
  // %g switches to exponent style below 1e-4 and at 10^precision; probe
  // both sides of each switch and of the rounding carries next to them.
  for (const double base : {1e-5, 1e-4, 1e-3}) {
    values.push_back(base);
    values.push_back(std::nextafter(base, 0.0));
    values.push_back(std::nextafter(base, 1.0));
    values.push_back(base * 0.99999995);
    values.push_back(base * 0.9999995);
  }
  for (int p = 0; p <= 17; ++p) {
    const double power = std::pow(10.0, p);
    values.push_back(power);
    values.push_back(std::nextafter(power, 0.0));
    values.push_back(std::nextafter(power, limits::infinity()));
    values.push_back(power - 0.5);
    values.push_back(power - 0.4);
    values.push_back(-power * 0.99999995);
  }
  return values;
}

TEST(TextOut, DoublesMatchOstreamOnEdgeCases) {
  const std::vector<double> values = edge_doubles();
  for (const Field field : kFields) {
    for (const int precision : kPrecisions) {
      expect_same_doubles(values, field, precision);
    }
  }
}

TEST(TextOut, DoublesMatchOstreamOnRandomBitPatterns) {
  // About a million values over the 18 (field, precision) pairs: half raw
  // 64-bit patterns (every exponent, NaN payloads, subnormals), half
  // decimal-looking magnitudes where %g's two styles and rounding meet.
  constexpr int kPerPair = 1 << 16;
  std::mt19937_64 rng(0x5eed7e47);
  for (const Field field : kFields) {
    for (const int precision : kPrecisions) {
      std::vector<double> values;
      values.reserve(kPerPair);
      for (int i = 0; i < kPerPair / 2; ++i) {
        values.push_back(std::bit_cast<double>(rng()));
      }
      std::uniform_int_distribution<int> exponent(-12, 22);
      std::uniform_int_distribution<std::int64_t> digits(0, 99999999);
      for (int i = 0; i < kPerPair / 2; ++i) {
        const double v = static_cast<double>(digits(rng)) *
                         std::pow(10.0, exponent(rng) - 8);
        values.push_back((rng() & 1) != 0 ? -v : v);
      }
      expect_same_doubles(values, field, precision);
    }
  }
}

template <typename T>
void expect_same_integers(const std::vector<T>& values) {
  std::ostringstream expected;
  std::ostringstream actual;
  {
    TextOut out(actual);
    for (const T v : values) {
      expected << v << ',';
      out << v << ',';
    }
  }
  EXPECT_EQ(actual.str(), expected.str());
}

TEST(TextOut, IntegersMatchOstream) {
  using int_limits = std::numeric_limits<int>;
  using ll_limits = std::numeric_limits<long long>;
  using u64_limits = std::numeric_limits<std::uint64_t>;
  expect_same_integers<int>({int_limits::min(), int_limits::min() + 1, -1, 0,
                             1, 9, 10, int_limits::max()});
  expect_same_integers<long long>({ll_limits::min(), -1000000, 0, 1000000,
                                   ll_limits::max()});
  expect_same_integers<std::uint64_t>({0, 1, u64_limits::max() / 10,
                                       u64_limits::max()});
  expect_same_integers<std::size_t>({0, 65536, 123456789});
  expect_same_integers<std::int64_t>({-42, 42});
}

// Only numbers are formatted as numbers: char is text, bool and the byte
// types do not compile.
template <typename T>
concept Writable = requires(TextOut& out, T value) { out << value; };
static_assert(Writable<char> && Writable<int> && Writable<std::uint64_t> &&
              Writable<double> && Writable<const char*>);
static_assert(!Writable<bool> && !Writable<signed char> &&
              !Writable<unsigned char>);

TEST(TextOut, IntegersIgnoreTheFloatFormat) {
  std::ostringstream stream;
  stream << std::fixed << std::setprecision(2);
  {
    TextOut out(stream);
    out << 7 << ' ' << 7.0;
  }
  EXPECT_EQ(stream.str(), "7 7.00");
}

// escape_json of each single byte, recorded from the ostream-era escaper.
const char* const kEscapedByte[256] = {
    "\\u0000", "\\u0001", "\\u0002", "\\u0003", "\\u0004", "\\u0005", "\\u0006", "\\u0007",
    "\\b", "\\t", "\\n", "\\u000b", "\\f", "\\r", "\\u000e", "\\u000f",
    "\\u0010", "\\u0011", "\\u0012", "\\u0013", "\\u0014", "\\u0015", "\\u0016", "\\u0017",
    "\\u0018", "\\u0019", "\\u001a", "\\u001b", "\\u001c", "\\u001d", "\\u001e", "\\u001f",
    " ", "!", "\\\"", "#", "$", "%", "&", "'",
    "(", ")", "*", "+", ",", "-", ".", "/",
    "0", "1", "2", "3", "4", "5", "6", "7",
    "8", "9", ":", ";", "<", "=", ">", "?",
    "@", "A", "B", "C", "D", "E", "F", "G",
    "H", "I", "J", "K", "L", "M", "N", "O",
    "P", "Q", "R", "S", "T", "U", "V", "W",
    "X", "Y", "Z", "[", "\\\\", "]", "^", "_",
    "`", "a", "b", "c", "d", "e", "f", "g",
    "h", "i", "j", "k", "l", "m", "n", "o",
    "p", "q", "r", "s", "t", "u", "v", "w",
    "x", "y", "z", "{", "|", "}", "~", "\x7f",
    "\x80", "\x81", "\x82", "\x83", "\x84", "\x85", "\x86", "\x87",
    "\x88", "\x89", "\x8a", "\x8b", "\x8c", "\x8d", "\x8e", "\x8f",
    "\x90", "\x91", "\x92", "\x93", "\x94", "\x95", "\x96", "\x97",
    "\x98", "\x99", "\x9a", "\x9b", "\x9c", "\x9d", "\x9e", "\x9f",
    "\xa0", "\xa1", "\xa2", "\xa3", "\xa4", "\xa5", "\xa6", "\xa7",
    "\xa8", "\xa9", "\xaa", "\xab", "\xac", "\xad", "\xae", "\xaf",
    "\xb0", "\xb1", "\xb2", "\xb3", "\xb4", "\xb5", "\xb6", "\xb7",
    "\xb8", "\xb9", "\xba", "\xbb", "\xbc", "\xbd", "\xbe", "\xbf",
    "\xc0", "\xc1", "\xc2", "\xc3", "\xc4", "\xc5", "\xc6", "\xc7",
    "\xc8", "\xc9", "\xca", "\xcb", "\xcc", "\xcd", "\xce", "\xcf",
    "\xd0", "\xd1", "\xd2", "\xd3", "\xd4", "\xd5", "\xd6", "\xd7",
    "\xd8", "\xd9", "\xda", "\xdb", "\xdc", "\xdd", "\xde", "\xdf",
    "\xe0", "\xe1", "\xe2", "\xe3", "\xe4", "\xe5", "\xe6", "\xe7",
    "\xe8", "\xe9", "\xea", "\xeb", "\xec", "\xed", "\xee", "\xef",
    "\xf0", "\xf1", "\xf2", "\xf3", "\xf4", "\xf5", "\xf6", "\xf7",
    "\xf8", "\xf9", "\xfa", "\xfb", "\xfc", "\xfd", "\xfe", "\xff",
};

TEST(TextOut, EscaperMatchesRecordedTableForAllBytes) {
  std::string all_bytes;
  std::string all_escaped;
  for (int b = 0; b < 256; ++b) {
    const std::string byte(1, static_cast<char>(b));
    all_bytes += byte;
    all_escaped += kEscapedByte[b];
    EXPECT_EQ(escape_json(byte), kEscapedByte[b]) << "byte " << b;

    std::ostringstream streamed;
    write_json_string(streamed, byte);
    EXPECT_EQ(streamed.str(), '"' + std::string(kEscapedByte[b]) + '"')
        << "byte " << b;

    std::ostringstream buffered;
    TextOut(buffered).json_string(byte);
    EXPECT_EQ(buffered.str(), streamed.str()) << "byte " << b;
  }
  // Runs of pass-through bytes between escapes come out whole.
  EXPECT_EQ(escape_json(all_bytes), all_escaped);
  std::ostringstream buffered;
  TextOut(buffered).json_string(all_bytes);
  EXPECT_EQ(buffered.str(), '"' + all_escaped + '"');
}

TEST(TextOut, CsvFieldMatchesCsvQuote) {
  for (const std::string field :
       {"", "plain", "a,b", "say \"hi\"", "\"", "\"\"", "line\nbreak",
        "cr\rhere", "trailing\"", "tab\tonly", "slots{kind=\"map\"}"}) {
    std::ostringstream buffered;
    TextOut(buffered).csv_field(field);
    EXPECT_EQ(buffered.str(), csv_quote(field)) << field;
  }
  EXPECT_EQ(csv_quote("plain"), "plain");
  EXPECT_EQ(csv_quote("a,b"), "\"a,b\"");
  EXPECT_EQ(csv_quote("say \"hi\""), "\"say \"\"hi\"\"\"");
}

TEST(TextOut, WritesCrossingTheBufferFlushInOrder) {
  std::string expected;
  std::ostringstream stream;
  {
    TextOut out(stream);
    for (int i = 0; i < 50000; ++i) {
      const std::string piece = "row" + std::to_string(i) + ',';
      out << piece << i << '\n';
      expected += piece + std::to_string(i) + '\n';
    }
    ASSERT_GT(expected.size(), 4 * TextOut::kCapacity);
    // Whole buffers went out already; the tail waits for the destructor.
    EXPECT_GT(stream.str().size(), expected.size() - TextOut::kCapacity);
    EXPECT_LT(stream.str().size(), expected.size());
  }
  EXPECT_EQ(stream.str(), expected);
}

TEST(TextOut, StringLargerThanTheBufferGoesOutWhole) {
  const std::string big(3 * TextOut::kCapacity + 17, 'x');
  std::ostringstream stream;
  {
    TextOut out(stream);
    out << "head:" << big << ":tail";
  }
  EXPECT_EQ(stream.str(), "head:" + big + ":tail");

  std::string escaped_big(TextOut::kCapacity + 3, '"');
  std::ostringstream json;
  TextOut(json).json_string(escaped_big);
  EXPECT_EQ(json.str(), '"' + escape_json(escaped_big) + '"');
}

TEST(TextOut, FlushesOnDestructionAndOnRequest) {
  std::ostringstream stream;
  {
    TextOut out(stream);
    out << "abc" << 1.5;
    EXPECT_TRUE(stream.str().empty());
    out.flush();
    EXPECT_EQ(stream.str(), "abc1.5");
    out << '!';
  }
  EXPECT_EQ(stream.str(), "abc1.5!");
}

TEST(TextOut, EmptyWriterWritesNothing) {
  std::ostringstream stream;
  { TextOut out(stream); }
  EXPECT_TRUE(stream.str().empty());
  EXPECT_EQ(stream.tellp(), std::streampos(0));
  EXPECT_TRUE(stream.good());
}

TEST(TextOut, ReadsStreamStateOnceAndNeverChangesIt) {
  std::ostringstream stream;
  stream << std::fixed << std::setprecision(6);
  {
    TextOut out(stream);
    // A later change to the stream does not reach the open writer.
    stream << std::setprecision(2);
    out << 0.5;
  }
  EXPECT_EQ(stream.str(), "0.500000");
  EXPECT_EQ(stream.precision(), 2);
  EXPECT_EQ(stream.flags() & std::ios_base::floatfield, std::ios_base::fixed);
  // The next writer on the same stream sees the stream's state then.
  TextOut(stream) << 0.125;
  EXPECT_EQ(stream.str(), "0.5000000.12");
}

TEST(TextOut, RejectsFormatsItCannotReproduce) {
  const auto rejects = [](auto&& configure) {
    std::ostringstream stream;
    configure(stream);
    EXPECT_THROW(TextOut{stream}, SmrError);
  };
  rejects([](std::ostream& s) { s << std::hexfloat; });
  rejects([](std::ostream& s) { s << std::showpos; });
  rejects([](std::ostream& s) { s << std::showpoint; });
  rejects([](std::ostream& s) { s << std::uppercase; });
  rejects([](std::ostream& s) { s << std::hex; });
  rejects([](std::ostream& s) { s.width(8); });
  rejects([](std::ostream& s) { s.exceptions(std::ios_base::badbit); });
  rejects([](std::ostream& s) { s.precision(TextOut::kMaxPrecision + 1); });
  // The largest precision it takes still fits a fixed DBL_MAX in the
  // buffer.
  std::ostringstream expected;
  expected << std::fixed << std::setprecision(TextOut::kMaxPrecision)
           << std::numeric_limits<double>::max();
  std::ostringstream actual;
  actual << std::fixed << std::setprecision(TextOut::kMaxPrecision);
  TextOut(actual) << std::numeric_limits<double>::max();
  EXPECT_EQ(actual.str(), expected.str());
}

}  // namespace
}  // namespace smr
