#include "smr/common/json.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "smr/obs/metrics_registry.hpp"
#include "smr/obs/span_log.hpp"

namespace smr {
namespace {

TEST(Json, ParsesScalarsAndContainers) {
  const auto value = parse_json(
      R"({"name":"run","count":3,"ratio":-1.5e2,"ok":true,"gone":null,)"
      R"("tags":["a","b"],"nested":{"x":1}})");
  ASSERT_TRUE(value.has_value());
  ASSERT_TRUE(value->is_object());
  EXPECT_EQ(value->string_or("name", ""), "run");
  EXPECT_DOUBLE_EQ(value->number_or("count", 0.0), 3.0);
  EXPECT_DOUBLE_EQ(value->number_or("ratio", 0.0), -150.0);
  EXPECT_TRUE(value->find("ok")->as_bool());
  EXPECT_TRUE(value->find("gone")->is_null());
  ASSERT_TRUE(value->find("tags")->is_array());
  EXPECT_EQ(value->find("tags")->as_array().size(), 2u);
  EXPECT_DOUBLE_EQ(value->find("nested")->number_or("x", 0.0), 1.0);
  // Absent members fall back instead of aborting.
  EXPECT_DOUBLE_EQ(value->number_or("missing", 7.0), 7.0);
  EXPECT_EQ(value->find("missing"), nullptr);
}

TEST(Json, ParsesTheEscapesTheWritersEmit) {
  const auto value = parse_json(R"({"reason":"said \"grow\", then\nheld \\"})");
  ASSERT_TRUE(value.has_value());
  EXPECT_EQ(value->string_or("reason", ""), "said \"grow\", then\nheld \\");
}

TEST(Json, DecodesUnicodeEscapesToUtf8) {
  // Regression: \uXXXX used to fail with "unsupported string escape", so
  // smr_inspect choked on any run dir with non-ASCII tenant or job names.
  const auto value = parse_json(R"({"tenant":"caf\u00e9 \u2603"})");
  ASSERT_TRUE(value.has_value());
  EXPECT_EQ(value->string_or("tenant", ""), "caf\xC3\xA9 \xE2\x98\x83");
  // ASCII through \u works too (upper and lower hex), and \u0000 embeds a
  // real NUL.
  const auto ascii = parse_json(R"(["\u0041\u007A\u007a"])");
  ASSERT_TRUE(ascii.has_value());
  EXPECT_EQ(ascii->as_array()[0].as_string(), "Azz");
  const auto nul = parse_json(R"(["a\u0000b"])");
  ASSERT_TRUE(nul.has_value());
  EXPECT_EQ(nul->as_array()[0].as_string(), std::string("a\0b", 3));
}

TEST(Json, DecodesSurrogatePairs) {
  // U+1F600 (grinning face) as a \uD83D\uDE00 pair = F0 9F 98 80.
  const auto value = parse_json(R"(["\uD83D\uDE00"])");
  ASSERT_TRUE(value.has_value());
  EXPECT_EQ(value->as_array()[0].as_string(), "\xF0\x9F\x98\x80");
}

TEST(Json, RejectsLoneAndMalformedSurrogates) {
  std::string error;
  EXPECT_FALSE(parse_json(R"(["\uD83D"])", &error).has_value());
  EXPECT_NE(error.find("surrogate"), std::string::npos);
  EXPECT_FALSE(parse_json(R"(["\uDE00"])", &error).has_value());
  EXPECT_FALSE(parse_json(R"(["\uD83DA"])", &error).has_value());
  EXPECT_FALSE(parse_json(R"(["\uZZZZ"])", &error).has_value());
  EXPECT_FALSE(parse_json(R"(["\u00"])", &error).has_value());
}

TEST(Json, EscapeIsSymmetricWithTheParser) {
  // Everything a sink can emit — controls, quotes, UTF-8 payload, exotic
  // C0 bytes — must survive escape → parse unchanged.
  const std::string raw =
      std::string("caf\xC3\xA9 \"x\"\n\t\\ \xE2\x98\x83 ") +
      std::string("\x01\x1f\x7f", 3) + "\xF0\x9F\x98\x80";
  const std::string doc = "[\"" + escape_json(raw) + "\"]";
  std::string error;
  const auto value = parse_json(doc, &error);
  ASSERT_TRUE(value.has_value()) << error << " for " << doc;
  EXPECT_EQ(value->as_array()[0].as_string(), raw);
  // Bare C0 controls are escaped as \u00XX, named ones by name.
  EXPECT_EQ(escape_json(std::string("\x01", 1)), "\\u0001");
  EXPECT_EQ(escape_json("\n"), "\\n");
  EXPECT_EQ(escape_json("\f"), "\\f");
  EXPECT_EQ(escape_json("\b"), "\\b");

  std::ostringstream out;
  write_json_string(out, "a\"b");
  EXPECT_EQ(out.str(), "\"a\\\"b\"");
}

TEST(Json, RejectsMalformedInputWithAMessage) {
  std::string error;
  EXPECT_FALSE(parse_json("{\"a\":", &error).has_value());
  EXPECT_FALSE(error.empty());
  EXPECT_FALSE(parse_json("", &error).has_value());
  EXPECT_FALSE(parse_json("{\"a\":1} trailing", &error).has_value());
  EXPECT_FALSE(parse_json("{'single':1}", &error).has_value());
}

TEST(Json, RejectsRawControlCharactersInStrings) {
  // Strict JSON (and Python's json.load) takes C0 controls in a string
  // only escaped; a raw tab or \x01 is an error, not a byte to copy.
  for (const std::string raw : {std::string("\t"), std::string("\x01")}) {
    std::string error;
    EXPECT_FALSE(parse_json("[\"a" + raw + "b\"]", &error).has_value());
    EXPECT_NE(error.find("unescaped control character in string"),
              std::string::npos)
        << error;
    // Escaped, the same byte parses.
    const auto escaped = parse_json("[\"a" + escape_json(raw) + "b\"]", &error);
    ASSERT_TRUE(escaped.has_value()) << error;
    EXPECT_EQ(escaped->as_array()[0].as_string(), "a" + raw + "b");
  }
  // Whitespace between tokens is not inside a string.
  EXPECT_TRUE(parse_json("[\t1,\n2]").has_value());
}

TEST(Json, RejectsNestingPastTheDepthLimit) {
  const auto arrays = [](int depth) {
    return std::string(static_cast<std::size_t>(depth), '[') +
           std::string(static_cast<std::size_t>(depth), ']');
  };
  EXPECT_TRUE(parse_json(arrays(kJsonMaxDepth)).has_value());
  std::string error;
  EXPECT_FALSE(parse_json(arrays(kJsonMaxDepth + 1), &error).has_value());
  EXPECT_NE(error.find("nesting deeper than 512 levels"), std::string::npos)
      << error;
  std::string objects;
  for (int i = 0; i <= kJsonMaxDepth; ++i) objects += "{\"k\":";
  objects += "1" + std::string(static_cast<std::size_t>(kJsonMaxDepth) + 1, '}');
  error.clear();
  EXPECT_FALSE(parse_json(objects, &error).has_value());
  EXPECT_NE(error.find("nesting deeper than"), std::string::npos) << error;
  // Far past the limit and unterminated: an error, not a stack overflow.
  error.clear();
  EXPECT_FALSE(parse_json(std::string(200000, '['), &error).has_value());
  EXPECT_NE(error.find("nesting deeper than"), std::string::npos) << error;
}

TEST(Jsonl, OneValuePerLineSkippingEmpties) {
  const auto values = parse_jsonl("{\"a\":1}\n\n{\"a\":2}\n");
  ASSERT_TRUE(values.has_value());
  ASSERT_EQ(values->size(), 2u);
  EXPECT_DOUBLE_EQ((*values)[1].number_or("a", 0.0), 2.0);

  std::string error;
  EXPECT_FALSE(parse_jsonl("{\"a\":1}\nnot json\n", &error).has_value());
  EXPECT_FALSE(error.empty());
}

TEST(Jsonl, RoundTripsTheMetricsWriter) {
  // The parser must accept everything the obs writers produce.
  obs::MetricsRegistry registry;
  registry.counter("c").inc(7);
  registry.gauge("g").set(-2.5);
  auto& h = registry.histogram("h", {1.0, 5.0});
  h.observe(0.5);
  h.observe(100.0);
  registry.series("s", {{"tenant", "t0"}}).append(1.0, 9.0);
  std::ostringstream out;
  registry.write_jsonl(out);

  std::string error;
  const auto lines = parse_jsonl(out.str(), &error);
  ASSERT_TRUE(lines.has_value()) << error;
  ASSERT_EQ(lines->size(), 4u);
  EXPECT_EQ((*lines)[0].string_or("type", ""), "counter");
  EXPECT_DOUBLE_EQ((*lines)[0].number_or("value", 0.0), 7.0);
  const JsonValue& histogram = (*lines)[2];
  EXPECT_EQ(histogram.string_or("type", ""), "histogram");
  EXPECT_DOUBLE_EQ(histogram.number_or("count", 0.0), 2.0);
  ASSERT_NE(histogram.find("buckets"), nullptr);
  EXPECT_EQ(histogram.find("buckets")->as_array().size(), 3u);
  EXPECT_GT(histogram.number_or("p99", 0.0), 0.0);
  // The labeled series key parses back intact.
  EXPECT_EQ((*lines)[3].string_or("name", ""), "s{tenant=\"t0\"}");
}

TEST(Jsonl, RoundTripsTheSpanWriter) {
  obs::SpanLog log;
  const auto run = log.open(obs::SpanKind::kRun, "run", 0.0);
  const auto attempt = log.open(obs::SpanKind::kAttempt, "map-0", 1.0, run);
  log.at(attempt).retry_of = 0;
  log.close(attempt, 2.0, obs::SpanOutcome::kFailed);
  std::ostringstream out;
  log.write_jsonl(out);

  std::string error;
  const auto lines = parse_jsonl(out.str(), &error);
  ASSERT_TRUE(lines.has_value()) << error;
  ASSERT_EQ(lines->size(), 2u);
  // The open run span writes "end":null — parsed as an explicit null.
  ASSERT_NE((*lines)[0].find("end"), nullptr);
  EXPECT_TRUE((*lines)[0].find("end")->is_null());
  EXPECT_DOUBLE_EQ((*lines)[0].number_or("end", -1.0), -1.0);
  EXPECT_EQ((*lines)[1].string_or("outcome", ""), "failed");
  EXPECT_DOUBLE_EQ((*lines)[1].number_or("retry_of", -1.0), 0.0);
}

}  // namespace
}  // namespace smr
