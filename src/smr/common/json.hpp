// Minimal JSON value + recursive-descent parser, plus the one string
// escaper every writer shares.
//
// The obs sinks *write* JSON with hand-rolled streaming code; the parser
// is the other direction, used by smr_inspect (and its tests) to load the
// artifacts back: metrics.jsonl, spans.jsonl, critpath.json, report.json,
// alerts.jsonl.  It parses the full JSON grammar the writers emit —
// objects, arrays, strings (all escapes, including \uXXXX with surrogate
// pairs, decoded to UTF-8), numbers (as double), booleans, null — and no
// extensions (no comments, no trailing commas).
//
// append_json_escaped is the symmetric writer half: named escapes for the
// common controls, \uXXXX for the rest of the C0 range, raw pass-through
// for UTF-8 payload bytes.  escape_json, write_json_string and TextOut's
// in-buffer escaping all route through it, so non-ASCII tenant and job
// names survive a write→inspect round-trip byte-for-byte.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace smr {

class JsonValue;
using JsonArray = std::vector<JsonValue>;
using JsonObject = std::map<std::string, JsonValue>;

class JsonValue {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  JsonValue() = default;  // null
  explicit JsonValue(bool b) : type_(Type::kBool), bool_(b) {}
  explicit JsonValue(double d) : type_(Type::kNumber), number_(d) {}
  explicit JsonValue(std::string s)
      : type_(Type::kString), string_(std::move(s)) {}
  explicit JsonValue(JsonArray a);
  explicit JsonValue(JsonObject o);

  Type type() const { return type_; }
  bool is_null() const { return type_ == Type::kNull; }
  bool is_bool() const { return type_ == Type::kBool; }
  bool is_number() const { return type_ == Type::kNumber; }
  bool is_string() const { return type_ == Type::kString; }
  bool is_array() const { return type_ == Type::kArray; }
  bool is_object() const { return type_ == Type::kObject; }

  /// Typed accessors abort (SMR_CHECK) on kind mismatch.
  bool as_bool() const;
  double as_number() const;
  const std::string& as_string() const;
  const JsonArray& as_array() const;

  /// Object member lookup; nullptr when absent or not an object.
  const JsonValue* find(const std::string& key) const;
  /// Member's number, or `fallback` when absent/null/not a number.
  double number_or(const std::string& key, double fallback) const;
  /// Member's string, or `fallback` when absent/not a string.
  std::string string_or(const std::string& key,
                        const std::string& fallback) const;

 private:
  Type type_ = Type::kNull;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  // Indirect so JsonValue stays movable while self-referential.
  std::shared_ptr<JsonArray> array_;
  std::shared_ptr<JsonObject> object_;
};

/// Deepest array/object nesting the parser accepts.  The parser recurses
/// once per level, so a deeper document is rejected as malformed instead of
/// overflowing the stack.
inline constexpr int kJsonMaxDepth = 512;

/// Parses exactly one JSON document from `text` (trailing whitespace
/// allowed).  Returns nullopt with a message in *error on malformed input,
/// nesting deeper than kJsonMaxDepth included.
std::optional<JsonValue> parse_json(const std::string& text,
                                    std::string* error = nullptr);

/// Parses one JSON value per non-empty line (JSONL); stops and returns
/// nullopt on the first malformed line.
std::optional<std::vector<JsonValue>> parse_jsonl(const std::string& text,
                                                  std::string* error = nullptr);

/// Appends `s` with JSON string escaping applied (no surrounding quotes)
/// to `sink`, which takes `append(const char*, std::size_t)`: named
/// escapes for " \ and \n \r \t \b \f, \u00XX for the remaining control
/// characters, every other byte (UTF-8 payload included) passed through.
/// Runs of pass-through bytes go out in one append.
template <typename Sink>
void append_json_escaped(Sink& sink, std::string_view s) {
  static constexpr char kHex[] = "0123456789abcdef";
  std::size_t run = 0;  // start of the pending pass-through run
  for (std::size_t i = 0; i < s.size(); ++i) {
    const auto byte = static_cast<unsigned char>(s[i]);
    if (byte >= 0x20 && byte != '"' && byte != '\\') continue;
    sink.append(s.data() + run, i - run);
    run = i + 1;
    switch (byte) {
      case '"': sink.append("\\\"", 2); break;
      case '\\': sink.append("\\\\", 2); break;
      case '\n': sink.append("\\n", 2); break;
      case '\r': sink.append("\\r", 2); break;
      case '\t': sink.append("\\t", 2); break;
      case '\b': sink.append("\\b", 2); break;
      case '\f': sink.append("\\f", 2); break;
      default: {
        const char unicode[] = {'\\', 'u', '0', '0', kHex[byte >> 4],
                                kHex[byte & 0xF]};
        sink.append(unicode, sizeof unicode);
        break;
      }
    }
  }
  sink.append(s.data() + run, s.size() - run);
}

/// Returns `s` with JSON string escaping applied (append_json_escaped).
std::string escape_json(std::string_view s);

/// Writes `"` + escape_json(s) + `"` to `out`.
void write_json_string(std::ostream& out, std::string_view s);

}  // namespace smr
