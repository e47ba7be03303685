#include "smr/common/json.hpp"

#include <cctype>
#include <cstdlib>
#include <ostream>
#include <sstream>
#include <string_view>

#include "smr/common/error.hpp"

namespace smr {

JsonValue::JsonValue(JsonArray a)
    : type_(Type::kArray), array_(std::make_shared<JsonArray>(std::move(a))) {}

JsonValue::JsonValue(JsonObject o)
    : type_(Type::kObject),
      object_(std::make_shared<JsonObject>(std::move(o))) {}

bool JsonValue::as_bool() const {
  SMR_CHECK_MSG(is_bool(), "json value is not a bool");
  return bool_;
}

double JsonValue::as_number() const {
  SMR_CHECK_MSG(is_number(), "json value is not a number");
  return number_;
}

const std::string& JsonValue::as_string() const {
  SMR_CHECK_MSG(is_string(), "json value is not a string");
  return string_;
}

const JsonArray& JsonValue::as_array() const {
  SMR_CHECK_MSG(is_array(), "json value is not an array");
  return *array_;
}

const JsonObject& JsonValue::as_object() const {
  SMR_CHECK_MSG(is_object(), "json value is not an object");
  return *object_;
}

const JsonValue* JsonValue::find(const std::string& key) const {
  if (!is_object()) return nullptr;
  auto it = object_->find(key);
  return it == object_->end() ? nullptr : &it->second;
}

double JsonValue::number_or(const std::string& key, double fallback) const {
  const JsonValue* v = find(key);
  return (v != nullptr && v->is_number()) ? v->as_number() : fallback;
}

std::string JsonValue::string_or(const std::string& key,
                                 const std::string& fallback) const {
  const JsonValue* v = find(key);
  return (v != nullptr && v->is_string()) ? v->as_string() : fallback;
}

namespace {

class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  std::optional<JsonValue> parse(std::string* error) {
    auto value = parse_value();
    if (value.has_value()) {
      skip_ws();
      if (pos_ != text_.size()) {
        fail("trailing characters after document");
        value.reset();
      }
    }
    if (!value.has_value() && error != nullptr) *error = error_;
    return value;
  }

 private:
  std::optional<JsonValue> parse_value() {
    skip_ws();
    if (pos_ >= text_.size()) return fail("unexpected end of input");
    switch (text_[pos_]) {
      case '{': return parse_object();
      case '[': return parse_array();
      case '"': return parse_string();
      case 't':
        return parse_literal("true", JsonValue(true));
      case 'f':
        return parse_literal("false", JsonValue(false));
      case 'n':
        return parse_literal("null", JsonValue());
      default:
        return parse_number();
    }
  }

  std::optional<JsonValue> parse_object() {
    ++pos_;  // '{'
    JsonObject members;
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return JsonValue(std::move(members));
    }
    while (true) {
      skip_ws();
      if (peek() != '"') return fail("expected object key");
      auto key = parse_string();
      if (!key.has_value()) return std::nullopt;
      skip_ws();
      if (peek() != ':') return fail("expected ':' after object key");
      ++pos_;
      auto value = parse_value();
      if (!value.has_value()) return std::nullopt;
      members.insert_or_assign(key->as_string(), std::move(*value));
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      if (peek() == '}') {
        ++pos_;
        return JsonValue(std::move(members));
      }
      return fail("expected ',' or '}' in object");
    }
  }

  std::optional<JsonValue> parse_array() {
    ++pos_;  // '['
    JsonArray elements;
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return JsonValue(std::move(elements));
    }
    while (true) {
      auto value = parse_value();
      if (!value.has_value()) return std::nullopt;
      elements.push_back(std::move(*value));
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      if (peek() == ']') {
        ++pos_;
        return JsonValue(std::move(elements));
      }
      return fail("expected ',' or ']' in array");
    }
  }

  std::optional<JsonValue> parse_string() {
    ++pos_;  // '"'
    std::string out;
    while (pos_ < text_.size()) {
      char c = text_[pos_++];
      if (c == '"') return JsonValue(std::move(out));
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) break;
      char esc = text_[pos_++];
      switch (esc) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'u': {
          unsigned code = 0;
          if (!parse_hex4(&code)) return fail("malformed \\u escape");
          if (code >= 0xD800 && code <= 0xDBFF) {
            // High surrogate: must be chained with \uDC00–\uDFFF.
            if (pos_ + 1 >= text_.size() || text_[pos_] != '\\' ||
                text_[pos_ + 1] != 'u') {
              return fail("unpaired high surrogate");
            }
            pos_ += 2;
            unsigned low = 0;
            if (!parse_hex4(&low)) return fail("malformed \\u escape");
            if (low < 0xDC00 || low > 0xDFFF) {
              return fail("invalid low surrogate");
            }
            const unsigned cp =
                0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
            append_utf8(out, cp);
          } else if (code >= 0xDC00 && code <= 0xDFFF) {
            return fail("unpaired low surrogate");
          } else {
            append_utf8(out, code);
          }
          break;
        }
        default:
          return fail("unsupported string escape");
      }
    }
    return fail("unterminated string");
  }

  bool parse_hex4(unsigned* code) {
    if (pos_ + 4 > text_.size()) return false;
    unsigned value = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = text_[pos_ + static_cast<std::size_t>(i)];
      unsigned digit;
      if (c >= '0' && c <= '9') {
        digit = static_cast<unsigned>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        digit = static_cast<unsigned>(c - 'a') + 10;
      } else if (c >= 'A' && c <= 'F') {
        digit = static_cast<unsigned>(c - 'A') + 10;
      } else {
        return false;
      }
      value = (value << 4) | digit;
    }
    pos_ += 4;
    *code = value;
    return true;
  }

  static void append_utf8(std::string& out, unsigned cp) {
    if (cp < 0x80) {
      out.push_back(static_cast<char>(cp));
    } else if (cp < 0x800) {
      out.push_back(static_cast<char>(0xC0 | (cp >> 6)));
      out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else if (cp < 0x10000) {
      out.push_back(static_cast<char>(0xE0 | (cp >> 12)));
      out.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else {
      out.push_back(static_cast<char>(0xF0 | (cp >> 18)));
      out.push_back(static_cast<char>(0x80 | ((cp >> 12) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    }
  }

  std::optional<JsonValue> parse_number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0 ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) return fail("expected a value");
    const std::string token = text_.substr(start, pos_ - start);
    char* end = nullptr;
    const double value = std::strtod(token.c_str(), &end);
    if (end == nullptr || *end != '\0') return fail("malformed number");
    return JsonValue(value);
  }

  std::optional<JsonValue> parse_literal(const char* literal, JsonValue value) {
    const std::string_view want(literal);
    if (text_.compare(pos_, want.size(), want) != 0) {
      return fail("malformed literal");
    }
    pos_ += want.size();
    return value;
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_])) != 0) {
      ++pos_;
    }
  }

  /// '\0' at end of input — never a valid structural character.
  char peek() const { return pos_ < text_.size() ? text_[pos_] : '\0'; }

  std::optional<JsonValue> fail(const std::string& message) {
    std::ostringstream oss;
    oss << message << " at offset " << pos_;
    error_ = oss.str();
    return std::nullopt;
  }

  const std::string& text_;
  std::size_t pos_ = 0;
  std::string error_;
};

}  // namespace

std::optional<JsonValue> parse_json(const std::string& text,
                                    std::string* error) {
  return Parser(text).parse(error);
}

std::string escape_json(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  append_json_escaped(out, s);
  return out;
}

void write_json_string(std::ostream& out, std::string_view s) {
  std::string quoted(1, '"');
  append_json_escaped(quoted, s);
  quoted.push_back('"');
  out.write(quoted.data(), static_cast<std::streamsize>(quoted.size()));
}

std::optional<std::vector<JsonValue>> parse_jsonl(const std::string& text,
                                                  std::string* error) {
  std::vector<JsonValue> values;
  std::istringstream lines(text);
  std::string line;
  std::size_t lineno = 0;
  while (std::getline(lines, line)) {
    ++lineno;
    if (line.find_first_not_of(" \t\r") == std::string::npos) continue;
    std::string line_error;
    auto value = parse_json(line, &line_error);
    if (!value.has_value()) {
      if (error != nullptr) {
        std::ostringstream oss;
        oss << "line " << lineno << ": " << line_error;
        *error = oss.str();
      }
      return std::nullopt;
    }
    values.push_back(std::move(*value));
  }
  return values;
}

}  // namespace smr
