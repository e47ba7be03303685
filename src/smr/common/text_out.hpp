// Buffered text writer behind every observability artifact (chrome trace,
// trace CSV, span and metrics JSONL, series and decisions CSV, fairness,
// critical-path and engine-profile JSON).
//
// Text and numbers go into a 64 KiB buffer that is handed to the stream
// with one ostream::write per fill, instead of one locale-aware num_put
// per number.  The bytes are exactly what `out << value` would have
// written:
//   * doubles: with the default floatfield, libstdc++'s num_put prints
//     "%.*g" at the stream's precision in the classic locale, and
//     std::to_chars(chars_format::general, precision) is specified as that
//     printf conversion (inf, nan/-nan and -0 included).  Fixed and
//     scientific map to "%.*f" / "%.*e" the same way.
//   * integers: std::to_chars in base 10, as num_put prints them.
// The precision and floatfield are read from the stream once, at
// construction, and the stream's state is never changed, so a writer
// that sets std::fixed on the caller's stream before constructing its
// TextOut prints fixed — and so does every later writer on that stream.
// A char is written as a character; bool, signed char and unsigned char
// do not compile: the writers spell out "true"/"false" and 1/0.
//
// JSON strings and CSV fields are escaped straight into the buffer by the
// same appenders escape_json and csv_quote use (json.hpp, csv.hpp).
//
// The buffer is flushed when full, on flush() and on destruction.  Write
// errors surface through the stream's state, as they do for operator<<;
// the stream must not have exceptions enabled, so the destructor never
// throws.
#pragma once

#include <charconv>
#include <concepts>
#include <cstddef>
#include <cstring>
#include <iosfwd>
#include <string>
#include <string_view>

#include "smr/common/csv.hpp"
#include "smr/common/json.hpp"

namespace smr {

class TextOut {
 public:
  static constexpr std::size_t kCapacity = 64 * 1024;
  static constexpr std::streamsize kMaxPrecision = 1000;

  /// Captures `out`'s precision and floatfield.  Aborts (SmrError) on a
  /// stream whose formatting TextOut does not reproduce: hexfloat,
  /// showpos, showpoint, uppercase, a non-decimal base, a pending width,
  /// exceptions enabled, or a precision above kMaxPrecision.
  explicit TextOut(std::ostream& out);
  ~TextOut() { flush(); }
  TextOut(const TextOut&) = delete;
  TextOut& operator=(const TextOut&) = delete;

  TextOut& operator<<(std::string_view s) {
    append(s.data(), s.size());
    return *this;
  }
  TextOut& operator<<(const char* s) { return *this << std::string_view(s); }
  TextOut& operator<<(char c) {
    if (pos_ == kCapacity) flush();
    buf_[pos_++] = c;
    return *this;
  }
  template <std::integral T>
  TextOut& operator<<(T value) {
    // 20 digits and a sign cover every 64-bit value.
    if (kCapacity - pos_ < 24) flush();
    char* const begin = buf_.data() + pos_;
    pos_ += static_cast<std::size_t>(
        std::to_chars(begin, buf_.data() + kCapacity, value).ptr - begin);
    return *this;
  }
  TextOut& operator<<(double value);
  // A non-template beats the template on an exact match, so these keep
  // bool and the byte types from printing as numbers.
  TextOut& operator<<(bool) = delete;
  TextOut& operator<<(signed char) = delete;
  TextOut& operator<<(unsigned char) = delete;

  /// `"` + `s` JSON-escaped + `"`.
  TextOut& json_string(std::string_view s) {
    *this << '"';
    append_json_escaped(*this, s);
    return *this << '"';
  }
  /// `s` as one RFC-4180 CSV field.
  TextOut& csv_field(std::string_view s) {
    append_csv_field(*this, s);
    return *this;
  }

  void append(const char* data, std::size_t size) {
    if (size == 0) return;  // data may be null
    if (kCapacity - pos_ < size) {
      flush();
      if (size >= kCapacity) {
        write_through(data, size);
        return;
      }
    }
    std::memcpy(buf_.data() + pos_, data, size);
    pos_ += size;
  }

  /// Hands the buffered bytes to the stream (nothing when empty).
  void flush();

 private:
  void write_through(const char* data, std::size_t size);

  std::ostream& out_;
  std::string buf_;
  std::size_t pos_ = 0;
  std::chars_format format_ = std::chars_format::general;
  int precision_ = 6;
};

}  // namespace smr
