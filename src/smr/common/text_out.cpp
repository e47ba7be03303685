#include "smr/common/text_out.hpp"

#include <ostream>

#include "smr/common/error.hpp"

namespace smr {

TextOut::TextOut(std::ostream& out) : out_(out), buf_(kCapacity, '\0') {
  using std::ios_base;
  const ios_base::fmtflags flags = out.flags();
  const ios_base::fmtflags basefield = flags & ios_base::basefield;
  SMR_CHECK_MSG((flags & (ios_base::showpos | ios_base::showpoint |
                          ios_base::uppercase)) == 0 &&
                    (basefield == ios_base::dec || basefield == 0) &&
                    out.width() == 0 && out.exceptions() == ios_base::goodbit,
                "TextOut cannot reproduce this stream's formatting state");
  const ios_base::fmtflags floatfield = flags & ios_base::floatfield;
  SMR_CHECK_MSG(floatfield != ios_base::floatfield,
                "TextOut does not write hexfloat");
  if (floatfield == ios_base::fixed) {
    format_ = std::chars_format::fixed;
  } else if (floatfield == ios_base::scientific) {
    format_ = std::chars_format::scientific;
  }
  SMR_CHECK_MSG(out.precision() <= kMaxPrecision,
                "TextOut writes at most " << kMaxPrecision << " digits, not "
                                          << out.precision());
  // num_put's rule for a negative precision.
  precision_ = out.precision() < 0 ? 6 : static_cast<int>(out.precision());
}

TextOut& TextOut::operator<<(double value) {
  // Sign, point and exponent beside `precision_` digits; fixed adds up to
  // 309 integer digits.  The constructor's precision cap keeps this below
  // kCapacity.
  const std::size_t bound =
      static_cast<std::size_t>(precision_) +
      (format_ == std::chars_format::fixed ? 320 : 32);
  if (kCapacity - pos_ < bound) flush();
  char* const begin = buf_.data() + pos_;
  const auto end =
      std::to_chars(begin, buf_.data() + kCapacity, value, format_, precision_);
  pos_ += static_cast<std::size_t>(end.ptr - begin);
  return *this;
}

void TextOut::flush() {
  if (pos_ == 0) return;
  write_through(buf_.data(), pos_);
  pos_ = 0;
}

void TextOut::write_through(const char* data, std::size_t size) {
  out_.write(data, static_cast<std::streamsize>(size));
}

}  // namespace smr
