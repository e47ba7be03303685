// Minimal RFC-4180 CSV field quoting, shared by every CSV writer in the
// repo.  A field containing a comma, double quote, CR or LF is wrapped in
// double quotes with embedded quotes doubled; anything else passes through
// unchanged, so existing numeric columns are byte-identical.
#pragma once

#include <cstddef>
#include <string>
#include <string_view>

namespace smr {

/// Appends `field` as one CSV field to `sink`, which takes
/// `append(const char*, std::size_t)`.  csv_quote and TextOut::csv_field
/// both route through it.
template <typename Sink>
void append_csv_field(Sink& sink, std::string_view field) {
  if (field.find_first_of(",\"\r\n") == std::string_view::npos) {
    sink.append(field.data(), field.size());
    return;
  }
  sink.append("\"", 1);
  std::size_t run = 0;  // start of the pending run
  for (std::size_t i = 0; i < field.size(); ++i) {
    if (field[i] != '"') continue;
    // Emit through the quote, then start the next run on it: doubled.
    sink.append(field.data() + run, i + 1 - run);
    run = i;
  }
  sink.append(field.data() + run, field.size() - run);
  sink.append("\"", 1);
}

inline std::string csv_quote(std::string_view field) {
  std::string quoted;
  quoted.reserve(field.size() + 2);
  append_csv_field(quoted, field);
  return quoted;
}

}  // namespace smr
