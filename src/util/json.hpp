// The one JSON string escaper: the metrics registry, the solve telemetry and
// the verify reports all write their JSON by hand, and every string they
// embed goes through write_json_string.
#pragma once

#include <iosfwd>
#include <string_view>

namespace kstable::util {

/// Writes `text` as a quoted JSON string literal: '"' and '\\' are
/// backslash-escaped, '\n' '\r' '\t' use their short forms, and every other
/// control character below 0x20 becomes \u00XX.
void write_json_string(std::ostream& os, std::string_view text);

}  // namespace kstable::util
