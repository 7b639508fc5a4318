// Text serialization for RoommatesInstance.
//
// Format (line oriented, '#' comments allowed):
//   kstable-roommates v1
//   <n>
//   list <p> : <q_0> <q_1> ...     (one line per person; may be empty lists)
// All n persons must appear; lists must be symmetric (validated on load).
// Lexical rules are those of prefs/io.hpp (util/scan.hpp): every list entry
// is a whole base-10 integer token, so a junk token is an error rather than
// the silent end of the list. from_string parses its text in place.
// Malformed input throws ParseError.
#pragma once

#include <iosfwd>
#include <string>
#include <string_view>

#include "roommates/instance.hpp"

namespace kstable::rm::io {

void save(const RoommatesInstance& inst, std::ostream& os);
RoommatesInstance load(std::istream& is);

void save_file(const RoommatesInstance& inst, const std::string& path);
RoommatesInstance load_file(const std::string& path);

std::string to_string(const RoommatesInstance& inst);
RoommatesInstance from_string(std::string_view text);

}  // namespace kstable::rm::io
