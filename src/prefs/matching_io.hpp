// Text serialization for matching results, so pipelines can persist and
// exchange solver outputs.
//
// KaryMatching format:
//   kstable-kary v1
//   <k> <n>
//   family <t> : <idx_gender0> <idx_gender1> ... <idx_gender{k-1}>
// BinaryMatchingKP format:
//   kstable-binary v1
//   <k> <n>
//   pair <flat_a> <flat_b>            (each unordered pair once)
// Lexical rules are those of prefs/io.hpp (util/scan.hpp): '#' comments,
// whole-token base-10 integers, and no trailing tokens after a line's last
// field. The *_from_string loaders parse their text in place. Malformed
// input throws ParseError.
#pragma once

#include <iosfwd>
#include <string>
#include <string_view>

#include "prefs/matching.hpp"

namespace kstable::io {

void save(const KaryMatching& matching, std::ostream& os);
KaryMatching load_kary(std::istream& is);
std::string to_string(const KaryMatching& matching);
KaryMatching kary_from_string(std::string_view text);

void save(const BinaryMatchingKP& matching, std::ostream& os);
BinaryMatchingKP load_binary(std::istream& is);
std::string to_string(const BinaryMatchingKP& matching);
BinaryMatchingKP binary_from_string(std::string_view text);

}  // namespace kstable::io
