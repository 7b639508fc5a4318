// Text serialization for KPartiteInstance.
//
// Format (line oriented):
//   kstable-kpartite v1
//   <k> <n>
//   pref <g> <i> <h> : <idx_0> <idx_1> ... <idx_{n-1}>   (one line per list)
// Lists may appear in any order; all k*n*(k-1) lists must be present, each
// exactly once and each a permutation of [0, n). k >= 2, n >= 1.
//
// Token grammar (util/scan.hpp, shared by every kstable text loader):
//   * '#' starts a comment running to end of line; blanks are ' ', '\t',
//     '\r', '\v', '\f'; lines that are blank after stripping are skipped;
//   * tokens are separated by one or more blanks, so ":" must stand alone
//     ("h :0" and "h: 0" are malformed);
//   * every number is a whole base-10 int32 token: an optional '-' and
//     digits, nothing else — "+0", "0x1", "1x", "-" and "2147483648" are
//     malformed;
//   * each line must end where its grammar ends: a trailing token after the
//     header, the dimensions or a pref list's last entry is malformed.
// Malformed input throws ParseError (a ContractViolation).
#pragma once

#include <iosfwd>
#include <string>
#include <string_view>

#include "prefs/kpartite.hpp"

namespace kstable::io {

/// Writes `inst` in the v1 text format.
void save(const KPartiteInstance& inst, std::ostream& os);

/// Parses a v1 text instance, one line at a time (the stream is never held
/// whole); throws ParseError on malformed input.
KPartiteInstance load(std::istream& is);

/// Convenience wrappers over save/load using files.
void save_file(const KPartiteInstance& inst, const std::string& path);
KPartiteInstance load_file(const std::string& path);

/// Round-trip helpers. from_string parses `text` in place (no copy) with the
/// same parser and grammar as load().
std::string to_string(const KPartiteInstance& inst);
KPartiteInstance from_string(std::string_view text);

}  // namespace kstable::io
