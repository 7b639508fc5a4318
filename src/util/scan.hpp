// Line and token scanning for the text loaders (prefs/io, prefs/matching_io,
// roommates/io).
//
// Every kstable text format is line oriented with the same lexical rules:
//   * '#' starts a comment that runs to the end of the line;
//   * blanks are ' ', '\t', '\r', '\v' and '\f' (so CRLF files load);
//   * a line that is empty once its comment and blanks are stripped is
//     skipped;
//   * tokens are maximal runs of non-blank characters;
//   * an integer token is parsed WHOLE by std::from_chars (base 10, optional
//     leading '-'), the rule util::parse_number applies to CLI arguments:
//     "0x1", "1x", "+0", "-" and out-of-range values such as "2147483648"
//     for int32 are rejected, never truncated.
//
// LineReader yields the surviving lines either from a string_view, parsed
// where it lies (no copy of the text), or from a std::istream, one getline at
// a time into a reused buffer, so a file never has to be held whole. Both
// modes run the same strip logic, so the two loader entry points accept
// exactly the same language. TokenScanner then walks one line; loaders end
// each line with at_end() so trailing junk is an error, not silently ignored.
//
// integers() reads the rest of a line as a list of integers, the shape of
// every preference row. A row is most of a loader's input (k(k-1)n² entries
// for a k-partite instance), so it has a fast path: while 8 bytes remain, one
// unaligned 8-byte load classifies the bytes as digits or not, SWAR-style, and
// a token of 1-7 plain digits followed by a blank is converted with three
// multiply-shift steps (accepted when it is at most max(T)). Every other token
// (a sign, 8 or more digits, junk, the last token of a line) goes through
// integer(), so the accepted language and every value are from_chars' by
// construction; the fast path only decides sooner on tokens from_chars would
// accept anyway.
#pragma once

#include <bit>
#include <charconv>
#include <cstdint>
#include <cstring>
#include <iosfwd>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <system_error>
#include <vector>

namespace kstable::util {

[[nodiscard]] constexpr bool is_blank(char c) noexcept {
  return c == ' ' || c == '\t' || c == '\r' || c == '\v' || c == '\f';
}

/// Yields the non-blank lines of a text with comments and surrounding blanks
/// stripped. A returned view stays valid until the next call to next().
class LineReader {
 public:
  /// Reads `text` in place; `text` must outlive the reader.
  explicit LineReader(std::string_view text) noexcept : text_(text) {}
  /// Reads `is` line by line.
  explicit LineReader(std::istream& is) noexcept : stream_(&is) {}

  /// The next non-blank, comment-stripped line, or nullopt at end of input.
  [[nodiscard]] std::optional<std::string_view> next();

 private:
  /// The next raw line (without its '\n'), or false at end of input.
  bool next_raw(std::string_view& line);

  std::string_view text_;
  std::istream* stream_ = nullptr;
  std::string buffer_;  ///< stream mode: the current line
};

/// Walks the blank-separated tokens of one line.
class TokenScanner {
 public:
  explicit TokenScanner(std::string_view line) noexcept : rest_(line) {}

  /// The next token, or nullopt when only blanks remain.
  [[nodiscard]] std::optional<std::string_view> token() noexcept {
    if (at_end()) return std::nullopt;
    std::size_t end = 1;
    while (end < rest_.size() && !is_blank(rest_[end])) ++end;
    const std::string_view out = rest_.substr(0, end);
    rest_.remove_prefix(end);
    return out;
  }

  /// The next token parsed whole as a base-10 T, by std::from_chars straight
  /// off the line: the parse must stop at a blank or the end of the line,
  /// which is parse_number's whole-token rule without a separate token
  /// split. Returns nullopt — consuming nothing, so token() then yields the
  /// offending token — when the line is exhausted or the token is not
  /// exactly a representable integer.
  template <typename T>
  [[nodiscard]] std::optional<T> integer() noexcept {
    if (at_end()) return std::nullopt;
    const char* const first = rest_.data();
    const char* const last = first + rest_.size();
    T value{};
    const auto [ptr, ec] = std::from_chars(first, last, value, 10);
    if (ec != std::errc{} || (ptr != last && !is_blank(*ptr))) {
      return std::nullopt;
    }
    rest_.remove_prefix(static_cast<std::size_t>(ptr - first));
    return value;
  }

  /// Appends every remaining token of the line to `out` as a T. Stops at the
  /// first token integer<T>() would reject, leaving it unconsumed so token()
  /// names it; returns true iff the line ended instead.
  template <typename T>
  [[nodiscard]] bool integers(std::vector<T>& out) {
    while (!at_end()) {
      std::uint64_t fast = 0;
      const std::size_t len = short_digits(fast);
      if (len > 0 &&
          fast <= static_cast<std::uint64_t>(std::numeric_limits<T>::max())) {
        out.push_back(static_cast<T>(fast));
        rest_.remove_prefix(len + 1);  // the token and the blank after it
        continue;
      }
      const auto value = integer<T>();
      if (!value) return false;
      out.push_back(*value);
    }
    return true;
  }

  /// Consumes the next token; true iff there was one and it equals `word`.
  [[nodiscard]] bool expect(std::string_view word) noexcept {
    return token() == word;
  }

  /// Skips leading blanks; true when nothing else remains on the line.
  [[nodiscard]] bool at_end() noexcept {
    std::size_t start = 0;
    while (start < rest_.size() && is_blank(rest_[start])) ++start;
    rest_.remove_prefix(start);
    return rest_.empty();
  }

 private:
  /// When at least 8 bytes remain and the token at the front is 1-7 plain
  /// digits followed by a blank: its length, with its value in `value`.
  /// Otherwise 0.
  [[nodiscard]] std::size_t short_digits(std::uint64_t& value) const noexcept {
    if constexpr (std::endian::native != std::endian::little) return 0;
    if (rest_.size() < 8) return 0;
    std::uint64_t word;
    std::memcpy(&word, rest_.data(), 8);
    // A byte is a digit iff (byte ^ '0') < 10. Adding 0x76 to the low seven
    // bits carries into the high bit iff they are >= 10 (and never across
    // bytes); or-ing the xor keeps bytes >= 0x80 flagged too.
    word ^= 0x3030303030303030;
    const std::uint64_t not_digit =
        (((word & 0x7f7f7f7f7f7f7f7f) + 0x7676767676767676) | word) &
        0x8080808080808080;
    const auto len = static_cast<std::size_t>(std::countr_zero(not_digit)) / 8;
    if (len == 0 || len == 8 || !is_blank(rest_[len])) return 0;
    // Move the digits to the top of the word behind zero bytes (byte 0 is
    // the leading digit), then fold adjacent digits, pairs and quads.
    std::uint64_t v = (word & ((std::uint64_t{1} << (8 * len)) - 1))
                      << (64 - 8 * len);
    v = (v * 10 + (v >> 8)) & 0x00ff00ff00ff00ff;
    v = (v * 100 + (v >> 16)) & 0x0000ffff0000ffff;
    value = (v * 10000 + (v >> 32)) & 0xffffffff;
    return len;
  }

  std::string_view rest_;
};

}  // namespace kstable::util
