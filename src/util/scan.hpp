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
// for a k-partite instance), so it is scanned a 64-byte block at a time
// rather than a token at a time (the structural index of Langdale & Lemire,
// arXiv:1902.08318). Eight unaligned 8-byte loads classify the block,
// SWAR-style, into a digit mask and a ' ' mask, cut at the first byte that is
// neither. Token starts are `digit & ~(digit << 1)` and complete tokens, the
// ones a ' ' follows inside the cut, end at `digit & (space >> 1)`. Walking
// both masks pairs each start with its end, so no token's position waits on
// the previous token's scan. A complete token of 1-7 digits is converted with
// three multiply-shift folds from an 8-byte load at its start and kept when
// it is at most max(T). A line tail too short for a block is copied into a
// zero-filled stack buffer behind which one ' ' is placed, so its last token
// is complete and no load leaves the line or the buffer. Every token the
// block declines (a sign, another blank, 8 or more digits, a value above
// max(T), junk) goes through integer(), so the accepted language and every
// value are from_chars' by construction; the block only decides sooner on
// tokens from_chars would accept anyway.
#pragma once

#include <algorithm>
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
    while (!rest_.empty()) {
      std::size_t scanned = 0;
      if (rest_.size() >= kBlockReach) {
        scanned = scan_block(rest_.data(), out);
      } else {
        // The ' ' completes the last token and the zeros behind it end the
        // block; neither is part of the line, hence the min.
        char pad[kBlockReach + 8] = {};
        std::memcpy(pad, rest_.data(), rest_.size());
        pad[rest_.size()] = ' ';
        scanned = std::min(scan_block(pad, out), rest_.size());
      }
      if (scanned > 0) {
        rest_.remove_prefix(scanned);
        continue;
      }
      if (at_end()) return true;
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
  /// The bytes a block scan reads: its 64 bytes, and the 8-byte load of a
  /// complete token, which starts at byte 62 at the latest.
  static constexpr std::size_t kBlockReach = 72;

  /// The high bit of every byte of `word` that is not ' '.
  [[nodiscard]] static constexpr std::uint64_t nonspace_bytes(
      std::uint64_t word) noexcept {
    // A byte is ' ' iff (byte ^ ' ') is zero: adding 0x7f to the low seven
    // bits carries into the high bit iff they are nonzero (and never across
    // bytes); or-ing the xor keeps bytes >= 0x80 flagged.
    word ^= 0x2020202020202020;
    return (((word & 0x7f7f7f7f7f7f7f7f) + 0x7f7f7f7f7f7f7f7f) | word) &
           0x8080808080808080;
  }

  /// The high bit of every byte of `word` that is not an ASCII digit.
  [[nodiscard]] static constexpr std::uint64_t nondigit_bytes(
      std::uint64_t word) noexcept {
    // A byte is a digit iff (byte ^ '0') < 10: adding 0x76 to the low seven
    // bits carries into the high bit iff they are >= 10.
    word ^= 0x3030303030303030;
    return (((word & 0x7f7f7f7f7f7f7f7f) + 0x7676767676767676) | word) &
           0x8080808080808080;
  }

  /// Gathers the high bits of a word's bytes into 8 bits, byte 0 lowest.
  [[nodiscard]] static constexpr std::uint64_t byte_bits(
      std::uint64_t high_bits) noexcept {
    return ((high_bits >> 7) * 0x0102040810204080) >> 56;
  }

  /// Scans the block at `p`, which has kBlockReach readable bytes, and
  /// appends each complete token of 1-7 digits that fits T. Returns the
  /// bytes it consumed: up to the first token it leaves (declined, or
  /// running past the block or into a byte that is neither digit nor ' '),
  /// else up to the first such byte, else the whole block.
  template <typename T>
  [[nodiscard]] static std::size_t scan_block(const char* p,
                                              std::vector<T>& out) {
    if constexpr (std::endian::native != std::endian::little) return 0;
    std::uint64_t not_digit = 0;
    std::uint64_t not_space = 0;
    for (std::size_t w = 0; w < 8; ++w) {
      std::uint64_t word = 0;
      std::memcpy(&word, p + 8 * w, 8);
      not_digit |= byte_bits(nondigit_bytes(word)) << (8 * w);
      not_space |= byte_bits(nonspace_bytes(word)) << (8 * w);
    }
    const std::uint64_t other = not_digit & not_space;
    const std::uint64_t before_other = (other & (0 - other)) - 1;
    const std::uint64_t digit = ~not_digit & before_other;
    const std::uint64_t space = ~not_space & before_other;
    std::uint64_t starts = digit & ~(digit << 1);
    std::uint64_t ends = digit & (space >> 1);
    for (; ends != 0; starts &= starts - 1, ends &= ends - 1) {
      const int first = std::countr_zero(starts);
      const int len = std::countr_zero(ends) - first + 1;
      if (len > 7) return static_cast<std::size_t>(first);
      // Shift the digits to the top of the word (byte 0 is the leading
      // digit; the bytes after the token fall off), then fold adjacent
      // digits, pairs and quads.
      std::uint64_t v = 0;
      std::memcpy(&v, p + first, 8);
      v = (v ^ 0x3030303030303030) << (64 - 8 * len);
      v = (v * 10 + (v >> 8)) & 0x00ff00ff00ff00ff;
      v = (v * 100 + (v >> 16)) & 0x0000ffff0000ffff;
      v = (v * 10000 + (v >> 32)) & 0xffffffff;
      if (v > static_cast<std::uint64_t>(std::numeric_limits<T>::max())) {
        return static_cast<std::size_t>(first);
      }
      out.push_back(static_cast<T>(v));
    }
    return static_cast<std::size_t>(
        std::countr_zero(starts != 0 ? starts : other));
  }

  std::string_view rest_;
};

}  // namespace kstable::util
