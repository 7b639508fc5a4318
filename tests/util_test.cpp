// Unit tests for the util substrate: RNG, contracts, tables, timer, number
// parsing and the loaders' line/token scanner.
#include <gtest/gtest.h>

#include <algorithm>
#include <charconv>
#include <cstdint>
#include <limits>
#include <numeric>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <string_view>
#include <system_error>
#include <thread>
#include <vector>

#include "util/check.hpp"
#include "util/json.hpp"
#include "util/parse.hpp"
#include "util/rng.hpp"
#include "util/scan.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

namespace kstable {
namespace {

TEST(Check, RequireThrowsContractViolationWithContext) {
  try {
    KSTABLE_REQUIRE(1 == 2, "custom message " << 42);
    FAIL() << "expected ContractViolation";
  } catch (const ContractViolation& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("precondition"), std::string::npos);
    EXPECT_NE(what.find("custom message 42"), std::string::npos);
    EXPECT_NE(what.find("util_test.cpp"), std::string::npos);
  }
}

TEST(Check, EnsureThrowsPostcondition) {
  EXPECT_THROW(KSTABLE_ENSURE(false, "bad"), ContractViolation);
}

TEST(Check, PassingConditionsDoNotThrow) {
  EXPECT_NO_THROW(KSTABLE_REQUIRE(true, "never"));
  EXPECT_NO_THROW(KSTABLE_ENSURE(2 + 2 == 4, "never"));
}

TEST(Rng, DeterministicFromSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) same += (a() == b());
  EXPECT_LT(same, 3);
}

TEST(Rng, BelowRespectsBound) {
  Rng rng(7);
  for (std::uint64_t bound : {1ULL, 2ULL, 3ULL, 10ULL, 1000ULL, 1ULL << 40}) {
    for (int i = 0; i < 200; ++i) {
      EXPECT_LT(rng.below(bound), bound);
    }
  }
}

TEST(Rng, BelowOneAlwaysZero) {
  Rng rng(9);
  for (int i = 0; i < 50; ++i) EXPECT_EQ(rng.below(1), 0U);
}

TEST(Rng, BelowIsRoughlyUniform) {
  Rng rng(42);
  constexpr int kBuckets = 8;
  constexpr int kDraws = 80000;
  std::array<int, kBuckets> histogram{};
  for (int i = 0; i < kDraws; ++i) ++histogram[rng.below(kBuckets)];
  for (const int count : histogram) {
    EXPECT_NEAR(count, kDraws / kBuckets, kDraws / kBuckets * 0.1);
  }
}

TEST(Rng, RangeInclusive) {
  Rng rng(5);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 500; ++i) {
    const auto v = rng.range(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7U);  // all 7 values hit in 500 draws
}

TEST(Rng, Uniform01InUnitInterval) {
  Rng rng(11);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    const double v = rng.uniform01();
    ASSERT_GE(v, 0.0);
    ASSERT_LT(v, 1.0);
    sum += v;
  }
  EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

TEST(Rng, PermutationIsValid) {
  Rng rng(99);
  for (std::int32_t n : {1, 2, 5, 100}) {
    auto perm = rng.permutation(n);
    ASSERT_EQ(perm.size(), static_cast<std::size_t>(n));
    auto sorted = perm;
    std::sort(sorted.begin(), sorted.end());
    for (std::int32_t i = 0; i < n; ++i) EXPECT_EQ(sorted[i], i);
  }
}

TEST(Rng, PermutationsVary) {
  Rng rng(100);
  // Over 20 permutations of 10 elements, at least two should differ.
  const auto first = rng.permutation(10);
  bool any_different = false;
  for (int i = 0; i < 20 && !any_different; ++i) {
    any_different = rng.permutation(10) != first;
  }
  EXPECT_TRUE(any_different);
}

TEST(Rng, ShuffleKeepsMultiset) {
  Rng rng(3);
  std::vector<int> v{1, 1, 2, 3, 5, 8, 13};
  auto original = v;
  rng.shuffle(v);
  std::sort(v.begin(), v.end());
  std::sort(original.begin(), original.end());
  EXPECT_EQ(v, original);
}

TEST(Rng, ForkProducesIndependentStream) {
  Rng parent(17);
  Rng child = parent.fork();
  int same = 0;
  for (int i = 0; i < 100; ++i) same += (parent() == child());
  EXPECT_LT(same, 3);
}

TEST(Rng, ChanceExtremes) {
  Rng rng(23);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.chance(0.0));
    EXPECT_TRUE(rng.chance(1.0));
  }
}

TEST(Splitmix, KnownFirstOutputs) {
  std::uint64_t state = 0;
  const std::uint64_t first = splitmix64(state);
  const std::uint64_t second = splitmix64(state);
  EXPECT_NE(first, second);
  // Reference value for seed 0 (published splitmix64 test vector).
  EXPECT_EQ(first, 0xe220a8397b1dcdafULL);
}

TEST(Table, AlignedPrintContainsAllCells) {
  TableWriter table("demo", {"name", "count", "ratio"});
  table.add_row({std::string("alpha"), std::int64_t{42}, 0.5});
  table.add_row({std::string("b"), std::int64_t{7}, 1.25});
  std::ostringstream os;
  table.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("demo"), std::string::npos);
  EXPECT_NE(out.find("alpha"), std::string::npos);
  EXPECT_NE(out.find("42"), std::string::npos);
  EXPECT_NE(out.find("1.250"), std::string::npos);
  EXPECT_EQ(table.row_count(), 2U);
}

TEST(Table, CsvEscapesSpecialCharacters) {
  TableWriter table("csv", {"a", "b"});
  table.add_row({std::string("has,comma"), std::string("has\"quote")});
  std::ostringstream os;
  table.print_csv(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("\"has,comma\""), std::string::npos);
  EXPECT_NE(out.find("\"has\"\"quote\""), std::string::npos);
}

TEST(Table, RowAritymismatchRejected) {
  TableWriter table("bad", {"only"});
  EXPECT_THROW(table.add_row({std::string("x"), std::string("y")}),
               ContractViolation);
}

TEST(Table, EmptyColumnsRejected) {
  EXPECT_THROW(TableWriter("t", {}), ContractViolation);
}

TEST(Table, FormatDoubleDigits) {
  EXPECT_EQ(format_double(3.14159, 2), "3.14");
  EXPECT_EQ(format_double(2.0, 0), "2");
}

TEST(Table, JoinBehaviour) {
  EXPECT_EQ(join({}, ","), "");
  EXPECT_EQ(join({"a"}, ","), "a");
  EXPECT_EQ(join({"a", "b", "c"}, ", "), "a, b, c");
}

TEST(Timer, MeasuresElapsedTime) {
  WallTimer timer;
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  const double ms = timer.millis();
  EXPECT_GE(ms, 15.0);
  EXPECT_LT(ms, 5000.0);
  timer.reset();
  EXPECT_LT(timer.millis(), 15.0);
}

TEST(Timer, UnitsAreConsistent) {
  WallTimer timer;
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  const double s = timer.seconds();
  const double ms = timer.millis();
  EXPECT_NEAR(ms / 1000.0, s, 0.05);
}

// --- parse_number ----------------------------------------------------------

TEST(ParseNumber, AcceptsPlainIntegersInRange) {
  EXPECT_EQ(util::parse_number<int>("42", 0, 100), 42);
  EXPECT_EQ(util::parse_number<int>("-3", -10, 10), -3);
  EXPECT_EQ(util::parse_number<std::int64_t>("0", -1, 1), 0);
}

TEST(ParseNumber, AcceptsPlainDoubles) {
  EXPECT_EQ(util::parse_number<double>("2.5", 0.0, 10.0), 2.5);
  EXPECT_EQ(util::parse_number<double>("1e3", 0.0, 1e9), 1000.0);
  EXPECT_EQ(util::parse_number<double>("-0.25", -1.0, 1.0), -0.25);
  EXPECT_EQ(util::parse_number<double>(".5", 0.0, 1.0), 0.5);
  EXPECT_EQ(util::parse_number<double>("1E+2", 0.0, 1e9), 100.0);
}

TEST(ParseNumber, RejectionTableBothPaths) {
  // Every row must be rejected with from_chars semantics by BOTH the
  // integral and the floating-point path (the strtod path used to accept
  // several of these).
  const char* rejected[] = {
      "",       // empty
      "nan",    // NaN compares false against both range bounds
      "NAN",    //
      "-nan",   // sign-prefixed NaN (first char passes; alphabet scan rejects)
      "inf",    // infinity words
      "-inf",   //
      "infinity",
      " 5",     // leading whitespace (strtod skips it; from_chars does not)
      "\t5",    //
      "+5",     // leading '+' (from_chars rejects)
      "0x1p3",  // hex float (strtod parses it as 8.0)
      "0X10",   //
      "5x",     // trailing junk
      "1e",     // dangling exponent
      "--1",    //
      "abc",    //
  };
  for (const char* text : rejected) {
    EXPECT_FALSE(util::parse_number<double>(text, -1e18, 1e18).has_value())
        << "double path accepted '" << text << "'";
    EXPECT_FALSE(util::parse_number<std::int64_t>(text).has_value())
        << "integer path accepted '" << text << "'";
  }
}

TEST(ParseNumber, RejectsOverflowAndUnderflow) {
  // "1e999" overflows to +inf with ERANGE; "1e-999" silently underflows to
  // ~0.0 with ERANGE — both used to pass the [lo, hi] filter.
  EXPECT_FALSE(util::parse_number<double>("1e999", 0.0, 1e308).has_value());
  EXPECT_FALSE(util::parse_number<double>("-1e999", -1e308, 0.0).has_value());
  EXPECT_FALSE(util::parse_number<double>("1e-999", 0.0, 1e9).has_value());
  EXPECT_FALSE(
      util::parse_number<std::int32_t>("99999999999999999999").has_value());
}

TEST(ParseNumber, RangeBoundsAreInclusive) {
  EXPECT_EQ(util::parse_number<int>("10", 0, 10), 10);
  EXPECT_EQ(util::parse_number<int>("0", 0, 10), 0);
  EXPECT_FALSE(util::parse_number<int>("11", 0, 10).has_value());
  EXPECT_FALSE(util::parse_number<int>("-1", 0, 10).has_value());
  EXPECT_EQ(util::parse_number<double>("1.5", 1.5, 2.0), 1.5);
  EXPECT_FALSE(util::parse_number<double>("1.49", 1.5, 2.0).has_value());
}

TEST(ParseNumber, IntegralPathStillRejectsFloatSyntax) {
  EXPECT_FALSE(util::parse_number<int>("2.5", 0, 10).has_value());
  EXPECT_FALSE(util::parse_number<int>("1e3", 0, 10000).has_value());
}

/// Every line LineReader yields for `text`, through both of its modes.
std::vector<std::string> scanned_lines(const std::string& text) {
  std::vector<std::string> from_view;
  util::LineReader view(text);
  while (const auto line = view.next()) from_view.emplace_back(*line);
  std::istringstream is(text);
  util::LineReader stream(is);
  std::vector<std::string> from_stream;
  while (const auto line = stream.next()) from_stream.emplace_back(*line);
  EXPECT_EQ(from_view, from_stream) << "view and stream modes disagree";
  return from_view;
}

TEST(Json, WriteJsonStringEscapesQuotesBackslashesAndControls) {
  std::ostringstream os;
  util::write_json_string(os, std::string("a\"b\\c\n\r\t\x01\x1f\0d", 12));
  EXPECT_EQ(os.str(), "\"a\\\"b\\\\c\\n\\r\\t\\u0001\\u001f\\u0000d\"");
  std::ostringstream plain;
  util::write_json_string(plain, "gs.queue.proposals");
  EXPECT_EQ(plain.str(), "\"gs.queue.proposals\"");
}

TEST(LineReader, StripsCommentsBlanksAndEmptyLines) {
  using Lines = std::vector<std::string>;
  EXPECT_EQ(scanned_lines(""), Lines{});
  EXPECT_EQ(scanned_lines("\n\n \t\r\n# only a comment\n"), Lines{});
  EXPECT_EQ(scanned_lines("a b\nc"), (Lines{"a b", "c"}));
  EXPECT_EQ(scanned_lines("  a b \t# note\r\n\r\n\vc\f\r\n"),
            (Lines{"a b", "c"}));
  EXPECT_EQ(scanned_lines("x#y#z\n#\n w \n"), (Lines{"x", "w"}));
}

TEST(TokenScanner, SplitsOnEveryBlankKind) {
  util::TokenScanner ts(" a\tbb\r\v c\fd ");
  EXPECT_EQ(ts.token(), "a");
  EXPECT_EQ(ts.token(), "bb");
  EXPECT_FALSE(ts.at_end());
  EXPECT_TRUE(ts.expect("c"));
  EXPECT_FALSE(ts.expect("x"));  // consumes "d"
  EXPECT_TRUE(ts.at_end());
  EXPECT_EQ(ts.token(), std::nullopt);
  EXPECT_FALSE(ts.expect(""));
}

TEST(TokenScanner, IntegersMustBeWholeTokens) {
  util::TokenScanner ok("0 -7 2147483647 -2147483648 -0");
  EXPECT_EQ(ok.integer<std::int32_t>(), 0);
  EXPECT_EQ(ok.integer<std::int32_t>(), -7);
  EXPECT_EQ(ok.integer<std::int32_t>(), 2147483647);
  EXPECT_EQ(ok.integer<std::int32_t>(), -2147483647 - 1);
  EXPECT_EQ(ok.integer<std::int32_t>(), 0);
  EXPECT_EQ(ok.integer<std::int32_t>(), std::nullopt);  // end of line
  for (const char* bad : {"0x", "0x1", "junk", "-", "+0", "1x", ":0", "1:",
                          "2147483648", "-2147483649", "1.0", "1e2"}) {
    util::TokenScanner ts(bad);
    EXPECT_EQ(ts.integer<std::int32_t>(), std::nullopt) << bad;
  }
}

/// One token of the kinds a preference row can hold or get wrong: plain
/// numbers of 1-11 digits, the int32 and int16 edges, signs and junk.
std::string edge_token(Rng& rng) {
  static const std::vector<std::string> kFixed = {
      "0",          "-0",          "+1",         "0x",         "0x1f",
      "1x",         "-",           "+",          "x",          ":",
      "007",        "0000000",     "00000000",   "9999999",    "10000000",
      "2147483647", "2147483648",  "2147483646", "-2147483648", "-2147483649",
      "32767",      "32768",       "-32768",     "65535",      "1.5",
      "1e3",        "12\x7f",     "\xff" "1",  "99999999999"};
  switch (rng.below(4)) {
    case 0:
      return kFixed[rng.below(kFixed.size())];
    case 1: {
      std::string digits(static_cast<std::size_t>(rng.range(8, 11)), '0');
      for (char& c : digits) c = static_cast<char>('0' + rng.below(10));
      return digits;
    }
    default: {
      std::string digits(static_cast<std::size_t>(rng.range(1, 7)), '0');
      for (char& c : digits) c = static_cast<char>('0' + rng.below(10));
      if (rng.below(16) == 0) digits.insert(0, "-");
      if (rng.below(64) == 0) digits.push_back('\x80');
      return digits;
    }
  }
}

/// integers<T>() on `line` against the whole-token from_chars rule applied
/// token by token: the same values, the same verdict, the same token left
/// unconsumed.
template <typename T>
::testing::AssertionResult integers_agree(const std::string& line) {
  static constexpr std::string_view kBlankChars = " \t\r\v\f";
  std::vector<T> want;
  std::optional<std::string_view> want_stop;
  const std::string_view rest(line);
  for (std::size_t at = rest.find_first_not_of(kBlankChars);
       at != std::string_view::npos;
       at = rest.find_first_not_of(kBlankChars, at)) {
    const std::string_view token =
        rest.substr(at, rest.find_first_of(kBlankChars, at) - at);
    at += token.size();
    T value{};
    const char* const last = token.data() + token.size();
    const auto [ptr, ec] = std::from_chars(token.data(), last, value, 10);
    if (ec != std::errc{} || ptr != last) {
      want_stop = token;
      break;
    }
    want.push_back(value);
  }

  util::TokenScanner ts(line);
  std::vector<T> got{T{7}};  // integers() appends
  const bool ended = ts.integers(got);
  got.erase(got.begin());
  const auto stop = ts.token();
  if (got == want && ended == !want_stop.has_value() && stop == want_stop) {
    return ::testing::AssertionSuccess();
  }
  const auto diff = static_cast<std::size_t>(
      std::mismatch(got.begin(), got.end(), want.begin(), want.end()).first -
      got.begin());
  return ::testing::AssertionFailure()
         << "line '" << line << "': " << got.size() << " values (want "
         << want.size() << "), first difference at " << diff << ", ended "
         << ended << ", left '" << stop.value_or("<none>") << "' (want '"
         << want_stop.value_or("<none>") << "')";
}

template <typename T>
void expect_integers_agree(std::uint64_t seed, int lines) {
  Rng rng(seed);
  static const char kBlanks[] = {' ', ' ', ' ', '\t', '\r', '\v', '\f'};
  for (int line_no = 0; line_no < lines; ++line_no) {
    std::string line;
    for (auto tokens = rng.range(0, 12); tokens > 0; --tokens) {
      const std::string token = edge_token(rng);
      for (auto gap = rng.range(1, 2); gap > 0; --gap) {
        line.push_back(kBlanks[rng.below(sizeof kBlanks)]);
      }
      line += token;
    }
    if (rng.below(2) == 0) line.push_back(kBlanks[rng.below(sizeof kBlanks)]);
    ASSERT_TRUE(integers_agree<T>(line));
  }
}

TEST(Scan, IntegersAgreeWithFromChars) {
  expect_integers_agree<std::int32_t>(0x5ca9, 100000);
  // A narrower T rejects short digit runs above its max on both paths.
  expect_integers_agree<std::int16_t>(0x5cb0, 20000);
}

/// `len` random digits.
std::string digit_run(Rng& rng, std::int64_t len) {
  std::string digits(static_cast<std::size_t>(len), '0');
  for (char& c : digits) c = static_cast<char>('0' + rng.below(10));
  return digits;
}

/// The length of a plain token: mostly 1-2 digits, at most 7.
std::int64_t plain_length(Rng& rng) {
  return rng.below(4) == 0 ? rng.range(1, 7) : rng.range(1, 2);
}

/// Plain tokens, each followed by one ' ', exactly `bytes` long (the last
/// byte is a lone ' ' when only one is left).
std::string plain_tokens(Rng& rng, std::size_t bytes) {
  std::string out;
  while (out.size() < bytes) {
    const auto left = static_cast<std::int64_t>(bytes - out.size());
    if (left > 1) out += digit_run(rng, std::min(plain_length(rng), left - 1));
    out.push_back(' ');
  }
  return out;
}

/// Tokens a block scan must hand to from_chars, whatever it then decides:
/// signs, every other blank, 8 or more digits, max(T) + 1, bytes >= 0x80 and
/// a lone '-'; and max(T) itself.
template <typename T>
std::vector<std::string> odd_tokens() {
  const auto max = static_cast<std::int64_t>(std::numeric_limits<T>::max());
  return {"-5",       "+5",        "-0",    "-",       "5\t6",    "\t",
          "5\r6",     "\r",        "5\v6",  "\v",      "5\f6",    "\f",
          "12345678", "00000001",  "123456789012",     std::to_string(max),
          std::to_string(max + 1), "\x80",  "7\xff",   "\xc3\xa9" "1"};
}

/// Rows as long as a k-partite instance's (60-200 tokens), so most of their
/// bytes sit in full 64-byte blocks and the tail path sees every length.
template <typename T>
void expect_long_lines_agree(std::uint64_t seed) {
  Rng rng(seed);
  static const char kBlanks[] = {'\t', '\r', '\v', '\f'};
  for (int line_no = 0; line_no < 4000; ++line_no) {
    std::string line;
    for (auto tokens = rng.range(60, 200); tokens > 0; --tokens) {
      line += rng.below(64) == 0 ? edge_token(rng)
                                 : digit_run(rng, plain_length(rng));
      line.push_back(rng.below(128) == 0 ? kBlanks[rng.below(sizeof kBlanks)]
                                         : ' ');
    }
    if (rng.below(2) == 0) line.pop_back();
    ASSERT_TRUE(integers_agree<T>(line));
  }
  // One odd token at every offset 0-80, so it falls before, across and after
  // the end of the first block, in rows that run on past it (or stop there).
  for (const std::string& odd : odd_tokens<T>()) {
    for (std::size_t offset = 0; offset <= 80; ++offset) {
      for (int rep = 0; rep < 4; ++rep) {
        std::string line = plain_tokens(rng, offset) + odd + ' ' +
                           plain_tokens(rng, rng.below(200));
        if (rng.below(2) == 0) line.pop_back();
        ASSERT_TRUE(integers_agree<T>(line)) << "offset " << offset;
      }
    }
  }
  // Tails of every length 0-71: a whole line, and one that follows a full
  // block of plain tokens.
  for (std::size_t tail = 0; tail < 72; ++tail) {
    for (int rep = 0; rep < 8; ++rep) {
      std::string row = plain_tokens(rng, tail + 1);
      row.pop_back();
      ASSERT_TRUE(integers_agree<T>(row)) << "tail " << tail;
      ASSERT_TRUE(integers_agree<T>(plain_tokens(rng, 64) + row))
          << "tail " << tail;
    }
  }
}

TEST(Scan, LongLinesAgreeWithFromCharsAcrossBlocks) {
  expect_long_lines_agree<std::int32_t>(0x5cb1);
  expect_long_lines_agree<std::int16_t>(0x5cb2);
}

}  // namespace
}  // namespace kstable
