// Unit tests for the util substrate: RNG, contracts, tables, timer, number
// parsing and the loaders' line/token scanner.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <optional>
#include <set>
#include <sstream>
#include <string>
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

}  // namespace
}  // namespace kstable
