// Tests for matching serialization (kary + binary formats).
#include <gtest/gtest.h>

#include "core/binding.hpp"
#include "core/existence.hpp"
#include "prefs/generators.hpp"
#include "prefs/matching_io.hpp"
#include "resilience/errors.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace kstable {
namespace {

TEST(MatchingIo, KaryRoundTrip) {
  Rng rng(2100);
  const auto inst = gen::uniform(4, 6, rng);
  const auto result = core::iterative_binding(inst, trees::path(4));
  const auto text = io::to_string(result.matching());
  const auto back = io::kary_from_string(text);
  EXPECT_EQ(back, result.matching());
}

TEST(MatchingIo, KaryRejectsMalformed) {
  EXPECT_THROW(io::kary_from_string(""), ContractViolation);
  EXPECT_THROW(io::kary_from_string("kstable-kary v2\n3 2\n"),
               ContractViolation);
  // Missing family.
  EXPECT_THROW(io::kary_from_string("kstable-kary v1\n3 2\n"
                                    "family 0 : 0 0 0\n"),
               ContractViolation);
  // Duplicate family.
  EXPECT_THROW(io::kary_from_string("kstable-kary v1\n3 2\n"
                                    "family 0 : 0 0 0\nfamily 0 : 1 1 1\n"),
               ContractViolation);
  // Too few members on a line.
  EXPECT_THROW(io::kary_from_string("kstable-kary v1\n3 2\n"
                                    "family 0 : 0 0\nfamily 1 : 1 1 1\n"),
               ContractViolation);
  // Member reuse caught by KaryMatching validation.
  EXPECT_THROW(io::kary_from_string("kstable-kary v1\n3 2\n"
                                    "family 0 : 0 0 0\nfamily 1 : 0 1 1\n"),
               ContractViolation);
}

TEST(MatchingIo, BinaryRoundTrip) {
  const auto matching = core::theorem1_perfect_matching(5, 4);
  const auto text = io::to_string(matching);
  const auto back = io::binary_from_string(text);
  EXPECT_EQ(back.raw(), matching.raw());
}

TEST(MatchingIo, BinaryRejectsMalformed) {
  EXPECT_THROW(io::binary_from_string("kstable-binary v1\n2 1\n"),
               ContractViolation);  // nobody paired
  EXPECT_THROW(io::binary_from_string("kstable-binary v1\n2 1\npair 0 5\n"),
               ContractViolation);  // out of range
  EXPECT_THROW(
      io::binary_from_string("kstable-binary v1\n2 2\npair 0 2\npair 0 3\n"),
      ContractViolation);  // member in two pairs
  // Same-gender pair rejected by BinaryMatchingKP validation.
  EXPECT_THROW(
      io::binary_from_string("kstable-binary v1\n2 2\npair 0 1\npair 2 3\n"),
      ContractViolation);
}

TEST(MatchingIo, ContractRejectsNameNoSourceLocation) {
  // Each text passes the parser's own checks and is rejected by the
  // matching's constructor contract; the ParseError keeps the check's text
  // but not its file:line.
  const auto expect_located_nowhere = [](const auto& load,
                                         const std::string& text,
                                         const std::string& reason) {
    try {
      (void)load(text);
      ADD_FAILURE() << "accepted: " << text;
    } catch (const ParseError& e) {
      const std::string message = e.what();
      EXPECT_NE(message.find(reason), std::string::npos) << message;
      EXPECT_EQ(message.find(".cpp:"), std::string::npos) << message;
      EXPECT_EQ(message.find(".hpp:"), std::string::npos) << message;
    }
  };
  // A family of 9 whose last member is out of range.
  expect_located_nowhere(
      [](const std::string& t) { return io::kary_from_string(t); },
      "kstable-kary v1\n9 2\nfamily 0 : 0 0 0 0 0 0 0 0 0\n"
      "family 1 : 1 1 1 1 1 1 1 1 7\n",
      "member index 7 out of range");
  // Nobody paired: every partner is -1.
  expect_located_nowhere(
      [](const std::string& t) { return io::binary_from_string(t); },
      "kstable-binary v1\n2 1\n", "out of range: -1");
}

TEST(MatchingIo, CommentsAllowed) {
  const auto back = io::kary_from_string(
      "# saved by a pipeline\nkstable-kary v1\n2 2\n"
      "family 0 : 0 1 # note\nfamily 1 : 1 0\n");
  EXPECT_EQ(back.member_at(0, 1).index, 1);
}

}  // namespace
}  // namespace kstable
