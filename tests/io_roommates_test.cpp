// Tests for RoommatesInstance text serialization.
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "resilience/errors.hpp"
#include "roommates/examples.hpp"
#include "roommates/io.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace kstable::rm {
namespace {

TEST(RoommatesIo, RoundTripExamples) {
  for (const auto& inst :
       {examples::sec3b_left(), examples::sec3b_right(),
        examples::self_matching_unstable(), examples::fig2_deadlock()}) {
    const auto text = io::to_string(inst);
    const auto back = io::from_string(text);
    ASSERT_EQ(back.size(), inst.size());
    for (Person p = 0; p < inst.size(); ++p) {
      EXPECT_EQ(back.list(p), inst.list(p));
    }
  }
}

TEST(RoommatesIo, RoundTripRandomIncompleteLists) {
  Rng rng(910);
  // Random symmetric acceptability graph.
  const Person n = 10;
  std::vector<std::vector<Person>> lists(static_cast<std::size_t>(n));
  for (Person p = 0; p < n; ++p) {
    for (Person q = p + 1; q < n; ++q) {
      if (rng.chance(0.6)) {
        lists[static_cast<std::size_t>(p)].push_back(q);
        lists[static_cast<std::size_t>(q)].push_back(p);
      }
    }
  }
  for (auto& list : lists) rng.shuffle(list);
  const RoommatesInstance inst(std::move(lists));
  const auto back = io::from_string(io::to_string(inst));
  for (Person p = 0; p < n; ++p) EXPECT_EQ(back.list(p), inst.list(p));
}

TEST(RoommatesIo, EmptyListsSurvive) {
  const RoommatesInstance inst({{1}, {0}, {}});
  const auto back = io::from_string(io::to_string(inst));
  EXPECT_EQ(back.size(), 3);
  EXPECT_TRUE(back.list(2).empty());
}

TEST(RoommatesIo, RejectsMalformedInput) {
  EXPECT_THROW(io::from_string(""), ContractViolation);
  EXPECT_THROW(io::from_string("wrong v1\n2\nlist 0 : 1\nlist 1 : 0\n"),
               ContractViolation);
  EXPECT_THROW(io::from_string("kstable-roommates v1\n0\n"),
               ContractViolation);
  // Missing person 1.
  EXPECT_THROW(io::from_string("kstable-roommates v1\n2\nlist 0 : 1\n"),
               ContractViolation);
  // Duplicate person.
  EXPECT_THROW(io::from_string(
                   "kstable-roommates v1\n2\nlist 0 : 1\nlist 0 : 1\n"),
               ContractViolation);
  // Asymmetric lists rejected by instance validation.
  EXPECT_THROW(io::from_string(
                   "kstable-roommates v1\n2\nlist 0 : 1\nlist 1 :\n"),
               ContractViolation);
}

TEST(RoommatesIo, ContractRejectNamesNoSourceLocation) {
  // Complete lists over 12 people, but person 3's long list ends in 99:
  // the instance constructor's contract check rejects it, and the
  // ParseError keeps its text but not its file:line.
  std::ostringstream text;
  text << "kstable-roommates v1\n12\n";
  for (int p = 0; p < 12; ++p) {
    text << "list " << p << " :";
    for (int q = 0; q < 12; ++q) {
      if (q != p) text << ' ' << (p == 3 && q == 11 ? 99 : q);
    }
    text << '\n';
  }
  try {
    (void)io::from_string(text.str());
    FAIL() << "an out-of-range entry was accepted";
  } catch (const ParseError& e) {
    const std::string message = e.what();
    EXPECT_NE(message.find("out-of-range id 99"), std::string::npos)
        << message;
    EXPECT_EQ(message.find(".cpp:"), std::string::npos) << message;
    EXPECT_EQ(message.find(".hpp:"), std::string::npos) << message;
  }
}

TEST(RoommatesIo, CommentsIgnored) {
  const auto inst = io::from_string(
      "# header comment\nkstable-roommates v1\n2\nlist 0 : 1 # trailing\n"
      "list 1 : 0\n");
  EXPECT_EQ(inst.size(), 2);
  EXPECT_EQ(inst.list(0), std::vector<Person>{1});
}

TEST(RoommatesIo, FileRoundTrip) {
  const auto inst = examples::sec3b_left();
  const std::string path = testing::TempDir() + "/kstable_rm_io_test.inst";
  io::save_file(inst, path);
  const auto back = io::load_file(path);
  EXPECT_EQ(back.size(), inst.size());
  EXPECT_THROW(io::load_file("/nonexistent/nowhere.inst"), ContractViolation);
}

}  // namespace
}  // namespace kstable::rm
