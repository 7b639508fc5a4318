// Unit tests for the prefs substrate: instance model, generators, IO,
// matching types, and the paper's example instances.
#include <gtest/gtest.h>

#include <set>
#include <sstream>
#include <string>

#include "prefs/examples.hpp"
#include "prefs/generators.hpp"
#include "prefs/io.hpp"
#include "prefs/kpartite.hpp"
#include "prefs/matching.hpp"
#include "resilience/errors.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace kstable {
namespace {

TEST(Ids, FlatRoundTrip) {
  const Index n = 7;
  for (Gender g = 0; g < 4; ++g) {
    for (Index i = 0; i < n; ++i) {
      const MemberId m{g, i};
      EXPECT_EQ(member_of(flat_id(m, n), n), m);
    }
  }
}

TEST(Ids, StreamFormat) {
  std::ostringstream os;
  os << MemberId{0, 3} << ' ' << MemberId{2, 0};
  EXPECT_EQ(os.str(), "a3 c0");
}

TEST(KPartite, ConstructionBounds) {
  EXPECT_THROW(KPartiteInstance(1, 4), ContractViolation);
  EXPECT_THROW(KPartiteInstance(3, 0), ContractViolation);
  const KPartiteInstance inst(3, 4);
  EXPECT_EQ(inst.genders(), 3);
  EXPECT_EQ(inst.per_gender(), 4);
  EXPECT_EQ(inst.total_members(), 12);
}

TEST(KPartite, SetAndReadPrefList) {
  KPartiteInstance inst(2, 3);
  const std::vector<Index> order{2, 0, 1};
  inst.set_pref_list({0, 0}, 1, order);
  const auto list = inst.pref_list({0, 0}, 1);
  EXPECT_EQ(std::vector<Index>(list.begin(), list.end()), order);
  EXPECT_EQ(inst.rank_of({0, 0}, {1, 2}), 0);
  EXPECT_EQ(inst.rank_of({0, 0}, {1, 0}), 1);
  EXPECT_EQ(inst.rank_of({0, 0}, {1, 1}), 2);
  EXPECT_TRUE(inst.prefers({0, 0}, {1, 2}, {1, 1}));
  EXPECT_FALSE(inst.prefers({0, 0}, {1, 1}, {1, 2}));
}

TEST(KPartite, RejectsMalformedLists) {
  KPartiteInstance inst(2, 3);
  EXPECT_THROW(inst.set_pref_list({0, 0}, 1, std::vector<Index>{0, 1}),
               ContractViolation);  // wrong length
  EXPECT_THROW(inst.set_pref_list({0, 0}, 1, std::vector<Index>{0, 1, 1}),
               ContractViolation);  // duplicate
  EXPECT_THROW(inst.set_pref_list({0, 0}, 1, std::vector<Index>{0, 1, 3}),
               ContractViolation);  // out of range
  EXPECT_THROW(inst.set_pref_list({0, 0}, 0, std::vector<Index>{0, 1, 2}),
               ContractViolation);  // own gender
  EXPECT_THROW(inst.set_pref_list({0, 5}, 1, std::vector<Index>{0, 1, 2}),
               ContractViolation);  // member out of range
}

/// Sets row (0,0)->1 of a fresh 2 x n instance to the reversed order, then
/// submits `bad` and checks it is rejected with nothing changed: the pref
/// row, every rank cell of the row and generation(). A non-empty `error`
/// must appear in the rejection's message.
void expect_rejected_list_changes_nothing(const std::vector<Index>& bad,
                                          const std::string& error = {}) {
  const auto n = static_cast<Index>(bad.size());
  std::vector<Index> good(bad.size());
  for (Index r = 0; r < n; ++r) good[static_cast<std::size_t>(r)] = n - 1 - r;
  KPartiteInstance inst(2, n);
  inst.set_pref_list({0, 0}, 1, good);
  const std::uint64_t generation = inst.generation();
  try {
    inst.set_pref_list({0, 0}, 1, bad);
    ADD_FAILURE() << "a non-permutation was accepted";
  } catch (const ContractViolation& e) {
    EXPECT_NE(std::string(e.what()).find(error), std::string::npos)
        << e.what();
  }
  const auto list = inst.pref_list({0, 0}, 1);
  EXPECT_EQ(std::vector<Index>(list.begin(), list.end()), good);
  for (Index t = 0; t < n; ++t) {
    EXPECT_EQ(inst.rank_of({0, 0}, {1, t}), n - 1 - t) << "member " << t;
  }
  EXPECT_EQ(inst.generation(), generation);
  // The check's reused rank buffer does not leak into the next list.
  inst.set_pref_list({0, 0}, 1, good);
  EXPECT_EQ(inst.generation(), generation + 1);
}

TEST(KPartite, RejectedDuplicateEntryChangesNothing) {
  // The duplicate comes last, after every other entry has been seen.
  std::vector<Index> bad(70);
  for (Index r = 0; r < 70; ++r) bad[static_cast<std::size_t>(r)] = r;
  bad.back() = 3;
  expect_rejected_list_changes_nothing(bad);
}

TEST(KPartite, RejectedOutOfRangeEntryChangesNothing) {
  std::vector<Index> bad(70);
  for (Index r = 0; r < 70; ++r) bad[static_cast<std::size_t>(r)] = r;
  bad[40] = 70;
  expect_rejected_list_changes_nothing(bad);
  bad[40] = -1;
  expect_rejected_list_changes_nothing(bad);
}

TEST(Prefs, SetPrefListFirstBadEntryNamesTheError) {
  // Whichever fault comes first in list order is the one reported.
  std::vector<Index> bad = {5, 99, 5, 0, 1, 2, 3, 4};
  expect_rejected_list_changes_nothing(
      bad, "preference entry 99 out of range for a0");
  bad = {5, 5, 99, 0, 1, 2, 3, 4};
  expect_rejected_list_changes_nothing(
      bad, "duplicate preference entry 5 for a0");
}

TEST(KPartite, ValidateDetectsUnsetLists) {
  KPartiteInstance inst(2, 2);
  inst.set_pref_list({0, 0}, 1, std::vector<Index>{0, 1});
  EXPECT_THROW(inst.validate(), ContractViolation);
  EXPECT_FALSE(inst.is_complete());
}

TEST(KPartite, RankOfUnsetListThrows) {
  const KPartiteInstance inst(2, 2);
  EXPECT_THROW((void)inst.rank_of({0, 0}, {1, 0}), ContractViolation);
}

TEST(KPartite, PrefersRequiresSameGenderTargets) {
  Rng rng(1);
  const auto inst = gen::uniform(3, 2, rng);
  EXPECT_THROW((void)inst.prefers({0, 0}, {1, 0}, {2, 0}), ContractViolation);
}

TEST(Generators, UniformProducesCompleteInstances) {
  Rng rng(10);
  for (Gender k : {2, 3, 5}) {
    for (Index n : {1, 2, 8}) {
      const auto inst = gen::uniform(k, n, rng);
      EXPECT_NO_THROW(inst.validate()) << "k=" << k << " n=" << n;
    }
  }
}

TEST(Generators, UniformIsSeedDeterministic) {
  Rng a(77), b(77);
  EXPECT_EQ(gen::uniform(3, 6, a), gen::uniform(3, 6, b));
}

TEST(Generators, MasterListSharesOrders) {
  Rng rng(20);
  const auto inst = gen::master_list(3, 5, rng);
  inst.validate();
  for (Gender g = 0; g < 3; ++g) {
    for (Gender h = 0; h < 3; ++h) {
      if (h == g) continue;
      const auto reference = inst.pref_list({g, 0}, h);
      for (Index i = 1; i < 5; ++i) {
        const auto list = inst.pref_list({g, i}, h);
        EXPECT_TRUE(std::equal(reference.begin(), reference.end(), list.begin()));
      }
    }
  }
}

TEST(Generators, PopularityZeroNoiseIsMasterList) {
  Rng rng(30);
  const auto inst = gen::popularity(3, 6, rng, 0.0);
  inst.validate();
  for (Gender h = 0; h < 3; ++h) {
    // All observers of gender h (from any other gender) share one order.
    std::vector<Index> reference;
    for (Gender g = 0; g < 3; ++g) {
      if (g == h) continue;
      for (Index i = 0; i < 6; ++i) {
        const auto list = inst.pref_list({g, i}, h);
        if (reference.empty()) {
          reference.assign(list.begin(), list.end());
        } else {
          EXPECT_TRUE(
              std::equal(reference.begin(), reference.end(), list.begin()));
        }
      }
    }
  }
}

TEST(Generators, PopularityHighNoiseDiversifies) {
  Rng rng(31);
  const auto inst = gen::popularity(2, 16, rng, 50.0);
  inst.validate();
  // With overwhelming noise, observers should disagree somewhere.
  bool any_disagreement = false;
  const auto first = inst.pref_list({0, 0}, 1);
  for (Index i = 1; i < 16 && !any_disagreement; ++i) {
    const auto list = inst.pref_list({0, i}, 1);
    any_disagreement = !std::equal(first.begin(), first.end(), list.begin());
  }
  EXPECT_TRUE(any_disagreement);
  EXPECT_THROW(gen::popularity(2, 4, rng, -1.0), ContractViolation);
}

TEST(Generators, SwapNoisePreservesValidity) {
  Rng rng(40);
  auto inst = gen::uniform(3, 8, rng);
  gen::swap_noise(inst, rng, 200);
  EXPECT_NO_THROW(inst.validate());
}

TEST(Generators, Theorem4CyclePrefsMatchPaper) {
  const auto inst = gen::theorem4_cycle_prefs();
  // Spot checks against §IV.B's listed pairs (M=0, W=1, U=2).
  EXPECT_TRUE(inst.prefers({0, 0}, {1, 0}, {1, 1}));  // m: w over w'
  EXPECT_TRUE(inst.prefers({1, 0}, {0, 0}, {0, 1}));  // w: m over m'
  EXPECT_TRUE(inst.prefers({1, 1}, {0, 1}, {0, 0}));  // w': m' over m
  EXPECT_TRUE(inst.prefers({2, 0}, {0, 1}, {0, 0}));  // u: m' over m
  EXPECT_TRUE(inst.prefers({2, 1}, {1, 1}, {1, 0}));  // u': w' over w
}

TEST(Generators, Theorem1RequiresKGreaterThan2) {
  Rng rng(50);
  EXPECT_THROW(gen::theorem1_adversarial(2, 4, rng), ContractViolation);
}

TEST(Generators, Theorem1StructuralProperties) {
  Rng rng(51);
  const Gender k = 4;
  const Index n = 5;
  const Gender pariah_gender = 1;
  const auto inst = gen::theorem1_adversarial(k, n, rng, pariah_gender);
  inst.validate();
  // (1) Pariah (pariah_gender, 0) ranked last by everyone.
  for (Gender g = 0; g < k; ++g) {
    if (g == pariah_gender) continue;
    for (Index i = 0; i < n; ++i) {
      EXPECT_EQ(inst.rank_of({g, i}, {pariah_gender, 0}), n - 1);
    }
  }
  // (2) Every non-pariah-gender member is ranked first by at least one
  // non-pariah observer of a different gender (the cycle property).
  std::vector<int> first_count(static_cast<std::size_t>(k * n), 0);
  for (Gender g = 0; g < k; ++g) {
    if (g == pariah_gender) continue;
    for (Index i = 0; i < n; ++i) {
      for (Gender h = 0; h < k; ++h) {
        if (h == g || h == pariah_gender) continue;
        const Index t = inst.pref_list({g, i}, h)[0];
        ++first_count[static_cast<std::size_t>(flat_id({h, t}, n))];
      }
    }
  }
  for (Gender h = 0; h < k; ++h) {
    if (h == pariah_gender) continue;
    for (Index j = 0; j < n; ++j) {
      const int count =
          first_count[static_cast<std::size_t>(flat_id({h, j}, n))];
      EXPECT_GE(count, 1) << "member (" << h << ',' << j
                          << ") never ranked first";
    }
  }
}

TEST(Examples, Example1FirstMatchesPaper) {
  const auto inst = examples::example1_first();
  // m and m' both rank w first; w and w' both rank m' first.
  EXPECT_EQ(inst.pref_list({examples::kMen, 0}, examples::kWomen)[0], 0);
  EXPECT_EQ(inst.pref_list({examples::kMen, 1}, examples::kWomen)[0], 0);
  EXPECT_EQ(inst.pref_list({examples::kWomen, 0}, examples::kMen)[0], 1);
  EXPECT_EQ(inst.pref_list({examples::kWomen, 1}, examples::kMen)[0], 1);
}

TEST(Examples, Fig3MatchesStatedConstraints) {
  const auto inst = examples::fig3_instance();
  using namespace examples;
  // u and u' rank m above m'.
  EXPECT_TRUE(inst.prefers({kUndecided, 0}, {kMen, 0}, {kMen, 1}));
  EXPECT_TRUE(inst.prefers({kUndecided, 1}, {kMen, 0}, {kMen, 1}));
  // m ranks u' higher; m' ranks u higher.
  EXPECT_TRUE(inst.prefers({kMen, 0}, {kUndecided, 1}, {kUndecided, 0}));
  EXPECT_TRUE(inst.prefers({kMen, 1}, {kUndecided, 0}, {kUndecided, 1}));
}

TEST(Io, RoundTripPreservesInstance) {
  Rng rng(60);
  const auto inst = gen::uniform(4, 6, rng);
  const auto text = io::to_string(inst);
  const auto back = io::from_string(text);
  EXPECT_EQ(inst, back);
}

TEST(Io, SeededRoundTripThroughBothEntryPoints) {
  // k in {2,3,4}; n in [1, 48], except every 50th instance, whose n in
  // [257, 300] puts ranks past one byte.
  Rng rng(64);
  for (int trial = 0; trial < 200; ++trial) {
    const auto k = static_cast<Gender>(2 + trial % 3);
    const auto n = static_cast<Index>(trial % 50 == 0 ? 257 + rng.below(44)
                                                      : 1 + rng.below(48));
    const auto inst = gen::uniform(k, n, rng);
    const std::string text = io::to_string(inst);
    // The loaders prove completeness while parsing; pin that every instance
    // they accept passes the full validate() pass too.
    const auto from_text = io::from_string(text);
    EXPECT_EQ(from_text, inst) << "k=" << k << " n=" << n;
    EXPECT_TRUE(from_text.is_complete()) << "k=" << k << " n=" << n;
    std::istringstream is(text);
    const auto from_stream = io::load(is);
    EXPECT_EQ(from_stream, inst) << "k=" << k << " n=" << n;
    EXPECT_TRUE(from_stream.is_complete()) << "k=" << k << " n=" << n;
  }
}

TEST(Io, RejectsBadHeader) {
  EXPECT_THROW(io::from_string("garbage v1\n2 2\n"), ContractViolation);
  EXPECT_THROW(io::from_string(""), ContractViolation);
}

TEST(Io, RejectsMissingLists) {
  Rng rng(61);
  const auto inst = gen::uniform(2, 2, rng);
  auto text = io::to_string(inst);
  // Drop the last line.
  text.erase(text.rfind("pref"));
  EXPECT_THROW(io::from_string(text), ContractViolation);
}

TEST(Io, ContractRejectNamesNoSourceLocation) {
  // An out-of-range entry in a long row passes the scanner and is caught by
  // set_pref_list's contract check; the ParseError keeps the check's text
  // but not its file:line.
  Rng rng(63);
  const auto inst = gen::uniform(3, 24, rng);
  auto text = io::to_string(inst);
  const std::string row = "pref 1 5 2 : ";
  const std::size_t entry = text.find(row) + row.size();
  text.replace(entry, text.find(' ', entry) - entry, "99");
  try {
    (void)io::from_string(text);
    FAIL() << "an out-of-range entry was accepted";
  } catch (const ParseError& e) {
    const std::string message = e.what();
    EXPECT_NE(message.find("preference entry 99 out of range"),
              std::string::npos)
        << message;
    EXPECT_EQ(message.find(".cpp:"), std::string::npos) << message;
    EXPECT_EQ(message.find(".hpp:"), std::string::npos) << message;
  }
}

TEST(Io, CommentsAndBlankLinesIgnored) {
  Rng rng(62);
  const auto inst = gen::uniform(2, 2, rng);
  auto text = io::to_string(inst);
  text.insert(0, "# leading comment\n\n");
  EXPECT_EQ(io::from_string(text), inst);
}

TEST(Io, FileRoundTrip) {
  Rng rng(63);
  const auto inst = gen::uniform(3, 3, rng);
  const std::string path = testing::TempDir() + "/kstable_io_test.inst";
  io::save_file(inst, path);
  EXPECT_EQ(io::load_file(path), inst);
  EXPECT_THROW(io::load_file("/nonexistent/dir/file.inst"), ContractViolation);
}

TEST(BinaryMatchingKP, ValidatesInvolution) {
  // 2 genders x 2 members: pair (0,i) with (1,i).
  EXPECT_NO_THROW(BinaryMatchingKP(2, 2, {2, 3, 0, 1}));
  // Self match rejected.
  EXPECT_THROW(BinaryMatchingKP(2, 2, {0, 3, 2, 1}), ContractViolation);
  // Same-gender match rejected.
  EXPECT_THROW(BinaryMatchingKP(2, 2, {1, 0, 3, 2}), ContractViolation);
  // Non-involution rejected.
  EXPECT_THROW(BinaryMatchingKP(2, 2, {2, 2, 0, 1}), ContractViolation);
}

TEST(BinaryMatchingKP, PartnerLookup) {
  const BinaryMatchingKP m(2, 2, {3, 2, 1, 0});
  EXPECT_EQ(m.partner({0, 0}), (MemberId{1, 1}));
  EXPECT_EQ(m.partner({1, 0}), (MemberId{0, 1}));
}

TEST(KaryMatching, ValidatesColumns) {
  // k=3, n=2: families (0,0,0) and (1,1,1).
  EXPECT_NO_THROW(KaryMatching(3, 2, {0, 0, 0, 1, 1, 1}));
  // Member reused across families.
  EXPECT_THROW(KaryMatching(3, 2, {0, 0, 0, 1, 0, 1}), ContractViolation);
  // Index out of range.
  EXPECT_THROW(KaryMatching(3, 2, {0, 0, 0, 1, 2, 1}), ContractViolation);
}

TEST(KaryMatching, Lookups) {
  const KaryMatching m(3, 2, {0, 1, 0, 1, 0, 1});
  EXPECT_EQ(m.member_at(0, 1), (MemberId{1, 1}));
  EXPECT_EQ(m.family_of({1, 1}), 0);
  EXPECT_EQ(m.family_of({1, 0}), 1);
  EXPECT_EQ(m.family_member({0, 0}, 2), (MemberId{2, 0}));
}

}  // namespace
}  // namespace kstable
