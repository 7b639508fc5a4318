// Tests for Irving's stable-roommates solver: paper §III.B examples, classic
// no-stable instances, random cross-checks against the exhaustive oracle,
// k-partite binary matching front-end, and fair-SMP rotation policies.
#include <gtest/gtest.h>

#include <tuple>

#include "analysis/oracle.hpp"
#include "gs/gale_shapley.hpp"
#include "prefs/examples.hpp"
#include "prefs/generators.hpp"
#include "roommates/adapters.hpp"
#include "roommates/examples.hpp"
#include "roommates/solver.hpp"
#include "roommates/table.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace kstable::rm {
namespace {

/// Complete-list instance from per-person orders.
RoommatesInstance complete_instance(std::vector<std::vector<Person>> lists) {
  return RoommatesInstance(std::move(lists));
}

TEST(Instance, ValidationRejectsMalformedLists) {
  EXPECT_THROW(complete_instance({{0}}), ContractViolation);       // self
  EXPECT_THROW(complete_instance({{1, 1}, {0}}), ContractViolation);  // dup
  EXPECT_THROW(complete_instance({{5}, {0}}), ContractViolation);  // range
  EXPECT_THROW(complete_instance({{1}, {}}), ContractViolation);   // asymmetric
  EXPECT_NO_THROW(complete_instance({{1}, {0}}));
}

TEST(Instance, RankAndPrefers) {
  const auto inst = complete_instance({{1, 2}, {0, 2}, {1, 0}});
  EXPECT_EQ(inst.rank_of(0, 1), 0);
  EXPECT_EQ(inst.rank_of(0, 2), 1);
  EXPECT_EQ(inst.rank_of(2, 2), kUnacceptable);
  EXPECT_TRUE(inst.prefers(2, 1, 0));
  EXPECT_EQ(inst.entry_count(), 6);
}

TEST(Table, DeletionAndCursors) {
  const auto inst = complete_instance({{1, 2, 3}, {0, 2, 3}, {0, 1, 3}, {0, 1, 2}});
  ReductionTable table(inst);
  EXPECT_EQ(table.first(0), 1);
  EXPECT_EQ(table.second(0), 2);
  EXPECT_EQ(table.last(0), 3);
  EXPECT_EQ(table.list_size(0), 3);
  table.delete_pair(0, 1);
  EXPECT_EQ(table.first(0), 2);
  EXPECT_FALSE(table.active(1, 0));  // bidirectional
  EXPECT_EQ(table.list_size(1), 2);
  table.truncate_after(0, 2);
  EXPECT_EQ(table.list_size(0), 1);
  EXPECT_EQ(table.first(0), 2);
  EXPECT_EQ(table.last(0), 2);
  EXPECT_EQ(table.second(0), -1);
  EXPECT_EQ(table.active_list(0), std::vector<Person>{2});
  EXPECT_EQ(table.deletions(), 2);
}

TEST(Solver, Sec3bLeftMatchesPaper) {
  const auto inst = examples::sec3b_left();
  const auto result = solve(inst);
  ASSERT_TRUE(result.has_stable);
  // Paper: final matching (m, u'), (m', w), (w', u).
  EXPECT_EQ(result.match[examples::kM], examples::kUp);
  EXPECT_EQ(result.match[examples::kMp], examples::kW);
  EXPECT_EQ(result.match[examples::kWp], examples::kU);
}

TEST(Solver, Sec3bRightHasNoStableMatching) {
  const auto inst = examples::sec3b_right();
  const auto result = solve(inst);
  EXPECT_FALSE(result.has_stable);
  // Cross-check with brute force: no perfect matching is stable.
  const auto census = analysis::binary_census(inst);
  EXPECT_GT(census.perfect_matchings, 0);
  EXPECT_EQ(census.stable_matchings, 0);
}

TEST(Solver, SelfMatchingExampleUnstable) {
  const auto inst = examples::self_matching_unstable();
  EXPECT_FALSE(solve(inst).has_stable);
  const auto census = analysis::binary_census(inst);
  EXPECT_GT(census.perfect_matchings, 0);
  EXPECT_EQ(census.stable_matchings, 0);
}

TEST(Solver, ClassicNoStableQuartet) {
  // The textbook unsolvable instance: 0, 1, 2 rank each other cyclically and
  // all rank 3 last.
  const auto inst = complete_instance({
      {1, 2, 3},
      {2, 0, 3},
      {0, 1, 3},
      {0, 1, 2},
  });
  const auto result = solve(inst);
  EXPECT_FALSE(result.has_stable);
  EXPECT_GE(result.failed_person, 0);
  const auto census = analysis::binary_census(inst);
  EXPECT_EQ(census.perfect_matchings, 3);
  EXPECT_EQ(census.stable_matchings, 0);
}

TEST(Solver, SimpleSolvableQuartet) {
  // Mutual first choices (0,1) and (2,3).
  const auto inst = complete_instance({
      {1, 2, 3},
      {0, 2, 3},
      {3, 0, 1},
      {2, 0, 1},
  });
  const auto result = solve(inst);
  ASSERT_TRUE(result.has_stable);
  EXPECT_EQ(result.match[0], 1);
  EXPECT_EQ(result.match[2], 3);
}

TEST(Solver, TwoPeople) {
  const auto result = solve(complete_instance({{1}, {0}}));
  ASSERT_TRUE(result.has_stable);
  EXPECT_EQ(result.match[0], 1);
}

TEST(Solver, OddCompleteInstanceHasNoPerfectMatching) {
  const auto inst = complete_instance({{1, 2}, {2, 0}, {0, 1}});
  EXPECT_FALSE(solve(inst).has_stable);
}

TEST(Solver, Fig2DeadlockNeedsARotation) {
  // Phase 1 leaves the Fig. 2 deadlock unresolved; phase 2 must eliminate
  // at least one rotation to reach the stable matching.
  const auto result = solve(examples::fig2_deadlock());
  ASSERT_TRUE(result.has_stable);
  EXPECT_GE(result.rotations_eliminated, 1);
}

/// Random complete instances cross-checked against the exhaustive oracle.
class RoommatesOracleTest
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, Person>> {};

TEST_P(RoommatesOracleTest, AgreesWithBruteForce) {
  const auto [seed, n] = GetParam();
  Rng rng(seed);
  std::vector<std::vector<Person>> lists(static_cast<std::size_t>(n));
  for (Person p = 0; p < n; ++p) {
    for (Person q = 0; q < n; ++q) {
      if (q != p) lists[static_cast<std::size_t>(p)].push_back(q);
    }
    rng.shuffle(lists[static_cast<std::size_t>(p)]);
  }
  const RoommatesInstance inst(std::move(lists));
  const auto result = solve(inst);
  const auto census = analysis::binary_census(inst);
  EXPECT_EQ(result.has_stable, census.stable_matchings > 0)
      << "seed=" << seed << " n=" << n;
  if (result.has_stable) {
    EXPECT_TRUE(is_stable_matching(inst, result.match));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, RoommatesOracleTest,
    ::testing::Combine(::testing::Values(11u, 12u, 13u, 14u, 15u, 16u, 17u,
                                         18u, 19u, 20u, 21u, 22u),
                       ::testing::Values(Person{4}, Person{6}, Person{8})));

TEST(Phase1, InvariantHoldsOnRandomInstances) {
  Rng rng(140);
  for (int trial = 0; trial < 20; ++trial) {
    const Person n = 8;
    std::vector<std::vector<Person>> lists(static_cast<std::size_t>(n));
    for (Person p = 0; p < n; ++p) {
      for (Person q = 0; q < n; ++q) {
        if (q != p) lists[static_cast<std::size_t>(p)].push_back(q);
      }
      rng.shuffle(lists[static_cast<std::size_t>(p)]);
    }
    const RoommatesInstance inst(std::move(lists));
    ReductionTable table(inst);
    std::int64_t proposals = 0;
    Person failed = -1;
    if (run_phase1(table, proposals, failed)) {
      EXPECT_TRUE(table.check_phase1_invariant());
      EXPECT_GE(proposals, n);
    }
  }
}

TEST(StabilityCheck, RejectsNonInvolutionsAndBlockingPairs) {
  const auto inst = complete_instance({
      {1, 2, 3},
      {0, 2, 3},
      {3, 0, 1},
      {2, 0, 1},
  });
  EXPECT_FALSE(is_stable_matching(inst, {1, 0, 3}));        // wrong size
  EXPECT_FALSE(is_stable_matching(inst, {1, 0, 3, 2, 0}));  // wrong size
  EXPECT_FALSE(is_stable_matching(inst, {0, 1, 3, 2}));     // fixed point
  EXPECT_FALSE(is_stable_matching(inst, {2, 3, 0, 1}));     // blocked by (0,1)
  EXPECT_TRUE(is_stable_matching(inst, {1, 0, 3, 2}));
}

TEST(KPartiteBinary, LinearizationsProduceSymmetricInstances) {
  Rng rng(150);
  const auto inst = gen::uniform(3, 4, rng);
  for (const auto lin : {Linearization::round_robin, Linearization::gender_blocks,
                         Linearization::random_interleave}) {
    const auto rm_inst = to_roommates(inst, lin, &rng);
    EXPECT_EQ(rm_inst.size(), 12);
    // Every member lists exactly the 8 other-gender members.
    for (Person p = 0; p < 12; ++p) {
      EXPECT_EQ(rm_inst.list(p).size(), 8U);
      for (const Person q : rm_inst.list(p)) {
        EXPECT_NE(q / 4, p / 4);  // never its own gender
      }
    }
  }
}

TEST(KPartiteBinary, LinearizationPreservesPerGenderOrder) {
  Rng rng(151);
  const auto inst = gen::uniform(3, 5, rng);
  for (const auto lin : {Linearization::round_robin, Linearization::gender_blocks,
                         Linearization::random_interleave}) {
    const auto rm_inst = to_roommates(inst, lin, &rng);
    // Within each target gender, the combined list order must equal the
    // per-gender preference order (a valid topological linearization).
    for (Gender g = 0; g < 3; ++g) {
      for (Index i = 0; i < 5; ++i) {
        const Person p = flat_id({g, i}, 5);
        for (Gender h = 0; h < 3; ++h) {
          if (h == g) continue;
          std::vector<Index> seen;
          for (const Person q : rm_inst.list(p)) {
            if (q / 5 == h) seen.push_back(q % 5);
          }
          const auto expected = inst.pref_list({g, i}, h);
          EXPECT_TRUE(std::equal(expected.begin(), expected.end(), seen.begin()))
              << "lin broke per-gender order";
        }
      }
    }
  }
}

TEST(KPartiteBinary, BipartiteAlwaysStable) {
  Rng rng(152);
  for (int trial = 0; trial < 10; ++trial) {
    const auto inst = gen::uniform(2, 6, rng);
    const auto result = solve_kpartite_binary(inst, Linearization::round_robin);
    EXPECT_TRUE(result.has_stable);  // k = 2: SMP always solvable
  }
}

TEST(KPartiteBinary, RandomInterleaveRequiresRng) {
  Rng rng(153);
  const auto inst = gen::uniform(3, 2, rng);
  EXPECT_THROW(to_roommates(inst, Linearization::random_interleave, nullptr),
               ContractViolation);
}

TEST(FairSmp, PoliciesReproduceOptimalMatchingsOnExample1Second) {
  const auto inst = kstable::examples::example1_second();
  const auto man = solve_fair_smp(inst, kstable::examples::kMen, kstable::examples::kWomen,
                                  FairPolicy::man_oriented);
  ASSERT_TRUE(man.has_stable);
  EXPECT_EQ(man.man_match[0], 0);  // (m, w)
  EXPECT_EQ(man.man_match[1], 1);  // (m', w')

  const auto woman = solve_fair_smp(inst, kstable::examples::kMen, kstable::examples::kWomen,
                                    FairPolicy::woman_oriented);
  ASSERT_TRUE(woman.has_stable);
  EXPECT_EQ(woman.man_match[0], 1);  // (m, w')
  EXPECT_EQ(woman.man_match[1], 0);  // (m', w)
}

TEST(FairSmp, MatchesGsWhenUniqueStableMatching) {
  // Example 1 first preferences have a unique stable matching; every policy
  // must find it, and it must equal the GS outcome.
  const auto inst = kstable::examples::example1_first();
  const auto gs_result =
      gs::gale_shapley_queue(inst, kstable::examples::kMen, kstable::examples::kWomen);
  for (const auto policy : {FairPolicy::man_oriented, FairPolicy::woman_oriented,
                            FairPolicy::alternate}) {
    const auto fair =
        solve_fair_smp(inst, kstable::examples::kMen, kstable::examples::kWomen, policy);
    ASSERT_TRUE(fair.has_stable);
    for (Index i = 0; i < 2; ++i) {
      EXPECT_EQ(fair.man_match[static_cast<std::size_t>(i)],
                gs_result.proposer_match[static_cast<std::size_t>(i)]);
    }
  }
}

TEST(FairSmp, ManOrientedEqualsMenProposingGsOnRandomInstances) {
  Rng rng(160);
  for (int trial = 0; trial < 15; ++trial) {
    const auto inst = gen::uniform(2, 8, rng);
    const auto gs_result = gs::gale_shapley_queue(inst, 0, 1);
    const auto fair = solve_fair_smp(inst, 0, 1, FairPolicy::man_oriented);
    ASSERT_TRUE(fair.has_stable);
    EXPECT_EQ(fair.man_match, gs_result.proposer_match) << "trial " << trial;
    // Symmetrically for women.
    const auto gs_women = gs::gale_shapley_queue(inst, 1, 0);
    const auto fair_women = solve_fair_smp(inst, 0, 1, FairPolicy::woman_oriented);
    EXPECT_EQ(fair_women.woman_match, gs_women.proposer_match);
  }
}

TEST(FairSmp, AlternatePolicyStillStable) {
  Rng rng(161);
  for (int trial = 0; trial < 15; ++trial) {
    const auto inst = gen::uniform(2, 10, rng);
    const auto fair = solve_fair_smp(inst, 0, 1, FairPolicy::alternate);
    ASSERT_TRUE(fair.has_stable);
    // Verify stability directly against the instance.
    for (Index m = 0; m < 10; ++m) {
      for (Index w = 0; w < 10; ++w) {
        const Index mw = fair.man_match[static_cast<std::size_t>(m)];
        const Index wm = fair.woman_match[static_cast<std::size_t>(w)];
        if (mw == w) continue;
        const bool m_wants = inst.prefers({0, m}, {1, w}, {1, mw});
        const bool w_wants = inst.prefers({1, w}, {0, m}, {0, wm});
        EXPECT_FALSE(m_wants && w_wants)
            << "blocking pair (" << m << ',' << w << ")";
      }
    }
  }
}

TEST(Census, LimitAbortsEarly) {
  Rng rng(170);
  std::vector<std::vector<Person>> lists(8);
  for (Person p = 0; p < 8; ++p) {
    for (Person q = 0; q < 8; ++q) {
      if (q != p) lists[static_cast<std::size_t>(p)].push_back(q);
    }
    rng.shuffle(lists[static_cast<std::size_t>(p)]);
  }
  const RoommatesInstance inst(std::move(lists));
  const auto census = analysis::binary_census(inst, 10);
  EXPECT_EQ(census.perfect_matchings, 10);
}

}  // namespace
}  // namespace kstable::rm
