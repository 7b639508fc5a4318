// Unit tests for the graph substrate: binding structures, Prüfer codes,
// round scheduling, bitonic trees.
#include <gtest/gtest.h>

#include <map>
#include <set>

#include "graph/binding_structure.hpp"
#include "graph/prufer.hpp"
#include "graph/scheduling.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace kstable {
namespace {

TEST(BindingStructure, BasicEdgeBookkeeping) {
  BindingStructure s(4);
  s.add_edge({0, 1});
  s.add_edge({1, 2});
  EXPECT_EQ(s.edges().size(), 2U);
  EXPECT_EQ(s.degree(1), 2);
  EXPECT_EQ(s.degree(3), 0);
  EXPECT_EQ(s.max_degree(), 2);
  EXPECT_EQ(s.component_count(), 2);
  EXPECT_FALSE(s.is_spanning_tree());
  s.add_edge({2, 3});
  EXPECT_TRUE(s.is_spanning_tree());
}

TEST(BindingStructure, RejectsBadEdges) {
  BindingStructure s(3);
  EXPECT_THROW(s.add_edge({0, 0}), ContractViolation);   // self loop
  EXPECT_THROW(s.add_edge({0, 3}), ContractViolation);   // out of range
  s.add_edge({0, 1});
  EXPECT_THROW(s.add_edge({1, 0}), ContractViolation);   // duplicate (normalized)
}

TEST(BindingStructure, CycleDetection) {
  BindingStructure s(4);
  s.add_edge({0, 1});
  s.add_edge({1, 2});
  EXPECT_TRUE(s.would_cycle(0, 2));
  EXPECT_FALSE(s.would_cycle(0, 3));
  EXPECT_FALSE(s.has_cycle());
  s.add_edge({0, 2});
  EXPECT_TRUE(s.has_cycle());
  EXPECT_FALSE(s.is_forest());
  EXPECT_FALSE(s.is_spanning_tree());
}

TEST(BindingStructure, NeighborsAndComponents) {
  BindingStructure s(5);
  s.add_edge({0, 2});
  s.add_edge({2, 4});
  EXPECT_EQ(s.neighbors(2), (std::vector<Gender>{0, 4}));  // insertion order
  const auto labels = s.component_labels();
  EXPECT_EQ(labels[0], labels[2]);
  EXPECT_EQ(labels[2], labels[4]);
  EXPECT_NE(labels[0], labels[1]);
  EXPECT_EQ(s.component_count(), 3);
}

TEST(TreeFactories, PathStarCaterpillar) {
  const auto path = trees::path(5);
  EXPECT_TRUE(path.is_spanning_tree());
  EXPECT_EQ(path.max_degree(), 2);

  const auto star = trees::star(5, 2);
  EXPECT_TRUE(star.is_spanning_tree());
  EXPECT_EQ(star.max_degree(), 4);
  EXPECT_EQ(star.degree(2), 4);

  const auto cat = trees::caterpillar(7, 3);
  EXPECT_TRUE(cat.is_spanning_tree());
  EXPECT_THROW(trees::caterpillar(4, 0), ContractViolation);
  EXPECT_THROW(trees::star(3, 5), ContractViolation);
}

TEST(Prufer, EncodeDecodeRoundTripAllSmallTrees) {
  for (Gender k = 2; k <= 7; ++k) {
    std::int64_t count = 0;
    prufer::enumerate_trees(k, [&](const BindingStructure& tree) {
      ASSERT_TRUE(tree.is_spanning_tree());
      const auto seq = prufer::encode(tree);
      const auto back = prufer::decode(seq, k);
      // Same edge set (normalized).
      std::set<std::pair<Gender, Gender>> a, b;
      for (const auto& e : tree.edges()) {
        a.insert({e.normalized().a, e.normalized().b});
      }
      for (const auto& e : back.edges()) {
        b.insert({e.normalized().a, e.normalized().b});
      }
      ASSERT_EQ(a, b);
      ++count;
    });
    EXPECT_EQ(count, prufer::cayley_count(k)) << "k=" << k;
  }
}

TEST(Prufer, CayleyValues) {
  EXPECT_EQ(prufer::cayley_count(2), 1);
  EXPECT_EQ(prufer::cayley_count(3), 3);
  EXPECT_EQ(prufer::cayley_count(4), 16);
  EXPECT_EQ(prufer::cayley_count(5), 125);
  EXPECT_EQ(prufer::cayley_count(8), 262144);
}

TEST(Prufer, DecodeValidation) {
  EXPECT_THROW(prufer::decode({0, 1}, 3), ContractViolation);  // wrong length
  EXPECT_THROW(prufer::decode({5}, 3), ContractViolation);     // entry range
  EXPECT_THROW(prufer::decode({}, 1), ContractViolation);      // k too small
}

TEST(Prufer, RandomTreesAreValidAndVaried) {
  Rng rng(8);
  std::set<std::vector<Gender>> seen;
  for (int i = 0; i < 50; ++i) {
    const auto tree = prufer::random_tree(6, rng);
    ASSERT_TRUE(tree.is_spanning_tree());
    seen.insert(prufer::encode(tree));
  }
  EXPECT_GT(seen.size(), 10U);  // 1296 possible; 50 draws should vary widely
}

TEST(Prufer, EncodeRejectsNonTrees) {
  BindingStructure forest(4);
  forest.add_edge({0, 1});
  EXPECT_THROW(prufer::encode(forest), ContractViolation);
}

TEST(Scheduling, TreeColoringUsesExactlyMaxDegreeRounds) {
  Rng rng(9);
  for (Gender k = 2; k <= 10; ++k) {
    for (int trial = 0; trial < 20; ++trial) {
      const auto tree = prufer::random_tree(k, rng);
      const auto schedule = sched::color_forest(tree);
      EXPECT_EQ(static_cast<std::int32_t>(schedule.round_count()),
                tree.max_degree());
      EXPECT_NO_THROW(sched::validate_schedule(tree, schedule));
    }
  }
}

TEST(Scheduling, PathColoringIsTwoRounds) {
  const auto path = trees::path(8);
  const auto schedule = sched::color_forest(path);
  EXPECT_EQ(schedule.round_count(), 2U);  // Corollary 2
}

TEST(Scheduling, StarColoringIsKMinus1Rounds) {
  const auto star = trees::star(6, 0);
  const auto schedule = sched::color_forest(star);
  EXPECT_EQ(schedule.round_count(), 5U);  // Corollary 1 worst case
}

TEST(Scheduling, ForestColoringWorks) {
  BindingStructure forest(6);
  forest.add_edge({0, 1});
  forest.add_edge({2, 3});
  forest.add_edge({3, 4});
  const auto schedule = sched::color_forest(forest);
  EXPECT_EQ(schedule.round_count(), 2U);
  EXPECT_NO_THROW(sched::validate_schedule(forest, schedule));
}

TEST(Scheduling, EvenOddMatchesFig4) {
  const auto schedule = sched::even_odd_path_schedule(6);
  ASSERT_EQ(schedule.round_count(), 2U);
  // Round 0: edges (0,1), (2,3), (4,5) = indices 0, 2, 4.
  EXPECT_EQ(schedule.rounds[0], (std::vector<std::size_t>{0, 2, 4}));
  EXPECT_EQ(schedule.rounds[1], (std::vector<std::size_t>{1, 3}));
  EXPECT_NO_THROW(sched::validate_schedule(trees::path(6), schedule));
}

TEST(Scheduling, ValidateRejectsConflictingRounds) {
  const auto path = trees::path(3);  // edges (0,1), (1,2) share gender 1
  sched::RoundSchedule bad;
  bad.rounds = {{0, 1}};
  EXPECT_THROW(sched::validate_schedule(path, bad), ContractViolation);
  sched::RoundSchedule missing;
  missing.rounds = {{0}};
  EXPECT_THROW(sched::validate_schedule(path, missing), ContractViolation);
  sched::RoundSchedule duplicated;
  duplicated.rounds = {{0}, {0}, {1}};
  EXPECT_THROW(sched::validate_schedule(path, duplicated), ContractViolation);
}

TEST(Bitonic, PathIsBitonicUnderIdentity) {
  // Path 0-1-2-3: every path is monotone, hence bitonic.
  EXPECT_TRUE(sched::is_bitonic_tree(trees::path(4)));
}

TEST(Bitonic, StarAtHighestIsBitonic) {
  // Star centered at the highest-priority gender: every path rises to the
  // center then falls.
  EXPECT_TRUE(sched::is_bitonic_tree(trees::star(5, 4)));
}

TEST(Bitonic, StarAtLowestIsNotBitonic) {
  // Star centered at gender 0 (lowest priority): the path 1-0-2 dips.
  EXPECT_FALSE(sched::is_bitonic_tree(trees::star(5, 0)));
}

TEST(Bitonic, PaperSequencesExample) {
  // §IV.D: (1,3,4,2) and (1,2,3,4) and (4,3,2,1) bitonic; (4,1,2,3) not.
  // Encode each as a path tree with the given priority sequence.
  auto path_with_priorities = [](const std::vector<std::int32_t>& prio_seq) {
    const auto k = static_cast<Gender>(prio_seq.size());
    std::vector<std::int32_t> priority(static_cast<std::size_t>(k));
    for (Gender g = 0; g < k; ++g) {
      priority[static_cast<std::size_t>(g)] = prio_seq[static_cast<std::size_t>(g)];
    }
    return sched::is_bitonic_tree(trees::path(k), priority);
  };
  EXPECT_TRUE(path_with_priorities({1, 3, 4, 2}));
  EXPECT_TRUE(path_with_priorities({4, 3, 2, 1}));
  EXPECT_TRUE(path_with_priorities({1, 2, 3, 4}));
  EXPECT_FALSE(path_with_priorities({4, 1, 2, 3}));
}

TEST(Bitonic, Fig5Trees) {
  // Fig. 5 (k = 4, priorities = gender id 1..4 → 0-indexed 0..3).
  // (a) unstable: a tree where the two highest-priority genders (2,3) hang
  //     off low-priority nodes — e.g. path 3-0-1-2 is not bitonic (3,0,1,2).
  BindingStructure bad(4);
  bad.add_edge({3, 0});
  bad.add_edge({0, 1});
  bad.add_edge({1, 2});
  EXPECT_FALSE(sched::is_bitonic_tree(bad));
  // (b) stable: 4 at the top, e.g. star at 3 or path 0-1-2-3.
  BindingStructure good(4);
  good.add_edge({3, 2});
  good.add_edge({3, 1});
  good.add_edge({2, 0});
  EXPECT_TRUE(sched::is_bitonic_tree(good));
}

TEST(Bitonic, RequiresMatchingPrioritySize) {
  EXPECT_THROW(sched::is_bitonic_tree(trees::path(4), {1, 2}),
               ContractViolation);
}

}  // namespace
}  // namespace kstable
