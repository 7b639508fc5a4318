// Tests for Algorithm 2 (priority-based iterative binding), bitonic-tree
// guarantees (Theorem 5), and the (k-1)! tree count (Fig. 6).
#include <gtest/gtest.h>

#include <set>

#include "analysis/stability.hpp"
#include "core/priority_binding.hpp"
#include "graph/prufer.hpp"
#include "graph/scheduling.hpp"
#include "prefs/generators.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace kstable::core {
namespace {

std::vector<std::int32_t> identity_priority(Gender k) {
  std::vector<std::int32_t> p(static_cast<std::size_t>(k));
  for (Gender g = 0; g < k; ++g) p[static_cast<std::size_t>(g)] = g;
  return p;
}

TEST(PriorityBinding, DefaultGrowsStarAtHighestPriority) {
  Rng rng(300);
  const auto inst = gen::uniform(4, 3, rng);
  const auto result = priority_binding(inst);
  // Algorithm 2 hosts everyone at imax = 3.
  EXPECT_EQ(result.tree.degree(3), 3);
  EXPECT_TRUE(result.tree.is_spanning_tree());
  EXPECT_EQ(result.order.front(), 3);
  EXPECT_TRUE(sched::is_bitonic_tree(result.tree, identity_priority(4)));
}

TEST(PriorityBinding, RespectsCustomPriorities) {
  Rng rng(301);
  const auto inst = gen::uniform(4, 3, rng);
  PriorityBindingOptions options;
  options.priority = {10, 40, 20, 30};  // gender 1 is imax
  const auto result = priority_binding(inst, options);
  EXPECT_EQ(result.order.front(), 1);
  EXPECT_EQ(result.order, (std::vector<Gender>{1, 3, 2, 0}));
  EXPECT_TRUE(sched::is_bitonic_tree(result.tree, options.priority));
}

TEST(PriorityBinding, RejectsDuplicatePriorities) {
  Rng rng(302);
  const auto inst = gen::uniform(3, 2, rng);
  PriorityBindingOptions options;
  options.priority = {1, 1, 2};
  EXPECT_THROW(priority_binding(inst, options), ContractViolation);
  options.priority = {1, 2};
  EXPECT_THROW(priority_binding(inst, options), ContractViolation);
}

TEST(PriorityTrees, CountIsFactorial) {
  EXPECT_EQ(priority_tree_count(2), 1);
  EXPECT_EQ(priority_tree_count(3), 2);
  EXPECT_EQ(priority_tree_count(4), 6);   // Fig. 6: 3! = 6 trees
  EXPECT_EQ(priority_tree_count(5), 24);
  EXPECT_EQ(priority_tree_count(6), 120);
}

TEST(PriorityTrees, EnumerationMatchesCountAndAllBitonic) {
  for (Gender k = 2; k <= 6; ++k) {
    std::int64_t count = 0;
    std::set<std::vector<Gender>> distinct;
    for_each_priority_tree(k, {}, [&](const BindingStructure& tree) {
      ASSERT_TRUE(tree.is_spanning_tree());
      // Theorem 5 precondition: every priority-grown tree is bitonic.
      EXPECT_TRUE(sched::is_bitonic_tree(tree, identity_priority(k)));
      distinct.insert(prufer::encode(tree));
      ++count;
    });
    EXPECT_EQ(count, priority_tree_count(k)) << "k=" << k;
    EXPECT_EQ(static_cast<std::int64_t>(distinct.size()), count)
        << "trees must be distinct";
  }
}

TEST(PriorityTrees, NonBitonicTreesExistOutsideTheFamily) {
  // Sanity: for k = 4 there are 16 labeled trees but only 6 priority-grown
  // ones; at least one of the remaining 10 is non-bitonic.
  std::int64_t non_bitonic = 0;
  prufer::enumerate_trees(4, [&](const BindingStructure& tree) {
    if (!sched::is_bitonic_tree(tree, identity_priority(4))) ++non_bitonic;
  });
  EXPECT_GT(non_bitonic, 0);
}

/// Theorem 5 property: Algorithm 2's matching admits no weakened blocking
/// family (exact search on small instances).
TEST(Theorem5, PriorityBindingIsWeakenedStable) {
  Rng rng(310);
  for (int trial = 0; trial < 25; ++trial) {
    const Gender k = static_cast<Gender>(3 + rng.below(2));  // 3 or 4
    const Index n = static_cast<Index>(2 + rng.below(3));    // 2..4
    const auto inst = gen::uniform(k, n, rng);
    const auto result = priority_binding(inst);
    const auto witness = analysis::find_weakened_blocking_family(
        inst, result.binding.matching(), identity_priority(k));
    EXPECT_FALSE(witness.has_value())
        << "k=" << k << " n=" << n << " trial=" << trial;
  }
}

TEST(Theorem5, StarAtImaxIsAlwaysWeakenedStable) {
  // The provable core of Theorem 5 (see DESIGN.md "Deviations"): with the
  // star at the highest-priority gender — Algorithm 2's literal "select i
  // with the highest priority" — every group's lead is tree-adjacent to
  // imax's member, which is its own group's lead, so any weakened blocking
  // family would yield a lead-lead blocking pair on a GS-stable edge.
  Rng rng(311);
  for (int trial = 0; trial < 30; ++trial) {
    const Gender k = static_cast<Gender>(3 + rng.below(2));
    const Index n = static_cast<Index>(2 + rng.below(3));
    const auto inst = gen::uniform(k, n, rng);
    const auto star = trees::star(k, k - 1);
    const auto result = iterative_binding(inst, star);
    EXPECT_FALSE(analysis::find_weakened_blocking_family(
                     inst, result.matching(), identity_priority(k))
                     .has_value())
        << "k=" << k << " n=" << n << " trial=" << trial;
  }
}

TEST(Theorem5, PaperGapBitonicNonStarTreesCanAdmitWeakenedBlocking) {
  // Documented deviation from the paper: Theorem 5 claims EVERY bitonic tree
  // prevents weakened blocking families, but the proof's "(i,k) or (j,k)
  // forms a blocking pair" step needs k's member to reciprocate, which the
  // weakened condition only guarantees for lead members. A bitonic
  // counterexample: a singleton group led by a low-priority gender whose only
  // tree neighbor is a non-lead of the other group. This test pins the
  // empirical witness (see E8 for rates).
  bool found = false;
  for (std::uint64_t seed = 300; seed < 340 && !found; ++seed) {
    Rng rng(seed);
    const auto inst = gen::uniform(4, 3, rng);
    for_each_priority_tree(4, {}, [&](const BindingStructure& tree) {
      if (found || tree.degree(3) == 3) return;  // skip the star at imax
      ASSERT_TRUE(sched::is_bitonic_tree(tree, identity_priority(4)));
      const auto result = iterative_binding(inst, tree);
      found |= analysis::find_weakened_blocking_family(
                   inst, result.matching(), identity_priority(4))
                   .has_value();
    });
  }
  EXPECT_TRUE(found)
      << "expected to reproduce the Theorem 5 gap on some bitonic tree";
}

TEST(Theorem5, NonBitonicTreesCanAdmitWeakenedBlockingFamilies) {
  // Fig. 5(a)'s message: a non-bitonic tree (here the star at the LOWEST
  // priority gender) can leave a weakened blocking family. Search seeds
  // until a witness instance is found — must happen quickly.
  bool found = false;
  for (std::uint64_t seed = 0; seed < 60 && !found; ++seed) {
    Rng rng(seed);
    const auto inst = gen::uniform(4, 3, rng);
    const auto tree = trees::star(4, 0);  // non-bitonic under identity
    ASSERT_FALSE(sched::is_bitonic_tree(tree, identity_priority(4)));
    const auto result = iterative_binding(inst, tree);
    found = analysis::find_weakened_blocking_family(inst, result.matching(),
                                                    identity_priority(4))
                .has_value();
  }
  EXPECT_TRUE(found) << "no weakened blocking family found on any seed; "
                        "either extremely unlucky or the checker is broken";
}

TEST(Theorem5, StrictStabilityStillHolds) {
  // Algorithm 2 is still a spanning-tree binding, so Theorem 2 applies too.
  Rng rng(312);
  const auto inst = gen::uniform(4, 3, rng);
  const auto result = priority_binding(inst);
  EXPECT_FALSE(analysis::find_blocking_family(inst, result.binding.matching())
                   .has_value());
}

}  // namespace
}  // namespace kstable::core
