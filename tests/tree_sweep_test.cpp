// Tests for core::TreeSweep: the best_cost fold's edge-cost-table argmin
// must name the tree, cost and matching that binding every tree names
// (score_table), with exactly (k-1)² GS runs on a full sweep.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "analysis/stability.hpp"
#include "core/gs_cache.hpp"
#include "core/tree_selection.hpp"
#include "core/tree_sweep.hpp"
#include "graph/prufer.hpp"
#include "prefs/generators.hpp"
#include "resilience/control.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace kstable::core {
namespace {

KPartiteInstance test_instance(Gender k, Index n, std::uint64_t seed) {
  Rng rng(seed);
  return gen::uniform(k, n, rng);
}

/// 0 = uniform, 1 = master_list, 2 = tiered.
KPartiteInstance dist_instance(Gender k, Index n, int dist,
                               std::uint64_t seed) {
  Rng rng(seed);
  switch (dist) {
    case 1: return gen::master_list(k, n, rng);
    case 2: return gen::tiered(k, n, 3, rng);
    default: return gen::uniform(k, n, rng);
  }
}

/// The additive identity, tree by tree: binding every tree (score_table)
/// gives each tree the bound-pair cost Σ egalitarian_cost(GS(a, b)) over
/// its oriented edges, and the table argmin (best_cost) lands on the same
/// winner, cost, tree and matching after (k-1)² GS runs. Uniform,
/// master-list and tiered instances at every k.
class SweepDeterminismTest : public ::testing::TestWithParam<Gender> {};

TEST_P(SweepDeterminismTest, TableArgminMatchesEveryTreeBitwise) {
  const Gender k = GetParam();
  for (int dist = 0; dist < 3; ++dist) {
    SCOPED_TRACE(::testing::Message() << "distribution " << dist);
    const auto inst = dist_instance(
        k, 6, dist, 0xbeef0 + static_cast<std::uint64_t>(k * 3 + dist));

    TreeSweepOptions every_options;
    every_options.fold = SweepFold::score_table;
    every_options.keep_matchings = true;
    const TreeSweepResult every = sweep_all_trees(inst, every_options);

    GsEdgeCache cache(inst);
    TreeSweepOptions table_options;
    table_options.cache = &cache;
    const TreeSweepResult table = sweep_all_trees(inst, table_options);

    ASSERT_EQ(every.stats.trees, prufer::cayley_count(k));
    EXPECT_EQ(table.stats.trees, every.stats.trees);
    EXPECT_TRUE(table.per_tree.empty());
    ASSERT_TRUE(table.succeeded());
    ASSERT_TRUE(every.succeeded());
    EXPECT_EQ(table.best_index, every.best_index);
    EXPECT_EQ(table.best_cost, every.best_cost);
    EXPECT_EQ(table.matching(), every.matching());
    EXPECT_EQ(table.best_tree->edges(), every.best_tree->edges());
    EXPECT_EQ(table.best->total_proposals, every.best->total_proposals);
    EXPECT_EQ(table.stats.total_proposals, every.stats.total_proposals);

    // Gender k-1 never proposes in a decoded tree: (k-1)² GS runs, then the
    // winner's k-1 edges replay from the cache.
    const auto runs = static_cast<std::int64_t>(k - 1) * (k - 1);
    EXPECT_EQ(cache.size(), static_cast<std::size_t>(runs));
    EXPECT_EQ(table.stats.cache_misses, runs);
    EXPECT_EQ(table.stats.cache_hits, k - 1);
    EXPECT_EQ(table.best->executed_proposals, 0);

    // Every tree's bound-pair cost is its edge sum, and the winner is the
    // argmin of (cost, index).
    for (const TreePoint& p : every.per_tree) {
      const BindingStructure tree = prufer::tree_at(p.index, k);
      std::int64_t sum = 0;
      for (const auto& e : tree.edges()) {
        sum += egalitarian_cost(inst, gs::gale_shapley_queue(inst, e.a, e.b));
      }
      ASSERT_EQ(p.bound_pair_cost, sum) << "tree " << p.index;
      EXPECT_TRUE(p.bound_pair_cost > table.best_cost ||
                  (p.bound_pair_cost == table.best_cost &&
                   p.index >= table.best_index));
    }
    EXPECT_EQ(*every.per_tree[static_cast<std::size_t>(every.best_index)]
                   .matching,
              table.matching());
    EXPECT_FALSE(
        analysis::find_blocking_family(inst, table.matching()).has_value());
  }
}

INSTANTIATE_TEST_SUITE_P(TreeSweep, SweepDeterminismTest,
                         ::testing::Values<Gender>(3, 4, 5, 6));

TEST(TreeSweepTest, CandidateListTableMatchesEveryTree) {
  // Explicit candidates may orient any edge either way, gender k-1 as
  // proposer included: the table fills whatever they name.
  const Gender k = 5;
  const auto inst = test_instance(k, 7, 0x7ab1e);
  Rng rng(0x0e1e);
  std::vector<BindingStructure> candidates;
  for (int i = 0; i < 12; ++i) {
    const BindingStructure decoded = prufer::random_tree(k, rng);
    BindingStructure flipped(k);
    for (const auto& e : decoded.edges()) {
      flipped.add_edge(rng.below(2) == 0 ? e : GenderEdge{e.b, e.a});
    }
    candidates.push_back(flipped);
  }
  TreeSweepOptions options;
  const TreeSweepResult table = sweep_trees(inst, candidates, options);
  options.fold = SweepFold::score_table;
  const TreeSweepResult every = sweep_trees(inst, candidates, options);
  ASSERT_TRUE(table.succeeded());
  EXPECT_EQ(table.best_index, every.best_index);
  EXPECT_EQ(table.best_cost, every.best_cost);
  EXPECT_EQ(table.matching(), every.matching());
  EXPECT_EQ(table.stats.total_proposals, every.stats.total_proposals);

  const TreeSweepResult none = sweep_trees(inst, {}, {});
  EXPECT_FALSE(none.succeeded());
  EXPECT_EQ(none.best_index, -1);
  EXPECT_EQ(none.stats.trees, 0);
}

TEST(TreeSweepTest, SharedCacheReportsZeroDuplicateComputes) {
  const Gender k = 5;
  const auto inst = test_instance(k, 6, 0xcafe);
  GsEdgeCache cache(k);
  TreeSweepOptions options;
  options.cache = &cache;
  const TreeSweepResult result = sweep_all_trees(inst, options);

  // Every stored entry cost exactly one miss: (k-1)² table fills, then the
  // winner's k-1 edges as hits.
  const auto stats = cache.stats();
  EXPECT_EQ(stats.misses, static_cast<std::int64_t>(cache.size()));
  EXPECT_EQ(cache.size(),
            static_cast<std::size_t>(k - 1) * static_cast<std::size_t>(k - 1));
  EXPECT_EQ(stats.hits, k - 1);
  EXPECT_EQ(result.stats.cache_hits, stats.hits);
  EXPECT_EQ(result.stats.cache_misses, stats.misses);

  // A second sweep over the warm cache runs no GS at all.
  const TreeSweepResult warm = sweep_all_trees(inst, options);
  EXPECT_EQ(warm.stats.executed_proposals, 0);
  EXPECT_EQ(warm.stats.cache_misses, 0);
  EXPECT_EQ(warm.best_index, result.best_index);
  EXPECT_EQ(warm.matching(), result.matching());
}

TEST(TreeSweepTest, SharedControlAbortsTheWholeSweep) {
  const Gender k = 4;
  const auto inst = test_instance(k, 5, 0xabad);
  for (const SweepFold fold : {SweepFold::best_cost, SweepFold::score_table}) {
    resilience::ExecControl control(resilience::Budget::proposals(1));
    TreeSweepOptions options;
    options.fold = fold;
    options.control = &control;
    EXPECT_THROW(sweep_all_trees(inst, options), ExecutionAborted);
  }
}

TEST(TreeSweepTest, RefusesSpacesAboveTheTreeGuard) {
  // k = 10 spans Cayley's 10^8 trees, above kMaxSweepTrees: the sweep is
  // refused before any GS run, so the attached cache stays empty.
  const Gender k = 10;
  ASSERT_GT(prufer::cayley_count(k), kMaxSweepTrees);
  const auto inst = test_instance(k, 1, 0x1dea);
  GsEdgeCache cache(k);
  TreeSweepOptions options;
  options.cache = &cache;
  EXPECT_THROW(sweep_all_trees(inst, options), ContractViolation);
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.stats().misses, 0);
  EXPECT_EQ(cache.stats().hits, 0);
}

}  // namespace
}  // namespace kstable::core
