// Tests for core::best_tree and core::TreeSweep: the minimum arborescence
// over the edge-cost table must have the least bound-pair cost of binding
// every tree (and its tree and matching when that minimum is unique), carry
// a valid Fulkerson certificate, and cost exactly (k-1)² GS runs.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <numeric>
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
#include "verify/cert_checker.hpp"

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

/// Trees of `every` at its least bound-pair cost.
std::int64_t tied_at_minimum(const TreeSweepResult& every) {
  return std::count_if(every.per_tree.begin(), every.per_tree.end(),
                       [&every](const TreePoint& p) {
                         return p.bound_pair_cost == every.best_cost;
                       });
}

/// best_tree against binding every tree: uniform, master-list and tiered
/// instances at every k. The cost and certificate always agree; the tree and
/// matching agree whenever the minimum is unique. Every tree's bound-pair
/// cost is its edge sum over best_tree's table (the additive identity), and
/// the table costs (k-1)² GS runs, then the winner's k-1 edges replay.
class SweepDeterminismTest : public ::testing::TestWithParam<Gender> {};

TEST_P(SweepDeterminismTest, TableArgminMatchesEveryTreeBitwise) {
  const Gender k = GetParam();
  for (int dist = 0; dist < 3; ++dist) {
    SCOPED_TRACE(::testing::Message() << "distribution " << dist);
    const auto inst = dist_instance(
        k, 6, dist, 0xbeef0 + static_cast<std::uint64_t>(k * 3 + dist));

    TreeSweepOptions every_options;
    every_options.keep_matchings = true;
    const TreeSweepResult every = sweep_all_trees(inst, every_options);

    GsEdgeCache cache(inst);
    BindingOptions options;
    options.cache = &cache;
    const BestTree best = best_tree(inst, options);

    ASSERT_EQ(every.stats.trees, prufer::cayley_count(k));
    ASSERT_TRUE(every.succeeded());
    EXPECT_EQ(best.optimum.cost, every.best_cost);
    const auto failure = verify::check_best_tree_certificate(
        best.costs, best.tree, best.optimum.dual);
    EXPECT_FALSE(failure.has_value()) << failure->what;
    if (tied_at_minimum(every) == 1) {
      EXPECT_EQ(best.tree.edges(), every.best_tree->edges());
      EXPECT_EQ(best.binding.matching(), every.matching());
      EXPECT_EQ(best.binding.total_proposals, every.best->total_proposals);
    }

    const auto runs = static_cast<std::int64_t>(k - 1) * (k - 1);
    EXPECT_EQ(cache.size(), static_cast<std::size_t>(runs));
    EXPECT_EQ(best.binding.cache_misses, runs);
    EXPECT_EQ(best.binding.cache_hits, k - 1);

    for (const TreePoint& p : every.per_tree) {
      const BindingStructure tree = prufer::tree_at(p.index, k);
      std::int64_t sum = 0;
      for (const auto& e : tree.edges()) {
        sum += best.costs[static_cast<std::size_t>(e.a * k + e.b)];
      }
      ASSERT_EQ(p.bound_pair_cost, sum) << "tree " << p.index;
      EXPECT_TRUE(p.bound_pair_cost > every.best_cost ||
                  (p.bound_pair_cost == every.best_cost &&
                   p.index >= every.best_index));
    }
    EXPECT_FALSE(
        analysis::find_blocking_family(inst, best.binding.matching()).has_value());
  }
}

INSTANTIATE_TEST_SUITE_P(TreeSweep, SweepDeterminismTest,
                         ::testing::Values<Gender>(3, 4, 5, 6));

/// Parent vector of an in-arborescence rooted at k-1 (-1 at the root).
std::vector<Gender> parents_of(const BindingStructure& tree) {
  std::vector<Gender> parent(static_cast<std::size_t>(tree.genders()), -1);
  for (const auto& e : tree.edges()) {
    parent[static_cast<std::size_t>(e.a)] = e.b;
  }
  return parent;
}

/// A k×k table of costs in [0, span): small spans tie densely.
std::vector<std::int64_t> random_costs(Gender k, std::int64_t span, Rng& rng) {
  std::vector<std::int64_t> cost(static_cast<std::size_t>(k * k));
  for (auto& c : cost) c = static_cast<std::int64_t>(rng.below(span));
  return cost;
}

TEST(BestTree, EdmondsMatchesEveryPruferCode) {
  // Brute force: every Prüfer-decoded tree is an in-arborescence rooted at
  // k-1, and together they are all of them.
  Rng rng(0xed30);
  for (Gender k = 2; k <= 7; ++k) {
    for (int table = 0; table < 12; ++table) {
      SCOPED_TRACE(::testing::Message() << "k=" << k << " table " << table);
      const std::int64_t span = table % 2 == 0 ? 3 : 1000;
      const auto cost = random_costs(k, span, rng);
      std::int64_t least = -1;
      std::int64_t tied = 0;
      std::vector<Gender> least_parent;
      prufer::enumerate_trees(k, [&](const BindingStructure& tree) {
        std::int64_t sum = 0;
        for (const auto& e : tree.edges()) {
          sum += cost[static_cast<std::size_t>(e.a * k + e.b)];
        }
        if (least < 0 || sum < least) {
          least = sum;
          tied = 0;
          least_parent = parents_of(tree);
        }
        tied += sum == least ? 1 : 0;
      });

      const Arborescence opt = min_arborescence(k, cost);
      EXPECT_EQ(opt.cost, least);
      BindingStructure tree(k);
      for (Gender v = 0; v + 1 < k; ++v) {
        tree.add_edge({v, opt.parent[static_cast<std::size_t>(v)]});
      }
      const auto failure =
          verify::check_best_tree_certificate(cost, tree, opt.dual);
      EXPECT_FALSE(failure.has_value()) << failure->what;
      if (tied == 1) {
        EXPECT_EQ(opt.parent, least_parent);
      }
    }
  }
}

TEST(BestTree, RelabelingGendersBelowTheRootKeepsTheCost) {
  Rng rng(0x9e1a);
  for (Gender k = 3; k <= 12; ++k) {
    const auto cost = random_costs(k, k % 2 == 0 ? 4 : 100, rng);
    std::vector<Gender> label(static_cast<std::size_t>(k));
    std::iota(label.begin(), label.end(), Gender{0});
    for (Gender i = k - 2; i > 0; --i) {
      std::swap(label[static_cast<std::size_t>(i)],
                label[rng.below(static_cast<std::uint64_t>(i) + 1)]);
    }
    std::vector<std::int64_t> relabeled(cost.size());
    for (Gender a = 0; a < k; ++a) {
      for (Gender b = 0; b < k; ++b) {
        relabeled[static_cast<std::size_t>(
            label[static_cast<std::size_t>(a)] * k +
            label[static_cast<std::size_t>(b)])] =
            cost[static_cast<std::size_t>(a * k + b)];
      }
    }
    EXPECT_EQ(min_arborescence(k, relabeled).cost,
              min_arborescence(k, cost).cost)
        << "k=" << k;
  }
}

TEST(BestTree, TiedMasterListTreeIsPinned) {
  // On a master-list instance every tree has the same bound-pair cost, so
  // the tie rule alone picks the tree: a change to it shows here.
  const Gender k = 5;
  const auto inst = dist_instance(k, 6, 1, 0xbeef0 + 16);
  const TreeSweepResult every = sweep_all_trees(inst);
  ASSERT_EQ(tied_at_minimum(every), prufer::cayley_count(k));
  const BestTree best = best_tree(inst);
  EXPECT_EQ(best.optimum.cost, every.best_cost);
  const std::vector<GenderEdge> pinned{{1, 0}, {2, 0}, {3, 0}, {0, 4}};
  EXPECT_EQ(best.tree.edges(), pinned);
}

TEST(BestTree, RunsAboveTheTreeGuard) {
  // k = 10 and 16 span far more than kMaxSweepTrees trees; best_tree needs
  // only its (k-1)² GS runs.
  for (const Gender k : {10, 16}) {
    const auto inst =
        test_instance(k, 3, 0x1dea + static_cast<std::uint64_t>(k));
    const BestTree best = best_tree(inst);
    EXPECT_EQ(best.binding.cache_misses,
              static_cast<std::int64_t>(k - 1) * (k - 1));
    const auto failure = verify::check_best_tree_certificate(
        best.costs, best.tree, best.optimum.dual);
    EXPECT_FALSE(failure.has_value()) << failure->what;
  }
}

TEST(TreeSweepTest, CandidateListTableMatchesEveryTree) {
  // The additive identity on explicit candidates, which may orient any edge
  // either way, gender k-1 as proposer included: each tree's bound-pair
  // cost is Σ egalitarian_cost(GS(a, b)) over its oriented edges.
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
  const TreeSweepResult every = sweep_trees(inst, candidates);
  ASSERT_TRUE(every.succeeded());
  ASSERT_EQ(every.per_tree.size(), candidates.size());
  for (const TreePoint& p : every.per_tree) {
    std::int64_t sum = 0;
    const auto& tree = candidates[static_cast<std::size_t>(p.index)];
    for (const auto& e : tree.edges()) {
      sum += egalitarian_cost(inst, gs::gale_shapley_queue(inst, e.a, e.b));
    }
    EXPECT_EQ(p.bound_pair_cost, sum) << "candidate " << p.index;
    EXPECT_GE(p.bound_pair_cost, every.best_cost);
  }

  const TreeSweepResult none = sweep_trees(inst, {}, {});
  EXPECT_FALSE(none.succeeded());
  EXPECT_EQ(none.best_index, -1);
  EXPECT_EQ(none.stats.trees, 0);
}

TEST(TreeSweepTest, SharedCacheReportsZeroDuplicateComputes) {
  const Gender k = 5;
  const auto inst = test_instance(k, 6, 0xcafe);
  GsEdgeCache cache(k);
  BindingOptions options;
  options.cache = &cache;
  const BestTree best = best_tree(inst, options);

  // Every stored entry cost exactly one miss: (k-1)² table fills, then the
  // winner's k-1 edges as hits.
  const auto stats = cache.stats();
  EXPECT_EQ(stats.misses, static_cast<std::int64_t>(cache.size()));
  EXPECT_EQ(cache.size(),
            static_cast<std::size_t>(k - 1) * static_cast<std::size_t>(k - 1));
  EXPECT_EQ(stats.hits, k - 1);
  EXPECT_EQ(best.binding.cache_hits, stats.hits);
  EXPECT_EQ(best.binding.cache_misses, stats.misses);

  // A second call over the warm cache runs no GS at all.
  const BestTree warm = best_tree(inst, options);
  EXPECT_EQ(warm.binding.executed_proposals, 0);
  EXPECT_EQ(warm.binding.cache_misses, 0);
  EXPECT_EQ(warm.tree.edges(), best.tree.edges());
  EXPECT_EQ(warm.binding.matching(), best.binding.matching());
}

TEST(TreeSweepTest, SharedControlAbortsTheWholeSweep) {
  const Gender k = 4;
  const auto inst = test_instance(k, 5, 0xabad);
  resilience::ExecControl control(resilience::Budget::proposals(1));
  BindingOptions options;
  options.control = &control;
  EXPECT_THROW(best_tree(inst, options), ExecutionAborted);
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
