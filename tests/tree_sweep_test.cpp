// Tests for core::TreeSweep: the work-stealing parallel sweep must be
// schedule-invariant — best tree, score table, and every per-tree matching
// bitwise-identical to the sequential sweep over all k^(k-2) trees — and its
// neighbours (pair probes, oracle census, the raced ladder) must degrade
// correctly under pool nesting.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <mutex>
#include <vector>

#include "analysis/oracle.hpp"
#include "analysis/stability.hpp"
#include "core/gs_cache.hpp"
#include "core/tree_selection.hpp"
#include "core/tree_sweep.hpp"
#include "graph/prufer.hpp"
#include "parallel/thread_pool.hpp"
#include "prefs/generators.hpp"
#include "resilience/control.hpp"
#include "resilience/solve_ladder.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace kstable::core {
namespace {

KPartiteInstance test_instance(Gender k, Index n, std::uint64_t seed) {
  Rng rng(seed);
  return gen::uniform(k, n, rng);
}

/// The determinism property test (ISSUE satellite): parallel sweep output —
/// best tree, full score table, and every per-tree matching — is
/// bitwise-identical to the sequential sweep over all k^(k-2) trees.
class SweepDeterminismTest : public ::testing::TestWithParam<Gender> {};

TEST_P(SweepDeterminismTest, ParallelMatchesSequentialBitwise) {
  const Gender k = GetParam();
  const auto inst = test_instance(k, 5, 0xbeef0 + static_cast<std::uint64_t>(k));

  TreeSweepOptions seq;
  seq.fold = SweepFold::score_table;
  seq.keep_matchings = true;
  GsEdgeCache seq_cache(k);
  seq.cache = &seq_cache;
  const TreeSweepResult sequential = sweep_all_trees(inst, seq);

  ThreadPool pool(4);
  TreeSweepOptions par = seq;
  GsEdgeCache par_cache(k);
  par.cache = &par_cache;
  par.pool = &pool;
  const TreeSweepResult parallel = sweep_all_trees(inst, par);

  EXPECT_EQ(parallel.stats.workers, pool.thread_count());
  EXPECT_FALSE(parallel.stats.nested_fallback);
  EXPECT_EQ(sequential.stats.trees, prufer::cayley_count(k));
  EXPECT_EQ(parallel.stats.trees, sequential.stats.trees);

  // The fold's winner and its payload are schedule-invariant.
  EXPECT_EQ(parallel.best_index, sequential.best_index);
  EXPECT_EQ(parallel.best_cost, sequential.best_cost);
  ASSERT_TRUE(parallel.succeeded());
  ASSERT_TRUE(sequential.succeeded());
  EXPECT_EQ(parallel.matching(), sequential.matching());
  ASSERT_TRUE(parallel.best_tree.has_value());
  ASSERT_TRUE(sequential.best_tree.has_value());
  EXPECT_EQ(parallel.best_tree->edges(), sequential.best_tree->edges());
  EXPECT_EQ(parallel.best->total_proposals, sequential.best->total_proposals);

  // Full score table: every row identical, including the matchings.
  ASSERT_EQ(parallel.per_tree.size(), sequential.per_tree.size());
  for (std::size_t i = 0; i < sequential.per_tree.size(); ++i) {
    const TreePoint& p = parallel.per_tree[i];
    const TreePoint& s = sequential.per_tree[i];
    ASSERT_EQ(p.index, s.index);
    EXPECT_EQ(p.prufer, s.prufer);
    EXPECT_EQ(p.bound_pair_cost, s.bound_pair_cost);
    EXPECT_EQ(p.all_pairs_cost, s.all_pairs_cost);
    EXPECT_EQ(p.total_proposals, s.total_proposals);
    ASSERT_TRUE(p.matching.has_value());
    ASSERT_TRUE(s.matching.has_value());
    EXPECT_EQ(*p.matching, *s.matching);
  }

  // The winner really is the argmin of (bound-pair cost, index).
  for (const TreePoint& p : sequential.per_tree) {
    EXPECT_LE(sequential.best_cost, p.bound_pair_cost);
  }
  EXPECT_TRUE(
      analysis::find_blocking_family(inst, parallel.matching()) ==
      std::nullopt);
}

INSTANTIATE_TEST_SUITE_P(TreeSweep, SweepDeterminismTest,
                         ::testing::Values<Gender>(3, 4, 5));

TEST(TreeSweepTest, SharedCacheReportsZeroDuplicateComputes) {
  const Gender k = 5;
  const auto inst = test_instance(k, 6, 0xcafe);
  ThreadPool pool(8);
  GsEdgeCache cache(k);
  TreeSweepOptions options;
  options.pool = &pool;
  options.cache = &cache;
  const TreeSweepResult result = sweep_all_trees(inst, options);

  // Zero duplicate GS computations under concurrency: every stored entry
  // cost exactly one miss, and every other lookup was a hit (single-flight
  // waiters count as hits).
  const auto stats = cache.stats();
  EXPECT_EQ(stats.misses, static_cast<std::int64_t>(cache.size()));
  EXPECT_LE(cache.size(),
            static_cast<std::size_t>(k) * static_cast<std::size_t>(k - 1));
  EXPECT_EQ(stats.hits + stats.misses,
            result.stats.trees * static_cast<std::int64_t>(k - 1));
  EXPECT_EQ(result.stats.cache_hits + result.stats.cache_misses,
            result.stats.trees * static_cast<std::int64_t>(k - 1));
  EXPECT_EQ(result.stats.single_flight_waits, stats.single_flight_waits);
}

TEST(TreeSweepTest, NestedSweepFallsBackToSequential) {
  const Gender k = 4;
  const auto inst = test_instance(k, 4, 0xfeed);
  ThreadPool pool(3);

  const TreeSweepResult direct = sweep_all_trees(inst, {});

  // Run the sweep from INSIDE a pool worker with the same pool attached:
  // the oversubscription guard must degrade it to the sequential path.
  auto future = pool.submit([&] {
    TreeSweepOptions options;
    options.pool = &pool;
    return sweep_all_trees(inst, options);
  });
  const TreeSweepResult nested = future.get();

  EXPECT_TRUE(nested.stats.nested_fallback);
  EXPECT_EQ(nested.stats.workers, 1u);
  EXPECT_EQ(nested.stats.steals, 0);
  EXPECT_EQ(nested.best_index, direct.best_index);
  EXPECT_EQ(nested.best_cost, direct.best_cost);
  EXPECT_EQ(nested.matching(), direct.matching());
}

TEST(TreeSweepTest, SharedControlAbortsTheWholeSweep) {
  const Gender k = 4;
  const auto inst = test_instance(k, 5, 0xabad);
  ThreadPool pool(4);
  for (const bool use_pool : {false, true}) {
    resilience::ExecControl control(resilience::Budget::proposals(1));
    TreeSweepOptions options;
    options.pool = use_pool ? &pool : nullptr;
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

TEST(TreeSweepTest, SweepIndexSpaceCoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  const std::int64_t count = 1000;
  std::vector<std::atomic<std::int32_t>> seen(count);
  std::mutex worker_mutex;
  std::vector<std::size_t> claiming_workers;
  const SweepSchedule schedule = sweep_index_space(
      count, pool, 7,
      [&](std::size_t worker, std::int64_t begin, std::int64_t end) {
        ASSERT_LT(begin, end);
        for (std::int64_t i = begin; i < end; ++i) {
          seen[static_cast<std::size_t>(i)].fetch_add(1);
        }
        std::scoped_lock lock(worker_mutex);
        claiming_workers.push_back(worker);
      });
  for (std::int64_t i = 0; i < count; ++i) {
    EXPECT_EQ(seen[static_cast<std::size_t>(i)].load(), 1) << "index " << i;
  }
  EXPECT_EQ(schedule.workers, pool.thread_count());
  EXPECT_GE(schedule.chunks, (count + 6) / 7);
  EXPECT_GE(schedule.chunks, static_cast<std::int64_t>(
                                 claiming_workers.size()));
  for (const std::size_t w : claiming_workers) {
    EXPECT_LT(w, pool.thread_count());
  }
}

TEST(TreeSweepTest, ParallelPairProbesMatchSequential) {
  const Gender k = 5;
  const auto inst = test_instance(k, 6, 0x9a0b);
  const std::vector<PairProbe> sequential = probe_all_pairs(inst, {});

  ThreadPool pool(4);
  BindingOptions options;
  options.pool = &pool;
  const std::vector<PairProbe> parallel = probe_all_pairs(inst, options);

  ASSERT_EQ(parallel.size(), sequential.size());
  for (std::size_t i = 0; i < sequential.size(); ++i) {
    EXPECT_EQ(parallel[i].edge.a, sequential[i].edge.a);
    EXPECT_EQ(parallel[i].edge.b, sequential[i].edge.b);
    EXPECT_EQ(parallel[i].cost, sequential[i].cost);
    EXPECT_EQ(parallel[i].proposals, sequential[i].proposals);
  }
  // And the whole cost-aware pipeline lands on the same matching.
  BindingOptions cost_options;
  cost_options.pool = &pool;
  EXPECT_EQ(cost_aware_binding(inst, TreeObjective::min_cost, cost_options)
                .matching(),
            cost_aware_binding(inst, TreeObjective::min_cost, {}).matching());
}

TEST(TreeSweepTest, ParallelOracleCensusMatchesSequential) {
  const Gender k = 3;
  const auto inst = test_instance(k, 3, 0x0c51);
  const std::vector<std::int32_t> priority = {2, 0, 1};
  const auto sequential = analysis::kary_census(inst, priority);

  ThreadPool pool(4);
  const auto parallel = analysis::kary_census(inst, priority, &pool);

  EXPECT_EQ(parallel.total_matchings, sequential.total_matchings);
  EXPECT_EQ(parallel.stable_matchings, sequential.stable_matchings);
  EXPECT_EQ(parallel.weakened_stable_matchings,
            sequential.weakened_stable_matchings);
  ASSERT_EQ(parallel.witness.has_value(), sequential.witness.has_value());
  if (sequential.witness.has_value()) {
    // Same witness: the enumeration-order-first stable matching.
    EXPECT_EQ(*parallel.witness, *sequential.witness);
  }
}

TEST(TreeSweepTest, SpeculativeLadderMatchesSequentialWithoutCache) {
  const Gender k = 4;
  const auto inst = test_instance(k, 5, 0x1add);
  ThreadPool pool(4);

  // Unlimited budgets: the path tree wins immediately in both modes.
  {
    resilience::FallbackOptions seq;
    resilience::FallbackOptions spec = seq;
    spec.pool = &pool;
    const auto a = resilience::solve_with_fallback(inst, seq);
    const auto b = resilience::solve_with_fallback(inst, spec);
    ASSERT_TRUE(a.succeeded);
    ASSERT_TRUE(b.succeeded);
    EXPECT_EQ(b.matching(), a.matching());
    EXPECT_EQ(b.rung, a.rung);
    EXPECT_EQ(b.attempts.size(), a.attempts.size());
    // Candidates above the winner may have been raced before the success
    // floor published; that work is waste, never an attempt.
    EXPECT_GE(b.speculative_waste, 0);
  }

  // Tight first budget, no shared cache: attempt 0 blows its budget in both
  // modes and attempt 1 wins — the speculative winner and logs match the
  // sequential ladder exactly (per-attempt work is cache-free, hence
  // deterministic).
  {
    resilience::FallbackOptions seq;
    seq.per_attempt = resilience::Budget::proposals(1);
    seq.backoff = 1e6;
    seq.max_tree_attempts = 3;
    resilience::FallbackOptions spec = seq;
    spec.pool = &pool;
    const auto a = resilience::solve_with_fallback(inst, seq);
    const auto b = resilience::solve_with_fallback(inst, spec);
    ASSERT_TRUE(a.succeeded);
    ASSERT_TRUE(b.succeeded);
    EXPECT_EQ(a.rung, resilience::Rung::strict_tree);
    EXPECT_EQ(b.rung, a.rung);
    ASSERT_EQ(b.attempts.size(), a.attempts.size());
    for (std::size_t i = 0; i < a.attempts.size(); ++i) {
      EXPECT_EQ(b.attempts[i].tree_edges, a.attempts[i].tree_edges);
      EXPECT_EQ(b.attempts[i].status.ok(), a.attempts[i].status.ok());
    }
    EXPECT_EQ(b.matching(), a.matching());
  }
}

}  // namespace
}  // namespace kstable::core
