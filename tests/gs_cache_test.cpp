// Tests for core::GsEdgeCache: the cache must be semantically invisible —
// cached and uncached solves produce identical KaryMatchings, proposal
// counts, and stability verdicts across every spanning binding tree (GS
// confluence makes each per-edge result a pure function of the instance and
// the oriented edge) — while collapsing multi-tree work to at most k(k-1)
// fresh GS runs per instance.
#include <gtest/gtest.h>

#include <cstdint>
#include <tuple>
#include <vector>

#include "analysis/oracle.hpp"
#include "core/binding.hpp"
#include "core/gs_cache.hpp"
#include "core/tree_selection.hpp"
#include "graph/binding_structure.hpp"
#include "graph/prufer.hpp"
#include "prefs/generators.hpp"
#include "resilience/fault_injection.hpp"
#include "resilience/solve_ladder.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace kstable::core {
namespace {

/// Order in which the sweep visits the Prüfer trees: which tree fills each
/// cache slot first must not matter.
enum class SweepOrder { enumeration, reversed };

/// Property sweep: for every Prüfer tree of k genders, a shared cache must
/// not change anything observable about iterative_binding.
class CacheTransparencyTest
    : public ::testing::TestWithParam<std::tuple<Gender, SweepOrder>> {};

TEST_P(CacheTransparencyTest, IdenticalAcrossAllPruferTrees) {
  const auto [k, order] = GetParam();
  const Index n = 5;
  Rng rng(static_cast<std::uint64_t>(k) * 1201 + 17);
  const auto inst = gen::uniform(k, n, rng);

  GsEdgeCache cache(k);
  BindingOptions cached_options;
  cached_options.cache = &cache;
  const BindingOptions uncached_options;

  std::int64_t trees = 0;
  std::int64_t accumulated_executed_cached = 0;
  std::int64_t accumulated_executed_uncached = 0;
  const std::int64_t count = prufer::cayley_count(k);
  for (std::int64_t i = 0; i < count; ++i) {
    const auto tree = prufer::tree_at(
        order == SweepOrder::enumeration ? i : count - 1 - i, k);
    ++trees;
    const auto cached = iterative_binding(inst, tree, cached_options);
    const auto uncached = iterative_binding(inst, tree, uncached_options);
    ASSERT_TRUE(cached.has_matching());
    ASSERT_TRUE(uncached.has_matching());
    // Bitwise-identical matchings, identical proposal accounting.
    EXPECT_EQ(cached.matching(), uncached.matching());
    EXPECT_EQ(cached.total_proposals, uncached.total_proposals);
    // Identical stability verdicts (both must be stable, Theorem 2).
    EXPECT_EQ(
        analysis::find_blocking_family(inst, cached.matching()).has_value(),
        analysis::find_blocking_family(inst, uncached.matching()).has_value());
    accumulated_executed_cached += cached.executed_proposals;
    accumulated_executed_uncached += uncached.executed_proposals;
    EXPECT_EQ(cached.cache_hits + cached.cache_misses, k - 1);
    EXPECT_EQ(uncached.cache_hits, 0);
    EXPECT_EQ(uncached.cache_misses, 0);
  }
  EXPECT_EQ(trees, count);
  // The cache holds at most k(k-1) oriented edges, no matter how many trees
  // were swept.
  EXPECT_LE(cache.size(),
            static_cast<std::size_t>(k) * static_cast<std::size_t>(k - 1));
  const auto stats = cache.stats();
  EXPECT_EQ(stats.hits + stats.misses,
            trees * static_cast<std::int64_t>(k - 1));
  EXPECT_EQ(stats.misses, static_cast<std::int64_t>(cache.size()));
  // Multi-tree executed work collapses (k >= 4 sweeps enough trees to
  // guarantee real reuse; k = 3 has 3 trees over 6 oriented edges).
  if (k >= 4) {
    EXPECT_LT(accumulated_executed_cached, accumulated_executed_uncached);
  }
  EXPECT_LE(accumulated_executed_cached, accumulated_executed_uncached);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, CacheTransparencyTest,
    ::testing::Combine(::testing::Values(Gender{3}, Gender{4}, Gender{5}),
                       ::testing::Values(SweepOrder::enumeration,
                                         SweepOrder::reversed)));

TEST(GsEdgeCache, KeyedByOrientation) {
  Rng rng(42);
  const auto inst = gen::uniform(3, 8, rng);
  GsEdgeCache cache(3);
  BindingOptions options;
  options.cache = &cache;

  bool hit = false;
  const auto forward = run_binding(inst, {0, 1}, options, &hit);
  EXPECT_FALSE(hit);
  // Same unordered pair, opposite orientation: a different proposer-optimal
  // matching, so it must be a distinct entry.
  const auto backward = run_binding(inst, {1, 0}, options, &hit);
  EXPECT_FALSE(hit);
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(forward.proposer_gender, 0);
  EXPECT_EQ(backward.proposer_gender, 1);

  // Same edge again: replayed, not recomputed.
  const auto replay = run_binding(inst, {0, 1}, options, &hit);
  EXPECT_TRUE(hit);
  EXPECT_EQ(replay.proposer_match, forward.proposer_match);
  EXPECT_EQ(cache.size(), 2u);
}

TEST(GsEdgeCache, GenderCountMismatchThrows) {
  Rng rng(43);
  const auto inst = gen::uniform(4, 4, rng);
  GsEdgeCache cache(3);  // built for a different instance shape
  BindingOptions options;
  options.cache = &cache;
  EXPECT_THROW(run_binding(inst, {0, 1}, options), ContractViolation);
}

TEST(GsEdgeCache, ProbePhasePrepaysTheSelectedTree) {
  const Gender k = 5;
  Rng rng(44);
  const auto inst = gen::uniform(k, 16, rng);
  GsEdgeCache cache(k);
  BindingOptions options;
  options.cache = &cache;

  // Cost-aware selection probes all k(k-1)/2 pairs, warming the cache...
  const auto tree = select_tree(inst, TreeObjective::min_cost, options);
  EXPECT_EQ(cache.size(), static_cast<std::size_t>(k) * (k - 1) / 2);
  // ...so binding along the selected tree replays every edge for free.
  const auto result = iterative_binding(inst, tree, options);
  EXPECT_EQ(result.cache_hits, k - 1);
  EXPECT_EQ(result.cache_misses, 0);
  EXPECT_EQ(result.executed_proposals, 0);
  EXPECT_GT(result.total_proposals, 0);
  // And it matches the uncached convenience wrapper bit for bit.
  const auto uncached = cost_aware_binding(inst, TreeObjective::min_cost);
  EXPECT_EQ(result.matching(), uncached.matching());
}

TEST(GsEdgeCache, LadderRetriesWithInjectedFaultsAreCacheInvariant) {
  const Gender k = 5;
  Rng rng(45);
  const auto inst = gen::uniform(k, 8, rng);

  // Fire on the 2nd and 4th binding-edge hits: attempt 1 completes one edge
  // and dies, attempt 2 completes one edge and dies, attempt 3 runs through.
  resilience::FaultConfig config;
  config.fire_after = 1;
  config.probability = 1.0;
  config.max_fires = 2;

  resilience::FallbackOptions ladder;
  ladder.max_tree_attempts = 4;

  resilience::FallbackReport uncached;
  {
    resilience::ScopedFault fault("core/binding_edge", config);
    uncached = resilience::solve_with_fallback(inst, ladder);
  }

  GsEdgeCache cache(k);
  ladder.cache = &cache;
  resilience::FallbackReport cached;
  {
    resilience::ScopedFault fault("core/binding_edge", config);
    cached = resilience::solve_with_fallback(inst, ladder);
  }

  // Identical observable outcome: same rung, same retry path, same matching.
  ASSERT_TRUE(uncached.succeeded);
  ASSERT_TRUE(cached.succeeded);
  EXPECT_EQ(cached.rung, uncached.rung);
  EXPECT_EQ(cached.attempts.size(), uncached.attempts.size());
  EXPECT_EQ(cached.matching(), uncached.matching());
  EXPECT_EQ(cached.result->total_proposals, uncached.result->total_proposals);
  EXPECT_EQ(uncached.cache_hits, 0);
  EXPECT_GT(cached.cache_misses, 0);

  // Re-running the ladder against the warm cache (the serving shape: the
  // same request retried) replays every completed edge — identical outcome,
  // strictly less executed work, and fault hits counted identically so the
  // retry path is unchanged.
  resilience::FallbackReport warm;
  {
    resilience::ScopedFault fault("core/binding_edge", config);
    warm = resilience::solve_with_fallback(inst, ladder);
  }
  ASSERT_TRUE(warm.succeeded);
  EXPECT_EQ(warm.rung, uncached.rung);
  EXPECT_EQ(warm.attempts.size(), uncached.attempts.size());
  EXPECT_EQ(warm.matching(), uncached.matching());
  EXPECT_GT(warm.cache_hits, 0);
  EXPECT_LT(warm.executed_proposals, uncached.executed_proposals);
}

TEST(GsEdgeCache, ClearResetsEntriesAndCounters) {
  Rng rng(46);
  const auto inst = gen::uniform(3, 6, rng);
  GsEdgeCache cache(3);
  BindingOptions options;
  options.cache = &cache;
  run_binding(inst, {0, 1}, options);
  run_binding(inst, {0, 1}, options);
  EXPECT_EQ(cache.stats().hits, 1);
  EXPECT_EQ(cache.clear(), 1u);
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.stats().hits, 0);
  EXPECT_EQ(cache.stats().misses, 0);
  bool hit = true;
  run_binding(inst, {0, 1}, options, &hit);
  EXPECT_FALSE(hit);
}

// ---------------------------------------------------------------------------
// Staleness guard and targeted invalidation (the incremental-rematch half of
// the cache contract; see docs/INCREMENTAL.md).

TEST(GsEdgeCache, GenerationBoundCacheRejectsMutatedInstance) {
  Rng rng(47);
  auto inst = gen::uniform(3, 6, rng);
  GsEdgeCache cache(inst);  // instance-bound: guard armed
  ASSERT_TRUE(cache.bound_generation().has_value());
  EXPECT_EQ(*cache.bound_generation(), inst.generation());

  BindingOptions options;
  options.cache = &cache;
  run_binding(inst, {0, 1}, options);  // warm while clean: fine

  inst.swap_pref_entries({0, 0}, 1, 0, 1);  // bumps generation()
  EXPECT_NE(*cache.bound_generation(), inst.generation());
  // Every cached entry point must refuse to serve against mutated rows.
  EXPECT_THROW(cache.check_instance(inst), std::logic_error);
  EXPECT_THROW(run_binding(inst, {0, 1}, options), std::logic_error);
  const auto tree = trees::star(3, 0);
  EXPECT_THROW(iterative_binding(inst, tree, options), std::logic_error);

  // Dropping the cache restores plain (correct, uncached) solving.
  options.cache = nullptr;
  EXPECT_FALSE(run_binding(inst, {0, 1}, options).proposer_match.empty());
}

TEST(GsEdgeCache, LegacyGenderBoundCacheKeepsGuardOff) {
  Rng rng(48);
  auto inst = gen::uniform(3, 6, rng);
  GsEdgeCache cache(Gender{3});  // legacy ctor: caller owns the pairing
  EXPECT_FALSE(cache.bound_generation().has_value());
  BindingOptions options;
  options.cache = &cache;
  run_binding(inst, {0, 1}, options);
  inst.swap_pref_entries({0, 0}, 1, 0, 1);
  // No generation recorded, so only the gender count is checked. (This is
  // the documented legacy hazard: the result may now be stale.)
  EXPECT_NO_THROW(cache.check_instance(inst));
  bool hit = false;
  run_binding(inst, {0, 1}, options, &hit);
  EXPECT_TRUE(hit);
}

TEST(GsEdgeCache, InvalidateResetsOnlyTheTargetedEdge) {
  const Gender k = 4;
  Rng rng(49);
  auto inst = gen::uniform(k, 6, rng);
  GsEdgeCache cache(inst);
  BindingOptions options;
  options.cache = &cache;
  // Warm one oriented edge per unordered pair plus the reverse of (0,1).
  run_binding(inst, {0, 1}, options);
  run_binding(inst, {1, 0}, options);
  run_binding(inst, {1, 2}, options);
  run_binding(inst, {2, 3}, options);
  ASSERT_EQ(cache.size(), 4u);
  const auto stats_before = cache.stats();

  // Mutate a (0, 1) row, then invalidate exactly that pair's orientations.
  inst.swap_pref_entries({0, 2}, 1, 1, 3);
  EXPECT_EQ(cache.invalidate({0, 1}), 1u);
  EXPECT_EQ(cache.invalidate({1, 0}), 1u);
  // Untouched pairs keep their entries; a second invalidate finds nothing.
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.invalidate({0, 1}), 0u);
  // Counters survive invalidate (unlike clear) — rematch accounting relies
  // on hit/miss totals accumulating across incremental steps.
  EXPECT_EQ(cache.stats().hits, stats_before.hits);
  EXPECT_EQ(cache.stats().misses, stats_before.misses);

  // rebind() re-arms the guard at the new generation: cached solving works
  // again, replaying untouched edges and recomputing the invalidated ones.
  cache.rebind(inst);
  EXPECT_EQ(*cache.bound_generation(), inst.generation());
  bool hit = true;
  run_binding(inst, {0, 1}, options, &hit);
  EXPECT_FALSE(hit);  // invalidated: recomputed
  run_binding(inst, {1, 2}, options, &hit);
  EXPECT_TRUE(hit);  // untouched: replayed
  run_binding(inst, {2, 3}, options, &hit);
  EXPECT_TRUE(hit);
}

TEST(GsEdgeCache, RebindRequiresMatchingGenderCount) {
  Rng rng(50);
  const auto inst3 = gen::uniform(3, 4, rng);
  const auto inst4 = gen::uniform(4, 4, rng);
  GsEdgeCache cache(inst3);
  EXPECT_THROW(cache.rebind(inst4), ContractViolation);
  EXPECT_NO_THROW(cache.rebind(inst3));
}

/// A recognizable GsResult for `edge` that passes the cache's gender checks
/// without running GS.
gs::GsResult fabricated(GenderEdge edge) {
  gs::GsResult r;
  r.proposer_gender = edge.a;
  r.responder_gender = edge.b;
  r.proposals = static_cast<std::int64_t>(edge.a) * 100 + edge.b;
  r.engine = "fabricated";
  return r;
}

TEST(GsEdgeCache, ThrowingComputeStoresNothing) {
  GsEdgeCache cache(3);
  struct Boom {};
  // The compute dies (an aborted ladder attempt): the key must stay empty
  // instead of holding a result nobody computed.
  EXPECT_THROW(cache.get_or_compute({0, 1},
                                    []() -> gs::GsResult { throw Boom{}; }),
               Boom);
  EXPECT_EQ(cache.size(), 0u);
  // The next caller computes normally.
  bool hit = true;
  const auto& r =
      cache.get_or_compute({0, 1}, [] { return fabricated({0, 1}); }, &hit);
  EXPECT_FALSE(hit);
  EXPECT_EQ(r.proposals, 1);
  EXPECT_EQ(cache.size(), 1u);
}

}  // namespace
}  // namespace kstable::core
