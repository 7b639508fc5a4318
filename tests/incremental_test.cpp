// Tests for src/incremental/: preference-churn mutations and the rematch()
// driver. The load-bearing property — after any in-place delta, the
// incremental path reproduces a cold solve of the mutated instance bit for
// bit, executing only the touched tree edges' cold work — is pinned here
// deterministically and at scale by the DiffRunner churn battery
// (kmatch verify --churn).
#include <gtest/gtest.h>

#include <cstdint>
#include <utility>
#include <vector>

#include "core/binding.hpp"
#include "core/gs_cache.hpp"
#include "graph/binding_structure.hpp"
#include "gs/gale_shapley.hpp"
#include "incremental/mutation.hpp"
#include "incremental/rematch.hpp"
#include "prefs/generators.hpp"
#include "resilience/fault_injection.hpp"
#include "resilience/solve_ladder.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace kstable::incremental {
namespace {

std::vector<Index> row_copy(const KPartiteInstance& inst, MemberId m,
                            Gender g) {
  const auto row = inst.pref_row(m, g);
  return {row.begin(), row.end()};
}

// ---------------------------------------------------------------------------
// Mutators: delta capture, generation accounting, instance integrity.

TEST(Mutation, SwapEntriesCapturesOldRowAndBumpsGeneration) {
  Rng rng(1);
  auto inst = gen::uniform(3, 5, rng);
  const auto gen0 = inst.generation();
  const MemberId m{0, 2};
  const auto before = row_copy(inst, m, 1);

  const auto delta = swap_entries(inst, m, 1, 0, 3);

  EXPECT_EQ(delta.from_generation, gen0);
  EXPECT_EQ(delta.to_generation, inst.generation());
  EXPECT_EQ(inst.generation(), gen0 + 1);
  EXPECT_FALSE(delta.shape_changed);
  ASSERT_EQ(delta.rows.size(), 1u);
  EXPECT_EQ(delta.rows[0].member, m);
  EXPECT_EQ(delta.rows[0].target, 1);

  auto expected = before;
  std::swap(expected[0], expected[3]);
  EXPECT_EQ(row_copy(inst, m, 1), expected);
  // Swapping keeps the list a permutation; ranks stay consistent.
  EXPECT_NO_THROW(inst.validate());
  EXPECT_EQ(inst.rank_of(m, {1, expected[0]}), 0);
  EXPECT_EQ(inst.rank_of(m, {1, expected[3]}), 3);
}

TEST(Mutation, ReplaceListCapturesOldRow) {
  Rng rng(2);
  auto inst = gen::uniform(3, 4, rng);
  const MemberId m{2, 1};
  const std::vector<Index> order{3, 1, 0, 2};

  const auto delta = replace_list(inst, m, 0, order);

  ASSERT_EQ(delta.rows.size(), 1u);
  EXPECT_EQ(delta.rows[0].member, m);
  EXPECT_EQ(delta.rows[0].target, 0);
  EXPECT_EQ(row_copy(inst, m, 0), order);
  EXPECT_EQ(delta.to_generation, inst.generation());
  EXPECT_NO_THROW(inst.validate());
}

TEST(Mutation, TouchesAndTouchedPairsCoverBothOrientations) {
  Rng rng(3);
  auto inst = gen::uniform(4, 4, rng);
  auto delta = swap_entries(inst, {0, 0}, 2, 0, 1);  // pair (0, 2)

  EXPECT_TRUE(delta.touches(0, 2));
  EXPECT_TRUE(delta.touches(2, 0));
  EXPECT_FALSE(delta.touches(0, 1));
  EXPECT_FALSE(delta.touches(1, 3));

  // A second row on another pair; duplicates on the same pair collapse.
  delta.merge(swap_entries(inst, {1, 3}, 0, 1, 2));  // pair (0, 1)
  delta.merge(swap_entries(inst, {2, 1}, 0, 0, 3));  // pair (0, 2) again
  const auto pairs = delta.touched_pairs();
  ASSERT_EQ(pairs.size(), 2u);
  EXPECT_EQ(pairs[0].a, 0);
  EXPECT_EQ(pairs[0].b, 1);
  EXPECT_EQ(pairs[1].a, 0);
  EXPECT_EQ(pairs[1].b, 2);
}

TEST(Mutation, MergeKeepsEarliestOldRowAndChecksAdjacency) {
  Rng rng(4);
  auto inst = gen::uniform(3, 5, rng);
  const MemberId m{0, 0};
  const auto original = row_copy(inst, m, 1);

  auto delta = swap_entries(inst, m, 1, 0, 1);
  const auto second = swap_entries(inst, m, 1, 2, 4);
  delta.merge(second);

  // Same (member, target) twice: one row, and the instance holds both swaps.
  ASSERT_EQ(delta.rows.size(), 1u);
  EXPECT_EQ(delta.rows[0].member, m);
  EXPECT_EQ(delta.rows[0].target, 1);
  auto expected = original;
  std::swap(expected[0], expected[1]);
  std::swap(expected[2], expected[4]);
  EXPECT_EQ(row_copy(inst, m, 1), expected);
  EXPECT_EQ(delta.from_generation, inst.generation() - 2);
  EXPECT_EQ(delta.to_generation, inst.generation());

  // Merging a delta that does not start where this one ends is a bug.
  auto stale = delta;
  EXPECT_THROW(delta.merge(stale), ContractViolation);
}

TEST(Mutation, AddMemberGrowsEveryGenderAndBridgesGenerations) {
  Rng rng(5);
  const auto inst = gen::uniform(3, 4, rng);
  Rng grow(6);
  const auto grown = add_member(inst, grow);

  EXPECT_TRUE(grown.delta.shape_changed);
  EXPECT_TRUE(grown.delta.touches(0, 1));  // shape change stales everything
  EXPECT_EQ(grown.delta.from_generation, inst.generation());
  EXPECT_EQ(grown.delta.to_generation, grown.instance.generation());
  EXPECT_EQ(grown.instance.per_gender(), inst.per_gender() + 1);
  EXPECT_EQ(grown.instance.genders(), inst.genders());
  EXPECT_NO_THROW(grown.instance.validate());
  EXPECT_TRUE(grown.instance.is_complete());
  // The source is untouched, and old relative orders survive the splice.
  EXPECT_EQ(inst.per_gender(), 4);
  const auto source_row = row_copy(inst, {0, 1}, 2);
  auto new_row = row_copy(grown.instance, {0, 1}, 2);
  std::erase(new_row, Index{4});
  EXPECT_EQ(new_row, source_row);
}

TEST(Mutation, RemoveMemberReindexesSurvivors) {
  Rng rng(7);
  const auto inst = gen::uniform(3, 5, rng);
  const Index victim = 2;
  const auto shrunk = remove_member(inst, victim);

  EXPECT_TRUE(shrunk.delta.shape_changed);
  EXPECT_EQ(shrunk.instance.per_gender(), 4);
  EXPECT_NO_THROW(shrunk.instance.validate());
  EXPECT_TRUE(shrunk.instance.is_complete());
  // Old member (1, 3) shifts down to (1, 2) (indices above the victim drop
  // by one), and its lists are the old lists with the victim deleted and the
  // tail reindexed the same way.
  auto expected = row_copy(inst, {1, 3}, 0);
  std::erase(expected, victim);
  for (Index& e : expected) {
    if (e > victim) --e;
  }
  EXPECT_EQ(row_copy(shrunk.instance, {1, 2}, 0), expected);

  EXPECT_THROW(remove_member(shrunk.instance, Index{7}), ContractViolation);
}

// ---------------------------------------------------------------------------
// rematch(): the one-call driver, with cache and counter accounting.

TEST(Rematch, BitwiseEqualsColdWithTargetedInvalidation) {
  const Gender k = 4;
  Rng rng(10);
  auto inst = gen::uniform(k, 6, rng);
  const auto tree = trees::path(k);

  core::GsEdgeCache cache(inst);
  RematchOptions options;
  options.cache = &cache;

  core::BindingOptions cold_init;
  cold_init.cache = &cache;
  auto previous = core::iterative_binding(inst, tree, cold_init);
  ASSERT_TRUE(previous.has_matching());
  ASSERT_EQ(cache.size(), static_cast<std::size_t>(k - 1));

  for (int step = 0; step < 8; ++step) {
    const auto delta = random_mutation(inst, rng);
    const auto report = rematch(inst, tree, previous, delta, options);
    const auto cold = core::iterative_binding(inst, tree, {});
    ASSERT_TRUE(report.result.has_matching());
    ASSERT_EQ(report.result.matching(), cold.matching()) << "step " << step;
    EXPECT_FALSE(report.cold_fallback);
    // Per-edge results agree bitwise too (downstream consumers replay them).
    ASSERT_EQ(report.result.edge_results.size(), cold.edge_results.size());
    for (std::size_t e = 0; e < cold.edge_results.size(); ++e) {
      EXPECT_EQ(report.result.edge_results[e].proposer_match,
                cold.edge_results[e].proposer_match);
    }
    // One mutated row touches one gender pair: at most 2 oriented slots were
    // ready, strictly fewer than the k-1 a clear() would have dropped, and
    // re-solving the touched edge did strictly less work than re-solving
    // every edge.
    EXPECT_LT(report.slots_invalidated, static_cast<std::size_t>(k - 1));
    EXPECT_LE(report.slots_invalidated, 2u);
    EXPECT_EQ(report.edges_reused + report.edges_warm + report.edges_cold +
                  report.result.cache_hits,
              k - 1);
    EXPECT_LT(report.warm_executed_proposals, cold.total_proposals);
    EXPECT_EQ(*cache.bound_generation(), inst.generation());
    previous = cold;  // next step reuses this step's ground truth
  }
}

TEST(Rematch, ExecutedProposalsAreTheTouchedEdgesColdWork) {
  // What rematch executes is exactly the cold queue-engine work of the tree
  // edges the delta touched: untouched edges come from `previous` (no cache)
  // or from cache hits, and neither adds a proposal.
  for (const Gender k : {Gender{3}, Gender{5}}) {
    for (const bool cached : {false, true}) {
      SCOPED_TRACE(testing::Message() << "k=" << k << " cached=" << cached);
      Rng rng(15 + static_cast<std::uint64_t>(k));
      auto inst = gen::uniform(k, 24, rng);
      const auto tree = trees::path(k);
      core::GsEdgeCache cache(inst);
      RematchOptions options;
      core::BindingOptions init;
      if (cached) {
        options.cache = &cache;
        init.cache = &cache;
      }
      auto previous = core::iterative_binding(inst, tree, init);

      {  // Pair (0, 2) is not a path-tree edge: nothing to re-solve.
        const auto delta = swap_entries(inst, {0, 1}, 2, 0, 1);
        const auto report = rematch(inst, tree, previous, delta, options);
        EXPECT_EQ(report.edges_warm, 0);
        EXPECT_EQ(report.warm_executed_proposals, 0);
        EXPECT_EQ(report.result.matching(),
                  core::iterative_binding(inst, tree, {}).matching());
        previous = report.result;
      }
      for (int step = 0; step < 12; ++step) {
        auto delta = random_mutation(inst, rng);
        if (step % 3 == 2) delta.merge(random_mutation(inst, rng));
        const auto report = rematch(inst, tree, previous, delta, options);
        std::int64_t touched = 0;
        std::int64_t cold_work = 0;
        for (const GenderEdge& e : tree.edges()) {
          if (!delta.touches(e.a, e.b)) continue;
          ++touched;
          cold_work += gs::gale_shapley_queue(inst, e.a, e.b).proposals;
        }
        EXPECT_EQ(report.edges_warm, touched) << "step " << step;
        EXPECT_EQ(report.warm_executed_proposals, cold_work) << "step " << step;
        EXPECT_EQ(report.result.executed_proposals, cold_work);
        previous = report.result;
      }
    }
  }
}

TEST(Rematch, ShapeChangeFallsBackToColdSolve) {
  const Gender k = 3;
  Rng rng(12);
  const auto inst = gen::uniform(k, 4, rng);
  const auto tree = trees::path(k);

  core::GsEdgeCache cache(inst);
  core::BindingOptions cold_init;
  cold_init.cache = &cache;
  const auto previous = core::iterative_binding(inst, tree, cold_init);

  auto grown = add_member(inst, rng);
  RematchOptions options;
  options.cache = &cache;
  const auto report =
      rematch(grown.instance, tree, previous, grown.delta, options);
  EXPECT_TRUE(report.cold_fallback);
  EXPECT_EQ(report.edges_warm, 0);
  EXPECT_EQ(report.slots_invalidated, static_cast<std::size_t>(k - 1));
  const auto cold = core::iterative_binding(grown.instance, tree, {});
  EXPECT_EQ(report.result.matching(), cold.matching());
  // The cache came out rebound to the grown instance and usable again.
  EXPECT_EQ(*cache.bound_generation(), grown.instance.generation());
  EXPECT_NO_THROW(cache.check_instance(grown.instance));
}

TEST(Rematch, StaleDeltaIsRejected) {
  Rng rng(13);
  auto inst = gen::uniform(3, 4, rng);
  const auto tree = trees::path(3);
  const auto previous = core::iterative_binding(inst, tree, {});
  const auto delta = random_mutation(inst, rng);
  random_mutation(inst, rng);  // instance moved past the delta
  EXPECT_THROW(rematch(inst, tree, previous, delta), ContractViolation);
}

// ---------------------------------------------------------------------------
// Ladder integration: a warm-start provider threaded through
// solve_with_fallback survives injected faults with the cold ladder's answer.

TEST(Rematch, LadderWithWarmStartSurvivesInjectedFaults) {
  const Gender k = 4;
  Rng rng(14);
  auto inst = gen::uniform(k, 6, rng);
  const auto previous = resilience::solve_with_fallback(inst, {});
  ASSERT_TRUE(previous.succeeded);

  const auto delta = random_mutation(inst, rng);
  DeltaWarmStart provider(*previous.result, delta);

  resilience::FaultConfig config;
  config.fire_after = 1;
  config.probability = 1.0;
  config.max_fires = 1;

  resilience::FallbackReport cold;
  {
    resilience::ScopedFault fault("core/binding_edge", config);
    cold = resilience::solve_with_fallback(inst, {});
  }
  resilience::FallbackOptions warm_options;
  warm_options.warm_start = &provider;
  resilience::FallbackReport warm;
  {
    resilience::ScopedFault fault("core/binding_edge", config);
    warm = resilience::solve_with_fallback(inst, warm_options);
  }

  ASSERT_TRUE(cold.succeeded);
  ASSERT_TRUE(warm.succeeded);
  EXPECT_EQ(warm.matching(), cold.matching());
  const auto stats = provider.stats();
  EXPECT_GT(stats.edges_reused + stats.edges_warm + stats.edges_cold, 0);
}

}  // namespace
}  // namespace kstable::incremental
