// Tests for Algorithm 1 (iterative binding GS): Theorem 2 stability,
// Theorem 3 proposal bound, Theorem 4 tightness, tree-shape sweeps.
#include <gtest/gtest.h>

#include <tuple>

#include "analysis/oracle.hpp"
#include "analysis/stability.hpp"
#include "core/binding.hpp"
#include "core/gs_cache.hpp"
#include "core/oriented_binding.hpp"
#include "core/parallel_binding.hpp"
#include "graph/prufer.hpp"
#include "parallel/thread_pool.hpp"
#include "prefs/examples.hpp"
#include "prefs/generators.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace kstable::core {
namespace {

TEST(IterativeBinding, Fig3ExampleMatchesPaper) {
  const auto inst = kstable::examples::fig3_instance();
  BindingStructure tree(3);
  tree.add_edge({0, 1});  // M - W
  tree.add_edge({1, 2});  // W - U
  const auto result = iterative_binding(inst, tree);
  ASSERT_TRUE(result.has_matching());
  const auto& m = result.matching();
  const Index fam = m.family_of({0, 0});
  EXPECT_EQ(m.member_at(fam, 1), (MemberId{1, 0}));  // (m, w, u)
  EXPECT_EQ(m.member_at(fam, 2), (MemberId{2, 0}));
  // Theorem 2: stable under the strict blocking condition.
  EXPECT_FALSE(analysis::find_blocking_family(inst, m).has_value());
}

TEST(IterativeBinding, AlternativeTreesGiveDifferentStableMatchings) {
  // §IV.B: bindings M-U and U-W give (m, w', u') and (m', w, u).
  const auto inst = kstable::examples::fig3_instance();
  BindingStructure tree(3);
  tree.add_edge({0, 2});  // M - U
  tree.add_edge({2, 1});  // U - W
  const auto result = iterative_binding(inst, tree);
  const auto& m = result.matching();
  const Index fam = m.family_of({0, 0});
  EXPECT_EQ(m.member_at(fam, 2), (MemberId{2, 1}));  // m with u'
  EXPECT_FALSE(analysis::find_blocking_family(inst, m).has_value());
}

TEST(IterativeBinding, RequiresSpanningTree) {
  Rng rng(210);
  const auto inst = gen::uniform(3, 2, rng);
  BindingStructure forest(3);
  forest.add_edge({0, 1});
  EXPECT_THROW(iterative_binding(inst, forest), ContractViolation);
}

/// Theorem 2 property sweep: every (engine, k, n, tree) combination yields a
/// strictly stable k-ary matching.
class BindingStabilityTest
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, Gender, Index>> {
};

TEST_P(BindingStabilityTest, Theorem2StableAndTheorem3Bounded) {
  const auto [seed, k, n] = GetParam();
  Rng rng(seed);
  const auto inst = gen::uniform(k, n, rng);
  const auto tree = prufer::random_tree(k, rng);
  const auto result = iterative_binding(inst, tree);
  ASSERT_TRUE(result.has_matching());
  // Theorem 3 (also enforced as a postcondition inside the call).
  EXPECT_LE(result.total_proposals,
            static_cast<std::int64_t>(k - 1) * n * n);
  // Theorem 2 via exact search (sizes kept small enough).
  EXPECT_FALSE(analysis::find_blocking_family(inst, result.matching())
                   .has_value())
      << "k=" << k << " n=" << n << " seed=" << seed;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, BindingStabilityTest,
    ::testing::Combine(::testing::Values(1u, 2u, 3u, 4u, 5u),
                       ::testing::Values(Gender{3}, Gender{4}, Gender{5}),
                       ::testing::Values(Index{2}, Index{3}, Index{5})));

TEST(IterativeBinding, AllTreesStableOnSmallInstances) {
  // Exhaust all k^(k-2) binding trees for k = 4, n = 3: every one must give a
  // strictly stable matching (Theorem 2 holds per tree, §IV.B notes the
  // matchings differ).
  Rng rng(220);
  const auto inst = gen::uniform(4, 3, rng);
  std::int64_t trees = 0;
  prufer::enumerate_trees(4, [&](const BindingStructure& tree) {
    const auto result = iterative_binding(inst, tree);
    EXPECT_FALSE(
        analysis::find_blocking_family(inst, result.matching()).has_value());
    ++trees;
  });
  EXPECT_EQ(trees, 16);
}

TEST(IterativeBinding, EnginesProduceIdenticalMatchings) {
  Rng rng(230);
  const auto inst = gen::uniform(4, 8, rng);
  const auto tree = prufer::random_tree(4, rng);
  const auto queue = iterative_binding(inst, tree, {GsEngine::queue});
  const auto rounds = iterative_binding(inst, tree, {GsEngine::rounds});
  EXPECT_EQ(queue.matching(), rounds.matching());
  EXPECT_EQ(queue.total_proposals, rounds.total_proposals);
}

TEST(IterativeBinding, StableMatchingsExistForAllSmallSizes) {
  // Cross-check with the oracle: the binding result appears among the
  // oracle's stable matchings.
  Rng rng(240);
  for (int trial = 0; trial < 5; ++trial) {
    const auto inst = gen::uniform(3, 3, rng);
    const auto result = iterative_binding(inst, trees::path(3));
    const auto census = analysis::kary_census(inst);
    EXPECT_GE(census.stable_matchings, 1);
    EXPECT_FALSE(
        analysis::find_blocking_family(inst, result.matching()).has_value());
  }
}

TEST(Theorem4, CyclePreferencesCannotSupportThreeBindings) {
  // §IV.B witness: with the listed preferences it is impossible to perform
  // three binary bindings and keep them consistent/stable. The GS matchings
  // of the three edges disagree, so the cycle's equivalence classes collapse.
  const auto inst = gen::theorem4_cycle_prefs();
  BindingStructure cycle(3);
  cycle.add_edge({0, 1});
  cycle.add_edge({1, 2});
  cycle.add_edge({2, 0});
  const auto result = bind_structure(inst, cycle);
  EXPECT_FALSE(result.equivalence.consistent)
      << "the paper's cycle preferences should make three bindings collide";
}

TEST(Theorem4, FewerBindingsCauseInstability) {
  // With k-2 bindings some component is unbound; preferences exist that make
  // the index-assembled matching unstable. The Fig. 3 instance already
  // works: bind only M-W and leave U unbound.
  const auto inst = kstable::examples::fig3_instance();
  BindingStructure forest(3);
  forest.add_edge({0, 1});
  const auto result = bind_structure(inst, forest);
  ASSERT_TRUE(result.equivalence.consistent);
  // Index assembly joins (m, w) with u = (2, 0); but m prefers u' and u'
  // prefers m, while... verify instability via exact search.
  const auto witness =
      analysis::find_blocking_family(inst, *result.equivalence.matching);
  // Either assembly is blocked, or (rarely) the arbitrary join happened to be
  // stable. For this specific instance the assembly pairs (m,w) with u and
  // (m',w') with u', which IS the stable matching — so use the crosswise
  // instance instead.
  (void)witness;
  // Crosswise variant: make the unbound gender's index-join wrong.
  KPartiteInstance bad = inst;
  // Flip u/u' preferences of both w and w' so W-U mutual first choices cross:
  bad.set_pref_list({1, 0}, 2, std::vector<Index>{1, 0});  // w : u' > u
  bad.set_pref_list({1, 1}, 2, std::vector<Index>{0, 1});  // w': u > u'
  bad.set_pref_list({2, 0}, 1, std::vector<Index>{1, 0});  // u : w' > w
  bad.set_pref_list({2, 1}, 1, std::vector<Index>{0, 1});  // u': w > w'
  bad.validate();
  const auto bad_result = bind_structure(bad, forest);
  ASSERT_TRUE(bad_result.equivalence.consistent);
  const auto bad_witness =
      analysis::find_blocking_family(bad, *bad_result.equivalence.matching);
  EXPECT_TRUE(bad_witness.has_value())
      << "unbound component should admit a blocking family";
}

TEST(Theorem4, RandomInstancesFewBindingsSometimesUnstable) {
  // Statistical contrast: across random k=4 instances, a 1-edge forest must
  // produce at least one blocked assembly while the spanning tree never does.
  // (Strict blocking families need many simultaneous preference agreements,
  // so the per-instance hit rate is modest — Theorem 4's "fewer bindings
  // cause instability" is an existence claim, covered deterministically
  // above; here we only check the rates separate.)
  Rng rng(250);
  int forest_unstable = 0;
  int tree_unstable = 0;
  const int trials = 20;
  for (int trial = 0; trial < trials; ++trial) {
    const auto inst = gen::uniform(4, 8, rng);
    BindingStructure forest(4);
    forest.add_edge({0, 1});
    const auto result = bind_structure(inst, forest);
    ASSERT_TRUE(result.equivalence.consistent);
    forest_unstable +=
        analysis::find_blocking_family_pairs(inst, *result.equivalence.matching,
                                             analysis::BlockingMode::strict)
            .has_value();
    const auto full = iterative_binding(inst, trees::path(4));
    tree_unstable +=
        analysis::find_blocking_family_pairs(inst, full.matching(),
                                             analysis::BlockingMode::strict)
            .has_value();
  }
  EXPECT_GT(forest_unstable, 0);
  EXPECT_EQ(tree_unstable, 0);
  EXPECT_GT(forest_unstable, tree_unstable);
}

TEST(GreedySpanningTree, ConsumesCandidatesInOrder) {
  const std::vector<GenderEdge> candidates{
      {0, 1}, {1, 0}, {1, 2}, {0, 2}, {2, 3}};
  // Second candidate (1,0) would duplicate/cycle and must be skipped.
  const auto tree = greedy_spanning_tree(4, candidates);
  EXPECT_TRUE(tree.is_spanning_tree());
  ASSERT_EQ(tree.edges().size(), 3U);
  EXPECT_EQ(tree.edges()[0].a, 0);
  EXPECT_EQ(tree.edges()[1].b, 2);
}

TEST(GreedySpanningTree, ThrowsWhenCandidatesCannotSpan) {
  const std::vector<GenderEdge> candidates{{0, 1}};
  EXPECT_THROW(greedy_spanning_tree(3, candidates), ContractViolation);
}

TEST(Strengthen, GloballyAlignedScoresAcceptEveryExtraBinding) {
  // popularity(noise=0) ranks everyone by one global score per member, so
  // every pairwise GS matching is score-aligned and all C(k,2) - (k-1) extra
  // edges stay consistent. (Plain master_list does NOT have this property:
  // its shared orders are independent per gender pair.)
  Rng rng(270);
  const Gender k = 5;
  const auto inst = gen::popularity(k, 6, rng, 0.0);
  const auto result = strengthen_bindings(inst, trees::path(k));
  EXPECT_EQ(result.extra_accepted, (k * (k - 1) / 2) - (k - 1));
  EXPECT_EQ(result.extra_rejected, 0);
  EXPECT_TRUE(result.binding.equivalence.consistent);
}

TEST(Strengthen, UniformInstancesRejectMostExtraBindings) {
  Rng rng(271);
  int total_accepted = 0;
  int total_rejected = 0;
  for (int trial = 0; trial < 10; ++trial) {
    const auto inst = gen::uniform(4, 8, rng);
    const auto result = strengthen_bindings(inst, trees::path(4));
    total_accepted += result.extra_accepted;
    total_rejected += result.extra_rejected;
    // Whatever was accepted, the result stays a consistent matching.
    ASSERT_TRUE(result.binding.equivalence.consistent);
    EXPECT_FALSE(analysis::find_blocking_family_pairs(
                     inst, *result.binding.equivalence.matching,
                     analysis::BlockingMode::strict)
                     .has_value());
  }
  EXPECT_GT(total_rejected, total_accepted);
}

TEST(Strengthen, PaperCyclePreferencesRejectTheClosingEdge) {
  // §IV.B: the cycle witness preferences cannot support a third binding.
  const auto inst = gen::theorem4_cycle_prefs();
  BindingStructure base(3);
  base.add_edge({0, 1});
  base.add_edge({1, 2});
  const auto result = strengthen_bindings(inst, base);
  EXPECT_EQ(result.extra_accepted, 0);
  EXPECT_EQ(result.extra_rejected, 1);
  EXPECT_TRUE(result.structure.is_spanning_tree());
}

TEST(Strengthen, RejectsCyclicBase) {
  Rng rng(272);
  const auto inst = gen::uniform(3, 2, rng);
  BindingStructure cyclic(3);
  cyclic.add_edge({0, 1});
  cyclic.add_edge({1, 2});
  cyclic.add_edge({2, 0});
  EXPECT_THROW(strengthen_bindings(inst, cyclic), ContractViolation);
}

TEST(BindingResult, ProposalAccountingMatchesEdges) {
  Rng rng(260);
  const auto inst = gen::uniform(4, 6, rng);
  const auto tree = trees::star(4, 0);
  const auto result = iterative_binding(inst, tree);
  std::int64_t sum = 0;
  for (const auto& r : result.edge_results) sum += r.proposals;
  EXPECT_EQ(sum, result.total_proposals);
  EXPECT_EQ(result.edge_results.size(), 3U);
}

/// Every driver tallies through the shared per-edge step: without a cache
/// each executed proposal is counted once, the telemetry agrees with the
/// result, and with a fresh cache every edge is exactly one hit or miss.
TEST(BindingResult, EveryDriverTalliesExecutedProposalsAndCacheOutcomes) {
  Rng rng(7);
  const auto inst = gen::uniform(4, 16, rng);
  const auto tree = trees::path(4);
  const auto expect_tally = [](const BindingResult& r, const char* driver) {
    EXPECT_GT(r.total_proposals, 0) << driver;
    EXPECT_EQ(r.executed_proposals, r.total_proposals) << driver;
    EXPECT_EQ(r.status.proposals, r.total_proposals) << driver;
    EXPECT_EQ(r.telemetry.proposals, r.total_proposals) << driver;
    EXPECT_EQ(r.telemetry.executed_proposals, r.executed_proposals) << driver;
    EXPECT_EQ(r.cache_hits + r.cache_misses, 0) << driver;
  };

  expect_tally(iterative_binding(inst, tree), "bind_structure");
  for (const auto policy :
       {OrientationPolicy::as_given, OrientationPolicy::alternate,
        OrientationPolicy::balance_greedy}) {
    const auto oriented = oriented_binding(inst, tree, policy);
    expect_tally(oriented.binding, "oriented_binding");
    EXPECT_STREQ(oriented.binding.telemetry.engine, "binding.oriented");
  }
  ThreadPool pool(3);
  for (const auto mode :
       {ExecutionMode::sequential, ExecutionMode::erew_rounds,
        ExecutionMode::crew_full}) {
    const auto report = execute_binding(inst, tree, mode, pool);
    expect_tally(report.binding, "execute_binding");
    EXPECT_EQ(report.binding.telemetry.rounds, report.rounds_executed);
  }

  // strengthen_bindings binds every candidate pair, rejected ones included:
  // its executed work is one binding of all C(k,2) pairs in candidate order
  // (the path's edges, then the absent pairs in (a, b) order).
  const auto strengthened = strengthen_bindings(inst, tree);
  BindingStructure all_pairs = tree;
  for (Gender a = 0; a < 4; ++a) {
    for (Gender b = a + 1; b < 4; ++b) {
      bool present = false;
      for (const auto& e : tree.edges()) {
        present |= e.normalized() == GenderEdge{a, b};
      }
      if (!present) all_pairs.add_edge({a, b});
    }
  }
  const auto every_pair = bind_structure(inst, all_pairs);
  EXPECT_EQ(strengthened.binding.executed_proposals,
            every_pair.total_proposals);
  EXPECT_EQ(strengthened.binding.telemetry.executed_proposals,
            strengthened.binding.executed_proposals);

  // With a cache: one outcome per bound edge, and a cold cache misses them
  // all.
  const auto expect_cached = [](const BindingResult& r, std::int64_t edges,
                                 const char* driver) {
    EXPECT_EQ(r.cache_hits + r.cache_misses, edges) << driver;
    EXPECT_EQ(r.telemetry.cache_hits, r.cache_hits) << driver;
    EXPECT_EQ(r.telemetry.cache_misses, r.cache_misses) << driver;
  };
  {
    GsEdgeCache cache(inst);
    BindingOptions options;
    options.cache = &cache;
    const auto cold = iterative_binding(inst, tree, options);
    expect_cached(cold, 3, "bind_structure");
    EXPECT_EQ(cold.cache_misses, 3);
    EXPECT_EQ(cold.executed_proposals, cold.total_proposals);
    const auto warm = iterative_binding(inst, tree, options);
    expect_cached(warm, 3, "bind_structure");
    EXPECT_EQ(warm.cache_hits, 3);
    EXPECT_EQ(warm.executed_proposals, 0);
  }
  {
    GsEdgeCache cache(inst);
    BindingOptions options;
    options.cache = &cache;
    const auto oriented =
        oriented_binding(inst, tree, OrientationPolicy::as_given, options);
    expect_cached(oriented.binding, 3, "oriented_binding");
    EXPECT_EQ(oriented.binding.cache_misses, 3);
    EXPECT_EQ(oriented.binding.executed_proposals,
              oriented.binding.total_proposals);
  }
  {
    GsEdgeCache cache(inst);
    BindingOptions options;
    options.cache = &cache;
    expect_cached(strengthen_bindings(inst, tree, options).binding, 6,
                  "strengthen_bindings");
  }
}

}  // namespace
}  // namespace kstable::core
