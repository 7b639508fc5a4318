// Cross-module integration tests: full pipelines exercising generation,
// serialization, binding, parallel execution, verification, and metrics
// together at moderately large sizes.
#include <gtest/gtest.h>

#include "analysis/metrics.hpp"
#include "analysis/stability.hpp"
#include "core/binding.hpp"
#include "core/existence.hpp"
#include "core/parallel_binding.hpp"
#include "core/priority_binding.hpp"
#include "graph/binding_structure.hpp"
#include "graph/prufer.hpp"
#include "graph/scheduling.hpp"
#include "gs/gale_shapley.hpp"
#include "parallel/thread_pool.hpp"
#include "prefs/generators.hpp"
#include "prefs/ids.hpp"
#include "prefs/io.hpp"
#include "roommates/adapters.hpp"
#include "roommates/solver.hpp"
#include "util/rng.hpp"

namespace kstable {
namespace {

TEST(Pipeline, GenerateSerializeBindVerify) {
  Rng rng(600);
  const Gender k = 5;
  const Index n = 24;
  const auto inst = gen::uniform(k, n, rng);

  // Serialize, reload, and run the binding on the reloaded copy: results
  // must match exactly.
  const auto reloaded = io::from_string(io::to_string(inst));
  const auto tree = prufer::random_tree(k, rng);
  const auto a = core::iterative_binding(inst, tree);
  const auto b = core::iterative_binding(reloaded, tree);
  ASSERT_TRUE(a.has_matching());
  EXPECT_EQ(a.matching(), b.matching());

  // Verify stability with the polynomial pairs checker plus random probes.
  EXPECT_FALSE(analysis::find_blocking_family_pairs(
                   inst, a.matching(), analysis::BlockingMode::strict)
                   .has_value());
  Rng probe_rng(601);
  EXPECT_FALSE(analysis::find_blocking_family_sampled(inst, a.matching(),
                                                      probe_rng, 20000)
                   .has_value());
}

TEST(Pipeline, ParallelAndSequentialAgreeAtScale) {
  Rng rng(610);
  const Gender k = 8;
  const Index n = 64;
  const auto inst = gen::uniform(k, n, rng);
  const auto tree = prufer::random_tree(k, rng);
  ThreadPool pool(4);
  const auto seq =
      core::execute_binding(inst, tree, core::ExecutionMode::sequential, pool);
  const auto crew =
      core::execute_binding(inst, tree, core::ExecutionMode::crew_full, pool);
  EXPECT_EQ(seq.binding.matching(), crew.binding.matching());
  // Model accounting: CREW charged cost <= sequential cost.
  EXPECT_LE(crew.cost.total_cost(), seq.cost.sequential_iterations);
}

TEST(Pipeline, FairSmpBeatsGsOnSexEquality) {
  // Across random instances, alternate-policy fair SMP should (weakly) reduce
  // the sex-equality cost versus man-proposing GS on average — the §III.B
  // procedural-fairness claim. Checked in aggregate, not per instance.
  Rng rng(620);
  std::int64_t gs_total = 0;
  std::int64_t fair_total = 0;
  for (int trial = 0; trial < 20; ++trial) {
    const Index n = 16;
    const auto inst = gen::uniform(2, n, rng);
    const auto gs_result = gs::gale_shapley_queue(inst, 0, 1);
    const auto gs_costs =
        analysis::bipartite_costs(inst, 0, 1, gs_result.proposer_match);
    gs_total += gs_costs.sex_equality();

    const auto fair = rm::solve_fair_smp(inst, 0, 1, rm::FairPolicy::alternate);
    const auto fair_costs =
        analysis::bipartite_costs(inst, 0, 1, fair.man_match);
    fair_total += fair_costs.sex_equality();
  }
  EXPECT_LE(fair_total, gs_total);
}

TEST(Pipeline, PopularityInstancesBindStably) {
  Rng rng(630);
  for (const double noise : {0.0, 0.3, 2.0}) {
    const auto inst = gen::popularity(4, 16, rng, noise);
    const auto result = core::iterative_binding(inst, trees::path(4));
    EXPECT_FALSE(analysis::find_blocking_family_pairs(
                     inst, result.matching(), analysis::BlockingMode::strict)
                     .has_value())
        << "noise=" << noise;
  }
}

TEST(Pipeline, MasterListBindingIsAssortative) {
  // With master lists, every binding pairs rank-by-rank: the most popular
  // members of each gender end up in one family.
  Rng rng(640);
  const auto inst = gen::master_list(3, 8, rng);
  const auto result = core::iterative_binding(inst, trees::path(3));
  const auto& m = result.matching();
  for (Index t = 0; t < 8; ++t) {
    const MemberId a = m.member_at(t, 0);
    const MemberId b = m.member_at(t, 1);
    const MemberId c = m.member_at(t, 2);
    // Ranks line up: the member of gender 1 in a's family sits at the same
    // master-list position as a does in gender 0's master list.
    EXPECT_EQ(inst.rank_of(a, b), inst.rank_of(b, a));
    EXPECT_EQ(inst.rank_of(b, c), inst.rank_of(c, b));
  }
}

TEST(Pipeline, BindingCostDependsOnTreeShape) {
  // Tree-restricted costs are low on bound pairs; all-pairs costs include
  // unoptimized cross pairs, so all-pairs >= tree-restricted.
  Rng rng(650);
  const auto inst = gen::uniform(5, 16, rng);
  const auto tree = trees::star(5, 2);
  const auto result = core::iterative_binding(inst, tree);
  const auto all_costs = analysis::kary_costs(inst, result.matching());
  const auto tree_costs =
      analysis::kary_tree_costs(inst, result.matching(), tree);
  EXPECT_LE(tree_costs.total_cost, all_costs.total_cost);
  EXPECT_GE(all_costs.regret, tree_costs.regret);
}

TEST(Pipeline, KPartiteBinarySolverOnAdversarialAndBenign) {
  Rng rng(660);
  // Benign: bipartite always works.
  const auto benign = gen::uniform(2, 12, rng);
  EXPECT_TRUE(
      rm::solve_kpartite_binary(benign, rm::Linearization::round_robin)
          .has_stable);
  // Adversarial (combined model): never stable.
  const auto bad = core::theorem1_adversarial_roommates(3, 4, rng);
  EXPECT_FALSE(rm::solve(bad).has_stable);
}

TEST(Pipeline, PriorityBindingEndToEnd) {
  Rng rng(670);
  const Gender k = 6;
  const Index n = 12;
  const auto inst = gen::uniform(k, n, rng);
  core::PriorityBindingOptions options;
  options.priority = {5, 3, 1, 0, 2, 4};
  const auto result = core::priority_binding(inst, options);
  EXPECT_TRUE(sched::is_bitonic_tree(result.tree, options.priority));
  // Weakened stability probed with the polynomial pairs checker.
  EXPECT_FALSE(analysis::find_blocking_family_pairs(
                   inst, result.binding.matching(),
                   analysis::BlockingMode::weakened, options.priority)
                   .has_value());
}

TEST(Pipeline, Theorem3BoundTightUnderMasterLists) {
  // Master lists are near-worst-case for proposal counts: the total over a
  // path tree is (k-1) * n(n+1)/2, inside but close to the (k-1)n² bound.
  Rng rng(680);
  const Gender k = 4;
  const Index n = 32;
  const auto inst = gen::master_list(k, n, rng);
  const auto result = core::iterative_binding(inst, trees::path(k));
  EXPECT_EQ(result.total_proposals,
            static_cast<std::int64_t>(k - 1) * n * (n + 1) / 2);
  EXPECT_LE(result.total_proposals, static_cast<std::int64_t>(k - 1) * n * n);
}

TEST(Pipeline, StressModerateScaleSmoke) {
  // One larger end-to-end smoke: k = 10, n = 128 (90 preference lists of 128
  // entries per member is still tiny in memory but exercises indexing).
  Rng rng(690);
  const Gender k = 10;
  const Index n = 128;
  const auto inst = gen::uniform(k, n, rng);
  ThreadPool pool(4);
  const auto report = core::execute_binding(
      inst, trees::path(k), core::ExecutionMode::erew_rounds, pool);
  ASSERT_TRUE(report.binding.has_matching());
  EXPECT_EQ(report.rounds_executed, 2);
  Rng probe(691);
  EXPECT_FALSE(analysis::find_blocking_family_sampled(
                   inst, report.binding.matching(), probe, 5000)
                   .has_value());
}

}  // namespace
}  // namespace kstable
