// Tests for core::BatchSolver — the serving-shaped API. The concurrency
// property that matters: a batch is just N solo solves that happen to share
// a pool, so each item's matching and SolveStatus must match what a solo run
// under the same budget produces, for every mix of deadlines and budgets.
// The CI ThreadSanitizer job runs this whole file under TSan.
#include <gtest/gtest.h>

#include <vector>

#include "analysis/oracle.hpp"
#include "core/batch_solver.hpp"
#include "core/binding.hpp"
#include "core/tree_selection.hpp"
#include "prefs/generators.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace kstable::core {
namespace {

std::vector<KPartiteInstance> make_batch() {
  std::vector<KPartiteInstance> instances;
  for (int seed = 0; seed < 4; ++seed) {
    for (Gender k = 3; k <= 5; ++k) {
      Rng rng(static_cast<std::uint64_t>(seed) * 977 + k);
      instances.push_back(gen::uniform(k, 16, rng));
    }
  }
  return instances;
}

TEST(BatchSolver, EveryItemMatchesItsSoloRun) {
  const auto instances = make_batch();
  ThreadPool pool(4);
  BatchSolver solver(pool);
  const auto results = solver.solve(instances);

  ASSERT_EQ(results.size(), instances.size());
  for (std::size_t i = 0; i < instances.size(); ++i) {
    const auto& item = results[i];
    ASSERT_TRUE(item.status.ok()) << "item " << i;
    ASSERT_TRUE(item.matching.has_value());
    const auto solo =
        iterative_binding(instances[i], trees::path(instances[i].genders()));
    EXPECT_EQ(*item.matching, solo.matching()) << "item " << i;
    EXPECT_EQ(item.total_proposals, solo.total_proposals);
    // Single-tree path solve: every edge is a compulsory miss.
    EXPECT_EQ(item.cache_hits, 0);
    EXPECT_EQ(item.cache_misses, instances[i].genders() - 1);
  }
}

TEST(BatchSolver, MixedProposalBudgetsMatchSoloStatuses) {
  const auto instances = make_batch();
  ThreadPool pool(4);
  BatchSolver solver(pool);

  BatchOptions options;
  // Mixed deadlines: unlimited / generous / starved, round-robin.
  for (std::size_t i = 0; i < instances.size(); ++i) {
    switch (i % 3) {
      case 0: options.per_item_budgets.push_back({}); break;
      case 1:
        options.per_item_budgets.push_back(
            resilience::Budget::proposals(100000));
        break;
      default:
        options.per_item_budgets.push_back(resilience::Budget::proposals(3));
    }
  }
  const auto results = solver.solve(instances, options);

  for (std::size_t i = 0; i < instances.size(); ++i) {
    // Solo run under the identical budget (proposal budgets are
    // deterministic, unlike wall clocks).
    resilience::ExecControl control(options.per_item_budgets[i]);
    BindingOptions solo_options;
    solo_options.control = &control;
    resilience::SolveStatus solo_status;
    std::int64_t solo_proposals = 0;
    try {
      const auto solo = iterative_binding(
          instances[i], trees::path(instances[i].genders()), solo_options);
      solo_status = solo.status;
      solo_proposals = solo.total_proposals;
    } catch (const ExecutionAborted& e) {
      solo_status = control.aborted_status(e.reason(), e.what());
      solo_proposals = control.spent();
    }

    const auto& item = results[i];
    EXPECT_EQ(item.status.outcome, solo_status.outcome) << "item " << i;
    EXPECT_EQ(item.status.abort_reason, solo_status.abort_reason)
        << "item " << i;
    EXPECT_EQ(item.total_proposals, solo_proposals) << "item " << i;
    EXPECT_EQ(item.matching.has_value(), solo_status.ok());
  }
}

TEST(BatchSolver, CostAwareTreeMatchesSoloCostAwareBinding) {
  std::vector<KPartiteInstance> instances;
  for (int seed = 0; seed < 6; ++seed) {
    Rng rng(static_cast<std::uint64_t>(seed) * 311 + 5);
    instances.push_back(gen::uniform(5, 16, rng));
  }
  ThreadPool pool(3);
  BatchSolver solver(pool);
  BatchOptions options;
  options.tree = BatchTree::cost_aware;
  const auto results = solver.solve(instances, options);

  for (std::size_t i = 0; i < instances.size(); ++i) {
    const auto& item = results[i];
    ASSERT_TRUE(item.status.ok());
    const auto solo = cost_aware_binding(instances[i]);
    EXPECT_EQ(*item.matching, solo.matching()) << "item " << i;
    // The probe phase warms the per-item cache, so the selected tree's k-1
    // edges all replay as hits.
    EXPECT_EQ(item.cache_hits, instances[i].genders() - 1);
    EXPECT_EQ(item.cache_misses,
              instances[i].genders() * (instances[i].genders() - 1) / 2);
  }
}

TEST(BatchSolver, EveryMatchingIsStable) {
  std::vector<KPartiteInstance> instances;
  for (int seed = 0; seed < 8; ++seed) {
    Rng rng(static_cast<std::uint64_t>(seed) * 53 + 11);
    instances.push_back(gen::uniform(4, 6, rng));
  }
  ThreadPool pool(4);
  BatchSolver solver(pool);
  const auto results = solver.solve(instances);
  for (std::size_t i = 0; i < instances.size(); ++i) {
    ASSERT_TRUE(results[i].status.ok());
    EXPECT_FALSE(
        analysis::find_blocking_family(instances[i], *results[i].matching)
            .has_value())
        << "item " << i;
  }
}

TEST(BatchSolver, ContractChecksOnOptions) {
  const auto instances = make_batch();
  ThreadPool pool(2);
  BatchSolver solver(pool);
  BatchOptions short_budgets;
  short_budgets.per_item_budgets.resize(2);  // batch has more items
  EXPECT_THROW(solver.solve(instances, short_budgets), ContractViolation);
}

TEST(BatchSolver, EmptyBatchIsANoOp) {
  ThreadPool pool(2);
  BatchSolver solver(pool);
  EXPECT_TRUE(solver.solve({}).empty());
}

}  // namespace
}  // namespace kstable::core
