// Tests for the scan-based GS engine (rank-table ablation baseline).
#include <gtest/gtest.h>

#include "gs/gale_shapley.hpp"
#include "gs/scan_gs.hpp"
#include "prefs/examples.hpp"
#include "prefs/generators.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace kstable::gs {
namespace {

TEST(ScanEngine, MatchesQueueEngineOnExamples) {
  for (const auto& inst :
       {examples::example1_first(), examples::example1_second()}) {
    const auto scan = gale_shapley_scan(inst, 0, 1);
    const auto queue = gale_shapley_queue(inst, 0, 1);
    EXPECT_EQ(scan.proposer_match, queue.proposer_match);
    EXPECT_EQ(scan.proposals, queue.proposals);
  }
}

TEST(ScanEngine, MatchesQueueEngineOnRandomSweep) {
  Rng rng(900);
  for (int trial = 0; trial < 30; ++trial) {
    const Index n = static_cast<Index>(2 + rng.below(40));
    const auto inst = gen::uniform(2, n, rng);
    const auto scan = gale_shapley_scan(inst, 0, 1);
    const auto queue = gale_shapley_queue(inst, 0, 1);
    EXPECT_EQ(scan.proposer_match, queue.proposer_match)
        << "n=" << n << " trial=" << trial;
    EXPECT_EQ(scan.proposals, queue.proposals);
    EXPECT_TRUE(is_stable_binding(inst, scan));
  }
}

TEST(ScanEngine, WorksOnMultiGenderInstances) {
  Rng rng(901);
  const auto inst = gen::uniform(5, 12, rng);
  const auto scan = gale_shapley_scan(inst, 4, 2);
  const auto queue = gale_shapley_queue(inst, 4, 2);
  EXPECT_EQ(scan.proposer_match, queue.proposer_match);
}

TEST(ScanEngine, RejectsInvalidArguments) {
  Rng rng(902);
  const auto inst = gen::uniform(2, 2, rng);
  EXPECT_THROW(gale_shapley_scan(inst, 0, 0), ContractViolation);
  EXPECT_THROW(gale_shapley_scan(inst, 0, 7), ContractViolation);
  EXPECT_THROW(gale_shapley_queue(inst, 1, 1), ContractViolation);
}

}  // namespace
}  // namespace kstable::gs
