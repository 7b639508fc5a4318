// Unit & property tests for the Gale-Shapley engines: paper Example 1,
// stability, proposer-optimality, confluence across engines, proposal bounds.
#include <gtest/gtest.h>

#include <string_view>
#include <tuple>

#include "gs/gale_shapley.hpp"
#include "gs/parallel_gs.hpp"
#include "gs/scan_gs.hpp"
#include "prefs/examples.hpp"
#include "prefs/generators.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace kstable {
namespace {

TEST(GaleShapley, Example1FirstPreferences) {
  // Paper §II.A: men propose; m is rejected by w and ends with w'.
  const auto inst = examples::example1_first();
  const auto result =
      gs::gale_shapley_queue(inst, examples::kMen, examples::kWomen);
  EXPECT_EQ(result.proposer_match[0], 1);  // (m, w')
  EXPECT_EQ(result.proposer_match[1], 0);  // (m', w)
  EXPECT_TRUE(gs::is_stable_binding(inst, result));
}

TEST(GaleShapley, Example1SecondPreferencesManOptimal) {
  // Men propose: (m, w), (m', w') — the man-optimal matching.
  const auto inst = examples::example1_second();
  const auto men_propose =
      gs::gale_shapley_queue(inst, examples::kMen, examples::kWomen);
  EXPECT_EQ(men_propose.proposer_match[0], 0);
  EXPECT_EQ(men_propose.proposer_match[1], 1);
  // Women propose: (m, w'), (m', w) — the woman-optimal matching the paper
  // notes GS cannot produce for men proposing.
  const auto women_propose =
      gs::gale_shapley_queue(inst, examples::kWomen, examples::kMen);
  EXPECT_EQ(women_propose.proposer_match[0], 1);  // w -> m'
  EXPECT_EQ(women_propose.proposer_match[1], 0);  // w' -> m
  EXPECT_TRUE(gs::is_stable_binding(inst, men_propose));
  EXPECT_TRUE(gs::is_stable_binding(inst, women_propose));
}

TEST(GaleShapley, TraceRecordsEvents) {
  const auto inst = examples::example1_first();
  std::vector<gs::ProposalEvent> trace;
  gs::GsOptions options;
  options.trace = &trace;
  const auto result =
      gs::gale_shapley_queue(inst, examples::kMen, examples::kWomen, options);
  EXPECT_EQ(static_cast<std::int64_t>(trace.size()), result.proposals);
  // First proposal: m proposes to w (his first choice) and is accepted.
  EXPECT_EQ(trace[0].proposer, 0);
  EXPECT_EQ(trace[0].responder, 0);
  EXPECT_TRUE(trace[0].accepted);
  // Some later event must displace m (m' outranks him at w).
  bool saw_displacement = false;
  for (const auto& event : trace) saw_displacement |= event.displaced >= 0;
  EXPECT_TRUE(saw_displacement);
}

TEST(GaleShapley, QueueTraceMatchesTextbookFreeStack) {
  // The queue engine's prefetch-pipelined loop must emit exactly the
  // textbook free-stack sequence: pop ascending by index, and a displaced
  // holder or rejected proposer is pushed and popped right back. The
  // reference below reads the instance only through pref_at / prefers.
  Rng rng(31);
  for (const Index n : {1, 7, 40}) {
    const auto inst = gen::uniform(3, n, rng);
    const Gender i = 2;
    const Gender j = 0;
    std::vector<gs::ProposalEvent> expected;
    std::vector<Index> next(static_cast<std::size_t>(n), 0);
    std::vector<Index> holder(static_cast<std::size_t>(n), -1);
    std::vector<Index> stack;
    for (Index p = n - 1; p >= 0; --p) stack.push_back(p);
    while (!stack.empty()) {
      const Index p = stack.back();
      stack.pop_back();
      const Index r =
          inst.pref_at({i, p}, j, next[static_cast<std::size_t>(p)]++);
      Index& h = holder[static_cast<std::size_t>(r)];
      gs::ProposalEvent event{p, r, false, -1};
      if (h < 0 || inst.prefers({j, r}, {i, p}, {i, h})) {
        event.accepted = true;
        event.displaced = h;
        if (h >= 0) stack.push_back(h);
        h = p;
      } else {
        stack.push_back(p);
      }
      expected.push_back(event);
    }

    std::vector<gs::ProposalEvent> trace;
    gs::GsOptions options;
    options.trace = &trace;
    const auto result = gs::gale_shapley_queue(inst, i, j, options);
    EXPECT_EQ(trace, expected) << "n=" << n;
    EXPECT_EQ(result.responder_match, holder) << "n=" << n;
  }
}

TEST(GaleShapley, EveryEngineStampsItsDocumentedLabel) {
  // GsResult::engine feeds telemetry and metrics; each engine names itself
  // with one of the labels documented on the field.
  Rng rng(32);
  const auto inst = gen::uniform(2, 6, rng);
  ThreadPool pool(2);
  const auto label = [](const gs::GsResult& r) {
    return std::string_view(r.engine);
  };
  EXPECT_EQ(label(gs::gale_shapley_queue(inst, 0, 1)), "gs.queue");
  EXPECT_EQ(label(gs::gale_shapley_rounds(inst, 0, 1)), "gs.rounds");
  EXPECT_EQ(label(gs::gale_shapley_parallel(inst, 0, 1, pool, 2)),
            "gs.parallel");
  EXPECT_EQ(label(gs::gale_shapley_scan(inst, 0, 1)), "gs.scan");
}

TEST(GaleShapley, RejectsInvalidGenderArguments) {
  const auto inst = examples::example1_first();
  EXPECT_THROW(gs::gale_shapley_queue(inst, 0, 0), ContractViolation);
  EXPECT_THROW(gs::gale_shapley_queue(inst, 0, 5), ContractViolation);
}

TEST(GaleShapley, MasterListProposalCount) {
  // With one shared list, proposer i (in acceptance order) is accepted after
  // being rejected by all higher-ranked responders: total = n(n+1)/2.
  Rng rng(70);
  const Index n = 16;
  const auto inst = gen::master_list(2, n, rng);
  const auto result = gs::gale_shapley_queue(inst, 0, 1);
  EXPECT_EQ(result.proposals, static_cast<std::int64_t>(n) * (n + 1) / 2);
  EXPECT_TRUE(gs::is_stable_binding(inst, result));
}

TEST(GaleShapley, SingleMemberInstance) {
  Rng rng(71);
  const auto inst = gen::uniform(2, 1, rng);
  const auto result = gs::gale_shapley_queue(inst, 0, 1);
  EXPECT_EQ(result.proposals, 1);
  EXPECT_EQ(result.proposer_match[0], 0);
}

/// Property sweep over (seed, n): all engines stable, identical, and within
/// the n² proposal bound.
class GsPropertyTest
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, Index>> {};

TEST_P(GsPropertyTest, EnginesAgreeAndAreStable) {
  const auto [seed, n] = GetParam();
  Rng rng(seed);
  const auto inst = gen::uniform(2, n, rng);

  const auto queue = gs::gale_shapley_queue(inst, 0, 1);
  const auto rounds = gs::gale_shapley_rounds(inst, 0, 1);
  ThreadPool pool(4);
  const auto parallel = gs::gale_shapley_parallel(inst, 0, 1, pool, 8);

  // Confluence: the proposer-optimal matching is engine-independent.
  EXPECT_EQ(queue.proposer_match, rounds.proposer_match);
  EXPECT_EQ(queue.proposer_match, parallel.proposer_match);
  EXPECT_EQ(queue.proposals, rounds.proposals);

  EXPECT_TRUE(gs::is_stable_binding(inst, queue));
  EXPECT_LE(queue.proposals, static_cast<std::int64_t>(n) * n);
  EXPECT_GE(queue.proposals, n);  // everyone proposes at least once
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, GsPropertyTest,
    ::testing::Combine(::testing::Values(1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u),
                       ::testing::Values(Index{2}, Index{3}, Index{8},
                                         Index{33}, Index{64})));

/// Proposer-optimality: every proposer weakly prefers the GS outcome to any
/// other stable matching (checked by exhaustive enumeration for small n).
TEST(GaleShapley, ProposerOptimalAgainstAllStableMatchings) {
  Rng rng(80);
  for (int trial = 0; trial < 30; ++trial) {
    const Index n = 5;
    const auto inst = gen::uniform(2, n, rng);
    const auto result = gs::gale_shapley_queue(inst, 0, 1);
    // Enumerate all perfect matchings (permutations) and keep the stable ones.
    std::vector<Index> perm(static_cast<std::size_t>(n));
    for (Index i = 0; i < n; ++i) perm[static_cast<std::size_t>(i)] = i;
    do {
      bool stable = true;
      for (Index p = 0; p < n && stable; ++p) {
        for (Index r = 0; r < n && stable; ++r) {
          if (perm[static_cast<std::size_t>(p)] == r) continue;
          const bool p_wants =
              inst.prefers({0, p}, {1, r}, {1, perm[static_cast<std::size_t>(p)]});
          // Find r's partner.
          Index rp = -1;
          for (Index q = 0; q < n; ++q) {
            if (perm[static_cast<std::size_t>(q)] == r) rp = q;
          }
          const bool r_wants = inst.prefers({1, r}, {0, p}, {0, rp});
          if (p_wants && r_wants) stable = false;
        }
      }
      if (stable) {
        for (Index p = 0; p < n; ++p) {
          const Index gs_rank =
              inst.rank_of({0, p}, {1, result.proposer_match[static_cast<std::size_t>(p)]});
          const Index other_rank =
              inst.rank_of({0, p}, {1, perm[static_cast<std::size_t>(p)]});
          EXPECT_LE(gs_rank, other_rank)
              << "proposer " << p << " does better in another stable matching";
        }
      }
    } while (std::next_permutation(perm.begin(), perm.end()));
  }
}

TEST(ParallelGs, MatchesSequentialAcrossThreadCountsAndChunks) {
  Rng rng(90);
  const auto inst = gen::uniform(2, 64, rng);
  const auto reference = gs::gale_shapley_queue(inst, 0, 1);
  for (const std::size_t threads : {1u, 2u, 7u}) {
    ThreadPool pool(threads);
    for (const std::size_t chunk : {1u, 3u, 64u, 1024u}) {
      const auto parallel = gs::gale_shapley_parallel(inst, 0, 1, pool, chunk);
      EXPECT_EQ(parallel.proposer_match, reference.proposer_match)
          << "threads=" << threads << " chunk=" << chunk;
    }
  }
}

TEST(ParallelGs, WorksOnNonAdjacentGenderPair) {
  Rng rng(91);
  const auto inst = gen::uniform(4, 10, rng);
  ThreadPool pool(2);
  const auto parallel = gs::gale_shapley_parallel(inst, 3, 1, pool);
  const auto reference = gs::gale_shapley_queue(inst, 3, 1);
  EXPECT_EQ(parallel.proposer_match, reference.proposer_match);
}

TEST(ParallelGs, RejectsZeroChunk) {
  Rng rng(92);
  const auto inst = gen::uniform(2, 4, rng);
  ThreadPool pool(1);
  EXPECT_THROW(gs::gale_shapley_parallel(inst, 0, 1, pool, 0),
               ContractViolation);
}

TEST(RoundEngine, RoundCountIsReasonable) {
  Rng rng(93);
  const auto inst = gen::uniform(2, 32, rng);
  const auto result = gs::gale_shapley_rounds(inst, 0, 1);
  EXPECT_GE(result.rounds, 1);
  EXPECT_LE(result.rounds, result.proposals);
}

TEST(StabilityCheck, DetectsBlockingPair) {
  // Build an unstable matching by hand on Example 1's second preferences:
  // (m, w'), (m', w) is stable; (m, w), (m', w') is stable; but under the
  // FIRST preference set, (m, w), (m', w') is blocked by (m', w).
  const auto inst = examples::example1_first();
  gs::GsResult fake;
  fake.proposer_gender = examples::kMen;
  fake.responder_gender = examples::kWomen;
  fake.proposer_match = {0, 1};  // (m, w), (m', w')
  fake.responder_match = {0, 1};
  EXPECT_FALSE(gs::is_stable_binding(inst, fake));
}

TEST(StabilityCheck, RejectsPartialMatching) {
  const auto inst = examples::example1_first();
  gs::GsResult fake;
  fake.proposer_gender = examples::kMen;
  fake.responder_gender = examples::kWomen;
  fake.proposer_match = {-1, 1};
  fake.responder_match = {-1, 1};
  EXPECT_FALSE(gs::is_stable_binding(inst, fake));
}

}  // namespace
}  // namespace kstable
