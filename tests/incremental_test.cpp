// Tests for src/incremental/: preference-churn mutations and the rematch()
// driver. The load-bearing property — after any in-place delta, the
// incremental path reproduces a cold solve of the mutated instance bit for
// bit, executing only the touched tree edges' cold work — is pinned here
// deterministically and at scale by the DiffRunner churn battery
// (kmatch verify --churn).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/binding.hpp"
#include "core/gs_cache.hpp"
#include "graph/binding_structure.hpp"
#include "gs/gale_shapley.hpp"
#include "incremental/mutation.hpp"
#include "incremental/rematch.hpp"
#include "observability/metrics.hpp"
#include "prefs/generators.hpp"
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
  // The changed-rank window is the two swapped ranks.
  EXPECT_EQ(delta.rows[0].lo, 0);
  EXPECT_EQ(delta.rows[0].hi, 3);
  EXPECT_TRUE(delta.rows[0].single_swap);

  auto expected = before;
  std::swap(expected[0], expected[3]);
  EXPECT_EQ(row_copy(inst, m, 1), expected);
  // Swapping keeps the list a permutation; ranks stay consistent.
  EXPECT_NO_THROW(inst.validate());
  EXPECT_EQ(inst.rank_of(m, {1, expected[0]}), 0);
  EXPECT_EQ(inst.rank_of(m, {1, expected[3]}), 3);

  // Swapping a rank with itself bumps the generation but moves nothing.
  const auto same = swap_entries(inst, m, 1, 2, 2);
  EXPECT_GT(same.rows[0].lo, same.rows[0].hi);
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
// Exact replay: the changed-rank window and the two tests built on it.

/// Rank of proposer p's previous match in p's current list over the
/// responders: the last rank of p's walk.
Index walk_end(const KPartiteInstance& inst, const gs::GsResult& gs, Index p) {
  return inst.rank_of({gs.proposer_gender, p},
                      {gs.responder_gender,
                       gs.proposer_match[static_cast<std::size_t>(p)]});
}

/// suitor[pos] = whether the proposer at rank pos of responder r's current
/// row proposed to r in `gs`: it ranks r at or above its own match.
std::vector<bool> suitor_ranks(const KPartiteInstance& inst,
                               const gs::GsResult& gs, Index r) {
  const MemberId responder{gs.responder_gender, r};
  const auto row = row_copy(inst, responder, gs.proposer_gender);
  std::vector<bool> suitor(row.size());
  for (std::size_t pos = 0; pos < row.size(); ++pos) {
    const Index q = row[pos];
    suitor[pos] = inst.rank_of({gs.proposer_gender, q}, responder) <=
                  walk_end(inst, gs, q);
  }
  return suitor;
}

/// The cold solve of the mutated instance equals `previous` in everything
/// rematch hands on: both match arrays and the proposal count.
void expect_same_result(const gs::GsResult& cold, const gs::GsResult& previous) {
  EXPECT_EQ(cold.proposer_match, previous.proposer_match);
  EXPECT_EQ(cold.responder_match, previous.responder_match);
  EXPECT_EQ(cold.proposals, previous.proposals);
}

TEST(Replay, ReplaceListWindowComesFromOneCompare) {
  Rng rng(31);
  auto inst = gen::uniform(3, 8, rng);
  const MemberId m{0, 3};
  const auto original = row_copy(inst, m, 2);

  // An identical list: the row is rewritten, but its window is empty, so a
  // previous result replays whatever it read.
  const auto identical = replace_list(inst, m, 2, original);
  ASSERT_EQ(identical.rows.size(), 1u);
  EXPECT_GT(identical.rows[0].lo, identical.rows[0].hi);
  EXPECT_FALSE(identical.rows[0].single_swap);
  EXPECT_EQ(row_copy(inst, m, 2), original);
  const auto gs02 = gs::gale_shapley_queue(inst, 0, 2);
  EXPECT_TRUE(replays(inst, gs02, identical));

  // Two changed ranks of a permutation are one swap.
  auto swapped = original;
  std::swap(swapped[2], swapped[5]);
  const auto swap_delta = replace_list(inst, m, 2, swapped);
  EXPECT_EQ(swap_delta.rows[0].lo, 2);
  EXPECT_EQ(swap_delta.rows[0].hi, 5);
  EXPECT_TRUE(swap_delta.rows[0].single_swap);

  // A rotation of ranks 1..4 moves four entries: the window, not a swap.
  auto rotated = swapped;
  std::rotate(rotated.begin() + 1, rotated.begin() + 2, rotated.begin() + 5);
  const auto rotate_delta = replace_list(inst, m, 2, rotated);
  EXPECT_EQ(rotate_delta.rows[0].lo, 1);
  EXPECT_EQ(rotate_delta.rows[0].hi, 4);
  EXPECT_FALSE(rotate_delta.rows[0].single_swap);
}

TEST(Replay, MergeTakesTheUnionOfWindows) {
  Rng rng(32);
  auto inst = gen::uniform(3, 8, rng);
  auto delta = swap_entries(inst, {0, 1}, 1, 1, 2);
  delta.merge(swap_entries(inst, {2, 0}, 1, 6, 7));  // another row
  delta.merge(swap_entries(inst, {0, 1}, 1, 5, 6));  // the first row again
  ASSERT_EQ(delta.rows.size(), 2u);
  EXPECT_EQ(delta.rows[0].lo, 1);
  EXPECT_EQ(delta.rows[0].hi, 6);
  EXPECT_FALSE(delta.rows[0].single_swap);  // two swaps are not one
  EXPECT_EQ(delta.rows[1].lo, 6);
  EXPECT_EQ(delta.rows[1].hi, 7);
  EXPECT_TRUE(delta.rows[1].single_swap);

  // An empty window is the union's identity.
  delta.merge(swap_entries(inst, {2, 0}, 1, 4, 4));
  EXPECT_EQ(delta.rows[1].lo, 6);
  EXPECT_EQ(delta.rows[1].hi, 7);
}

TEST(Replay, ProposerSwapBelowTheWalkReplaysAndReachingItResolves) {
  Rng rng(33);
  const auto inst = gen::uniform(3, 8, rng);
  const auto previous = gs::gale_shapley_queue(inst, 0, 1);
  // A proposer whose walk 0..end leaves two ranks below it.
  Index p = 0;
  while (p < 8 && !(walk_end(inst, previous, p) >= 1 &&
                    walk_end(inst, previous, p) <= 5)) {
    ++p;
  }
  ASSERT_LT(p, 8) << "no proposer with a mid-list walk in this instance";
  const Index end = walk_end(inst, previous, p);

  {  // Both ranks below the walk: the walk is intact, previous is exact.
    auto mutated = inst;
    const auto delta = swap_entries(mutated, {0, p}, 1, end + 1, 7);
    EXPECT_TRUE(replays(mutated, previous, delta));
    expect_same_result(gs::gale_shapley_queue(mutated, 0, 1), previous);
  }
  // A window that starts inside the walk, or moves the match, re-solves.
  for (const auto& [lo, hi] : {std::pair<Index, Index>{0, end + 1},
                               std::pair<Index, Index>{end, end + 1},
                               std::pair<Index, Index>{end - 1, end}}) {
    auto mutated = inst;
    const auto delta = swap_entries(mutated, {0, p}, 1, lo, hi);
    EXPECT_FALSE(replays(mutated, previous, delta)) << lo << ".." << hi;
  }
}

TEST(Replay, ResponderWindowCountsInclusiveSuitors) {
  // Find a responder row (gender 1 over gender 0, n = 16) with two adjacent
  // suitors s1 < s2, a non-suitor x before s1 and a non-suitor y after s2,
  // and two adjacent non-suitors somewhere: enough room for every case.
  constexpr Index n = 16;
  for (std::uint64_t seed = 34; seed < 134; ++seed) {
    Rng rng(seed);
    const auto inst = gen::uniform(3, n, rng);
    const auto previous = gs::gale_shapley_queue(inst, 0, 1);
    for (Index r = 0; r < n; ++r) {
      const auto suitor = suitor_ranks(inst, previous, r);
      std::vector<Index> at;
      for (Index pos = 0; pos < n; ++pos) {
        if (suitor[static_cast<std::size_t>(pos)]) at.push_back(pos);
      }
      if (at.size() < 2 || at[0] == 0 || at[1] == n - 1) continue;
      const Index s1 = at[0];
      const Index s2 = at[1];
      std::optional<Index> free_pair;
      for (Index pos = 0; pos + 1 < n && !free_pair; ++pos) {
        if (!suitor[static_cast<std::size_t>(pos)] &&
            !suitor[static_cast<std::size_t>(pos + 1)]) {
          free_pair = pos;
        }
      }
      if (!free_pair || suitor[static_cast<std::size_t>(s1 - 1)] ||
          s2 + 1 >= n || suitor[static_cast<std::size_t>(s2 + 1)]) {
        continue;
      }
      const MemberId row{1, r};
      const auto verdict = [&](Index lo, Index hi) {
        auto mutated = inst;
        const auto delta = swap_entries(mutated, row, 0, lo, hi);
        const bool replayed = replays(mutated, previous, delta);
        if (replayed) {
          expect_same_result(gs::gale_shapley_queue(mutated, 0, 1), previous);
        }
        return replayed;
      };
      // 0 suitors in the window.
      EXPECT_TRUE(verdict(*free_pair, *free_pair + 1));
      // 1 suitor: it moves, but past no other suitor.
      EXPECT_TRUE(verdict(s1 - 1, s1));
      // 2 suitors, one at an end: their order flips.
      EXPECT_FALSE(verdict(s1, s2));
      EXPECT_FALSE(verdict(s1 - 1, s2));
      // 2 suitors strictly inside a single swap of non-suitors: no suitor
      // moved.
      EXPECT_TRUE(verdict(s1 - 1, s2 + 1));
      // The same window rewritten as a list that keeps the two suitors in
      // order (suitors first, then the non-suitors reversed): the window
      // alone cannot tell that from a reordering, so the row re-solves.
      auto mutated = inst;
      auto list = row_copy(mutated, row, 0);
      std::vector<Index> window{list[static_cast<std::size_t>(s1)],
                                list[static_cast<std::size_t>(s2)]};
      for (Index pos = s2 + 1; pos >= s1 - 1; --pos) {
        if (pos != s1 && pos != s2) {
          window.push_back(list[static_cast<std::size_t>(pos)]);
        }
      }
      std::copy(window.begin(), window.end(), list.begin() + s1 - 1);
      const auto delta = replace_list(mutated, row, 0, list);
      EXPECT_FALSE(delta.rows[0].single_swap);
      EXPECT_FALSE(replays(mutated, previous, delta));
      return;
    }
  }
  FAIL() << "no responder row with the needed suitor layout";
}

/// One seeded edit on gender pair (0, 1): a single swap in a proposer row
/// (0 over 1) or a responder row (1 over 0), sometimes merged with a second
/// edit or replaced by a whole-list rewrite.
struct PairEdit {
  MutationDelta delta;
  bool single_swap = false;
  MemberId member{};
  std::vector<Index> old_row;  ///< the edited row before the first edit
};

PairEdit edit_pair(KPartiteInstance& inst, Rng& rng, std::uint64_t shape) {
  const Index n = inst.per_gender();
  const auto draw = [&](std::uint64_t bound) {
    return static_cast<Index>(rng.below(bound));
  };
  const bool proposer_side = rng.chance(0.5);
  const MemberId m{proposer_side ? 0 : 1, draw(static_cast<std::uint64_t>(n))};
  const Gender target = proposer_side ? 1 : 0;
  PairEdit edit;
  edit.member = m;
  edit.old_row = row_copy(inst, m, target);
  if (shape % 8 == 7) {
    edit.delta = replace_list(inst, m, target,
                              rng.permutation(static_cast<Index>(n)));
    return edit;
  }
  const Index a = draw(static_cast<std::uint64_t>(n));
  Index b = draw(static_cast<std::uint64_t>(n - 1));
  b += b >= a ? 1 : 0;
  edit.delta = swap_entries(inst, m, target, a, b);
  edit.single_swap = true;
  if (shape % 4 == 3) {
    const MemberId other{draw(2), draw(static_cast<std::uint64_t>(n))};
    const Index c = draw(static_cast<std::uint64_t>(n));
    edit.delta.merge(swap_entries(inst, other, 1 - other.gender, c,
                                  (c + 1) % n));
    edit.single_swap = false;
  }
  return edit;
}

/// A GS engine by value: gs::gale_shapley_queue or gs::gale_shapley_rounds.
using Engine = gs::GsResult (*)(const KPartiteInstance&, Gender, Gender,
                                const gs::GsOptions&);

gs::GsResult solve(Engine engine, const KPartiteInstance& inst,
                   std::vector<gs::ProposalEvent>& trace) {
  trace.clear();
  gs::GsOptions options;
  options.trace = &trace;
  return engine(inst, 0, 1, options);
}

TEST(Replay, VerdictIsSoundAndExactOnProposerSwaps) {
  // Whenever replays() says "replay", the cold solve of the mutated
  // instance is the previous execution event for event. Whenever it says
  // "re-solve" on a single swap, the swap really reached what GS read: a
  // proposer's walk changes (so the cold trace differs), or two of a
  // responder's inclusive suitors trade places in its order.
  const struct {
    const char* name;
    Engine engine;
  } engines[] = {{"queue", &gs::gale_shapley_queue},
                 {"rounds", &gs::gale_shapley_rounds}};
  for (const auto& [name, engine] : engines) {
    for (const Index n : {Index{8}, Index{64}}) {
      int replayed = 0;
      int resolved = 0;
      for (std::uint64_t seed = 0; seed < 200; ++seed) {
        SCOPED_TRACE(testing::Message() << name << " n=" << n
                                        << " seed=" << seed);
        Rng rng(seed * 7919 + static_cast<std::uint64_t>(n));
        auto inst = gen::uniform(3, n, rng);
        std::vector<gs::ProposalEvent> before;
        std::vector<gs::ProposalEvent> after;
        const auto previous = solve(engine, inst, before);
        const PairEdit edit = edit_pair(inst, rng, seed);
        const bool replay = replays(inst, previous, edit.delta);
        const auto cold = solve(engine, inst, after);
        if (replay) {
          ++replayed;
          expect_same_result(cold, previous);
          EXPECT_EQ(after, before);
          continue;
        }
        ++resolved;
        if (!edit.single_swap) continue;  // the window test is conservative
        if (edit.member.gender == 0) {
          EXPECT_NE(after, before);
          continue;
        }
        // Responder row: some pair of inclusive suitors changed order.
        const auto suitor = suitor_ranks(inst, previous, edit.member.index);
        const auto row = row_copy(inst, edit.member, 0);
        std::vector<Index> old_order;
        std::vector<Index> new_order;
        for (std::size_t pos = 0; pos < row.size(); ++pos) {
          if (suitor[pos]) new_order.push_back(row[pos]);
        }
        for (const Index q : edit.old_row) {
          if (std::find(new_order.begin(), new_order.end(), q) !=
              new_order.end()) {
            old_order.push_back(q);
          }
        }
        EXPECT_NE(old_order, new_order);
      }
      // Both verdicts occur at both sizes, or the property says little.
      EXPECT_GT(replayed, 0) << name << " n=" << n;
      EXPECT_GT(resolved, 0) << name << " n=" << n;
    }
  }
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
    // every edge. Each tree edge gets exactly one verdict.
    EXPECT_LT(report.slots_invalidated, static_cast<std::size_t>(k - 1));
    EXPECT_LE(report.slots_invalidated, 2u);
    EXPECT_EQ(report.edges_reused + report.edges_replayed +
                  report.edges_warm + report.edges_cold,
              k - 1);
    EXPECT_LT(report.warm_executed_proposals, cold.total_proposals);
    EXPECT_EQ(*cache.bound_generation(), inst.generation());
    previous = cold;  // next step reuses this step's ground truth
  }
}

TEST(Rematch, ExecutedProposalsAreTheTouchedEdgesColdWork) {
  // What rematch executes is exactly the cold queue-engine work of the tree
  // edges the delta touched and whose previous result fails replay:
  // untouched and replayed edges come from `previous` (no cache) or from
  // cache hits, and neither adds a proposal.
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
        EXPECT_TRUE(report.binding_skipped);
        EXPECT_EQ(report.result.matching(),
                  core::iterative_binding(inst, tree, {}).matching());
        previous = report.result;
      }
      for (int step = 0; step < 12; ++step) {
        auto delta = random_mutation(inst, rng);
        if (step % 3 == 2) delta.merge(random_mutation(inst, rng));
        const auto report = rematch(inst, tree, previous, delta, options);
        std::int64_t resolved = 0;
        std::int64_t cold_work = 0;
        for (std::size_t i = 0; i < tree.edges().size(); ++i) {
          const GenderEdge e = tree.edges()[i];
          if (!delta.touches(e.a, e.b) ||
              replays(inst, previous.edge_results[i], delta)) {
            continue;
          }
          ++resolved;
          cold_work += gs::gale_shapley_queue(inst, e.a, e.b).proposals;
        }
        EXPECT_EQ(report.edges_warm, resolved) << "step " << step;
        EXPECT_EQ(report.warm_executed_proposals, cold_work) << "step " << step;
        EXPECT_EQ(report.result.executed_proposals, cold_work);
        EXPECT_EQ(report.binding_skipped, resolved == 0);
        previous = report.result;
      }
    }
  }
}

/// A swap of the last two ranks of a gender-0 proposer whose walk stops
/// above them: on the path tree it touches only edge (0, 1), and misses
/// what GS(0, 1) read.
MutationDelta swap_below_a_walk(KPartiteInstance& inst,
                                const core::BindingResult& previous) {
  const gs::GsResult& edge01 = previous.edge_results[0];
  const Index n = inst.per_gender();
  for (Index p = 0; p < n; ++p) {
    if (walk_end(inst, edge01, p) < n - 2) {
      return swap_entries(inst, {0, p}, 1, n - 2, n - 1);
    }
  }
  throw ContractViolation("every proposer walked to the end of its list");
}

TEST(Rematch, ReplayKeepsItsCacheSlotAndSkipsAlgorithmOne) {
  Rng rng(16);
  auto inst = gen::uniform(3, 16, rng);
  const auto tree = trees::path(3);
  core::GsEdgeCache cache(inst);
  core::BindingOptions init;
  init.cache = &cache;
  const auto previous = core::iterative_binding(inst, tree, init);
  ASSERT_EQ(cache.size(), 2u);

  const auto delta = swap_below_a_walk(inst, previous);
  RematchOptions options;
  options.cache = &cache;
  const auto report = rematch(inst, tree, previous, delta, options);

  EXPECT_TRUE(report.binding_skipped);
  EXPECT_EQ(report.edges_replayed, 1);
  EXPECT_EQ(report.edges_reused, 1);
  EXPECT_EQ(report.edges_warm, 0);
  EXPECT_EQ(report.result.executed_proposals, 0);
  // The replayed orientation (0, 1) kept its slot; (1, 0) held nothing.
  EXPECT_EQ(report.slots_invalidated, 0u);
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(*cache.bound_generation(), inst.generation());

  const auto cold = core::iterative_binding(inst, tree, {});
  EXPECT_EQ(report.result.matching(), cold.matching());
  EXPECT_EQ(report.result.total_proposals, cold.total_proposals);
  // The kept slot serves the next cached solve, and it is exact.
  const auto cached = core::iterative_binding(inst, tree, init);
  EXPECT_EQ(cached.cache_hits, 2);
  EXPECT_EQ(cached.matching(), cold.matching());
}

TEST(Rematch, ReplayedEditBumpsTheReplayCounters) {
  auto& registry = obs::MetricsRegistry::global();
  auto& replayed = registry.counter("rematch.edges_replayed");
  auto& resolved = registry.counter("rematch.edges_resolved");
  auto& skipped = registry.counter("rematch.binding_skipped");
  const std::int64_t replayed0 = replayed.value();
  const std::int64_t resolved0 = resolved.value();
  const std::int64_t skipped0 = skipped.value();

  Rng rng(17);
  auto inst = gen::uniform(3, 16, rng);
  const auto tree = trees::path(3);
  const auto previous = core::iterative_binding(inst, tree, {});
  const auto delta = swap_below_a_walk(inst, previous);
  const auto report = rematch(inst, tree, previous, delta);

  ASSERT_EQ(report.edges_replayed, 1);
  EXPECT_EQ(replayed.value(), replayed0 + 1);
  EXPECT_EQ(resolved.value(), resolved0);
  EXPECT_EQ(skipped.value(), skipped0 + 1);
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

TEST(Rematch, TamperedPreviousEdgeFailsTheoremTwo) {
  // rematch trusts `previous` verbatim for the edges a delta leaves alone.
  // A tampered partner there (proposer_match no longer the inverse of
  // responder_match) must stop the binding at Theorem 2's gate, not come
  // back as a k-ary matching.
  const Gender k = 4;
  Rng rng(19);
  auto inst = gen::uniform(k, 16, rng);
  const auto tree = trees::path(k);
  auto previous = core::iterative_binding(inst, tree, {});
  auto& untouched = previous.edge_results[2].proposer_match;  // edge (2, 3)
  std::swap(untouched[0], untouched[1]);
  // Rank 0 of a gender-0 row over gender 1 lies on every walk, so tree edge
  // (0, 1) re-solves and Algorithm 1 runs.
  const auto delta = swap_entries(inst, {0, 0}, 1, 0, 1);
  try {
    (void)rematch(inst, tree, previous, delta);
    ADD_FAILURE() << "rematch accepted a tampered previous result";
  } catch (const ContractViolation& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("spanning-tree binding produced inconsistent classes"),
              std::string::npos)
        << what;
    EXPECT_NE(what.find("binding edge 2 = GS(2,3) is not a perfect matching"),
              std::string::npos)
        << what;
  }
}

TEST(Rematch, EmptyCacheIsFilledFromPreviousAtZeroProposals) {
  // A fresh cache misses on every tree edge: each reused edge publishes its
  // previous result at no cost and the re-solved edge its cold work, so the
  // next cached solve of the tree is all hits.
  const Gender k = 4;
  Rng rng(18);
  auto inst = gen::uniform(k, 16, rng);
  const auto tree = trees::path(k);
  const auto previous = core::iterative_binding(inst, tree, {});
  // Rank 0 of a gender-0 row over gender 1 lies on every walk, so tree edge
  // (0, 1) re-solves; the other edges are untouched.
  const auto delta = swap_entries(inst, {0, 0}, 1, 0, 1);
  core::GsEdgeCache cache(inst);
  RematchOptions options;
  options.cache = &cache;
  const auto report = rematch(inst, tree, previous, delta, options);

  EXPECT_FALSE(report.binding_skipped);
  EXPECT_EQ(report.edges_warm, 1);
  EXPECT_EQ(report.edges_reused, k - 2);
  EXPECT_EQ(report.result.cache_misses, k - 1);
  EXPECT_EQ(report.result.cache_hits, 0);
  EXPECT_EQ(report.result.executed_proposals,
            gs::gale_shapley_queue(inst, 0, 1).proposals);
  EXPECT_EQ(report.warm_executed_proposals, report.result.executed_proposals);
  EXPECT_EQ(cache.size(), static_cast<std::size_t>(k - 1));

  core::BindingOptions cached_options;
  cached_options.cache = &cache;
  const auto cached = core::iterative_binding(inst, tree, cached_options);
  EXPECT_EQ(cached.cache_hits, k - 1);
  EXPECT_EQ(cached.cache_misses, 0);
  EXPECT_EQ(cached.executed_proposals, 0);
  const auto cold = core::iterative_binding(inst, tree, {});
  EXPECT_EQ(cached.matching(), cold.matching());
  EXPECT_EQ(report.result.matching(), cold.matching());
}

}  // namespace
}  // namespace kstable::incremental
