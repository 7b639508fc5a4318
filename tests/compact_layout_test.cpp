// Tests for the compact memory layout (ISSUE 7 tentpole): width-adaptive
// rank tables (prefs/compact_ranks.hpp), the extent-granular arena slab
// (prefs/arena.hpp), overflow-checked instance sizing, and the re-laid-width
// agreement contract.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>

#include "graph/binding_structure.hpp"
#include "gs/gale_shapley.hpp"
#include "gs/scan_gs.hpp"
#include "prefs/arena.hpp"
#include "prefs/compact_ranks.hpp"
#include "prefs/generators.hpp"
#include "prefs/kpartite.hpp"
#include "resilience/errors.hpp"
#include "util/rng.hpp"
#include "verify/diff_runner.hpp"

namespace kstable {
namespace {

// ------------------------------------------------------------- rank width --

TEST(CompactRanks, NaturalWidthSelection) {
  EXPECT_EQ(prefs::natural_rank_width(1), prefs::RankWidth::narrow16);
  EXPECT_EQ(prefs::natural_rank_width(255), prefs::RankWidth::narrow16);
  EXPECT_EQ(prefs::natural_rank_width(65535), prefs::RankWidth::narrow16);
  EXPECT_EQ(prefs::natural_rank_width(65536), prefs::RankWidth::wide32);
  EXPECT_EQ(prefs::natural_rank_width(1 << 20), prefs::RankWidth::wide32);
  EXPECT_EQ(prefs::rank_entry_bytes(prefs::RankWidth::narrow16), 2u);
  EXPECT_EQ(prefs::rank_entry_bytes(prefs::RankWidth::wide32), 4u);
}

TEST(CompactRanks, InstancePicksNarrowStorageForSmallN) {
  const KPartiteInstance inst(3, 16);
  EXPECT_EQ(inst.rank_width(), prefs::RankWidth::narrow16);
  // k·(k-1)·n·n cells per table; the dead same-gender diagonal rows of the
  // old k·k layout are gone.
  EXPECT_EQ(inst.cells(), std::size_t{3} * 2 * 16 * 16);
  EXPECT_EQ(inst.rank_bytes(), inst.cells() * 2);
  EXPECT_EQ(inst.pref_bytes(), inst.cells() * sizeof(Index));
}

TEST(CompactRanks, NarrowWidthRejectsLargeN) {
  EXPECT_THROW(KPartiteInstance(2, 70000, prefs::RankWidth::narrow16),
               ContractViolation);
}

// The narrow16 boundary, audited cell by cell: ranks live in [0, n), so at
// the largest narrow16 size (n = 65535) the maximum stored rank is 65534 —
// one below the u16 all-ones "unset" sentinel — and no valid rank can ever
// collide with the sentinel at ANY accepted size. n = 65536 is the first
// invalid size and must be rejected exactly there (the width REQUIRE runs
// before the arena allocation, so the throw is cheap even for sizes whose
// tables would be tens of GB).
TEST(CompactRanks, Narrow16BoundaryRanksCannotCollideWithSentinel) {
  static_assert(prefs::kUnsetRank<std::uint16_t> == 65535,
                "u16 sentinel is the all-ones value");
  static_assert(prefs::kUnsetRank<std::uint32_t> == 0xffffffffu,
                "u32 sentinel is the all-ones value");
  // Largest accepted narrow16 size: max rank 65534 != sentinel 65535.
  EXPECT_EQ(prefs::natural_rank_width(65535), prefs::RankWidth::narrow16);
  EXPECT_LT(65535 - 1, static_cast<std::int32_t>(
                           prefs::kUnsetRank<std::uint16_t>));
  // First invalid size, rejected exactly at the boundary.
  EXPECT_EQ(prefs::natural_rank_width(65536), prefs::RankWidth::wide32);
  EXPECT_THROW(KPartiteInstance(2, 65536, prefs::RankWidth::narrow16),
               ContractViolation);
  // The explicit-width ctor accepts the reverse override (wide32 at small n).
  EXPECT_NO_THROW(KPartiteInstance(2, 4, prefs::RankWidth::wide32));
}

TEST(CompactRanks, RelaidRoundTripPreservesContentsAndGeneration) {
  Rng rng(77);
  auto inst = gen::uniform(3, 9, rng);
  inst.swap_pref_entries({0, 2}, 1, 0, 5);
  inst.swap_pref_entries({2, 1}, 0, 3, 4);
  const auto gen_before = inst.generation();
  ASSERT_GT(gen_before, 0u);
  // narrow16 -> wide32 -> narrow16: contents and generation both survive (a
  // relaid copy is semantically equal at the moment of the copy, so the
  // staleness guard must treat it as the same generation).
  const auto wide = KPartiteInstance::relaid(inst, prefs::RankWidth::wide32);
  EXPECT_EQ(wide.generation(), gen_before);
  EXPECT_TRUE(wide == inst);
  const auto back = KPartiteInstance::relaid(wide, prefs::RankWidth::narrow16);
  EXPECT_EQ(back.generation(), gen_before);
  EXPECT_TRUE(back == inst);
  for (Index i = 0; i < 9; ++i) {
    for (Index j = 0; j < 9; ++j) {
      EXPECT_EQ(back.rank_of({0, i}, {1, j}), inst.rank_of({0, i}, {1, j}));
    }
  }
}

TEST(CompactRanks, RankRowViewReadsBothWidths) {
  Rng rng(1200);
  const auto narrow = gen::uniform(2, 20, rng);
  const auto wide = KPartiteInstance::relaid(narrow, prefs::RankWidth::wide32);
  for (Index i = 0; i < 20; ++i) {
    const auto nrow = narrow.rank_row({0, i}, 1);
    const auto wrow = wide.rank_row({0, i}, 1);
    for (Index j = 0; j < 20; ++j) {
      const auto idx = static_cast<std::size_t>(j);
      EXPECT_EQ(nrow[idx], wrow[idx]);
      EXPECT_EQ(nrow[idx], narrow.rank_of({0, i}, {1, j}));
    }
  }
}

// ------------------------------------------------------ overflow-safe size --

TEST(ArenaSizing, CheckedArithmeticThrowsInsteadOfWrapping) {
  const std::size_t huge = std::numeric_limits<std::size_t>::max() / 2;
  EXPECT_THROW(prefs::checked_mul(huge, 4), ParseError);
  EXPECT_THROW(prefs::checked_add(huge * 2, 2), ParseError);
  EXPECT_EQ(prefs::checked_mul(huge, 2), huge * 2);
  EXPECT_EQ(prefs::checked_add(0, 17), 17u);
}

TEST(ArenaSizing, GiantInstanceThrowsParseErrorNotUb) {
  // The old sizing multiplied k·k·n·n straight into size_t: for n near
  // INT32_MAX the product wraps and the constructor would have handed out
  // undersized tables. Now it throws before allocating anything.
  const Index n = std::numeric_limits<Index>::max();
  EXPECT_THROW(KPartiteInstance(4, n), ParseError);
}

TEST(ArenaSizing, SlabIsExtentRoundedAndAligned) {
  const KPartiteInstance inst(2, 10);
  EXPECT_EQ(inst.arena_bytes() % prefs::kArenaExtentBytes, 0u);
  EXPECT_GE(inst.arena_bytes(), inst.pref_bytes() + inst.rank_bytes());
  EXPECT_EQ(prefs::round_up(1, 4096), 4096u);
  EXPECT_EQ(prefs::round_up(4096, 4096), 4096u);
  EXPECT_EQ(prefs::round_up(0, 4096), 0u);
}

TEST(ArenaSizing, CopyAndMovePreserveContents) {
  Rng rng(1201);
  const auto inst = gen::uniform(3, 12, rng);
  KPartiteInstance copy = inst;  // deep slab copy
  EXPECT_TRUE(copy == inst);
  EXPECT_EQ(copy.rank_of({2, 3}, {0, 7}), inst.rank_of({2, 3}, {0, 7}));
  KPartiteInstance moved = std::move(copy);  // slab steal
  EXPECT_TRUE(moved == inst);
  const auto a = gs::gale_shapley_queue(inst, 0, 2);
  const auto b = gs::gale_shapley_queue(moved, 0, 2);
  EXPECT_EQ(a.proposer_match, b.proposer_match);
}

// ------------------------------------------------------- width agreement --

TEST(WidthAgreement, RelaidInstanceIsSemanticallyEqual) {
  Rng rng(1202);
  const auto narrow = gen::uniform(3, 24, rng);
  ASSERT_EQ(narrow.rank_width(), prefs::RankWidth::narrow16);
  const auto wide = KPartiteInstance::relaid(narrow, prefs::RankWidth::wide32);
  EXPECT_EQ(wide.rank_width(), prefs::RankWidth::wide32);
  EXPECT_TRUE(wide == narrow);
  EXPECT_TRUE(wide.is_complete());
  // And back again.
  const auto renarrowed =
      KPartiteInstance::relaid(wide, prefs::RankWidth::narrow16);
  EXPECT_TRUE(renarrowed == narrow);
  EXPECT_EQ(renarrowed.rank_width(), prefs::RankWidth::narrow16);
}

TEST(WidthAgreement, AllSequentialEnginesBitwiseIdenticalAcrossWidths) {
  Rng rng(1203);
  for (int trial = 0; trial < 10; ++trial) {
    const Index n = static_cast<Index>(2 + rng.below(50));
    const auto narrow = gen::uniform(3, n, rng);
    const auto wide =
        KPartiteInstance::relaid(narrow, prefs::RankWidth::wide32);
    for (const GenderEdge edge : {GenderEdge{0, 1}, GenderEdge{2, 0}}) {
      const auto q16 = gs::gale_shapley_queue(narrow, edge.a, edge.b);
      const auto q32 = gs::gale_shapley_queue(wide, edge.a, edge.b);
      EXPECT_EQ(q16.proposer_match, q32.proposer_match) << "n=" << n;
      EXPECT_EQ(q16.responder_match, q32.responder_match);
      EXPECT_EQ(q16.proposals, q32.proposals);
      const auto r16 = gs::gale_shapley_rounds(narrow, edge.a, edge.b);
      const auto r32 = gs::gale_shapley_rounds(wide, edge.a, edge.b);
      EXPECT_EQ(r16.proposer_match, r32.proposer_match);
      EXPECT_EQ(r16.rounds, r32.rounds);
    }
  }
}

TEST(WidthAgreement, DiffBatteryPassesOnBothWidths) {
  Rng rng(1204);
  const auto narrow = gen::uniform(3, 10, rng);
  const auto wide = KPartiteInstance::relaid(narrow, prefs::RankWidth::wide32);
  for (const KPartiteInstance* inst : {&narrow, &wide}) {
    const auto result = verify::run_battery(*inst, verify::Shape::kpartite,
                                            {}, verify::Dist::uniform, 1204);
    EXPECT_TRUE(result.mismatches.empty())
        << "width " << prefs::to_string(inst->rank_width()) << ": "
        << (result.mismatches.empty() ? ""
                                      : result.mismatches.front().to_json());
    EXPECT_GT(result.checks, 0);
  }
}

}  // namespace
}  // namespace kstable
