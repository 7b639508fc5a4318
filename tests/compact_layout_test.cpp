// Tests for the compact memory layout (docs/PERFORMANCE.md §Compact memory
// layout): uint16_t rank tables and their n limit, the extent-granular arena
// slab (prefs/arena.hpp) and overflow-checked instance sizing.
//
// This binary replaces the over-aligned operator new, which only the arena
// slab uses, with a counting hook, so a test can check that an oversized
// instance is rejected before its tables are allocated.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <new>
#include <string>

#include "gs/gale_shapley.hpp"
#include "prefs/arena.hpp"
#include "prefs/generators.hpp"
#include "prefs/kpartite.hpp"
#include "resilience/errors.hpp"
#include "util/rng.hpp"

namespace {
std::atomic<std::int64_t> g_slab_allocations{0};
}  // namespace

void* operator new(std::size_t size, std::align_val_t align) {
  g_slab_allocations.fetch_add(1, std::memory_order_relaxed);
  const auto a = static_cast<std::size_t>(align);
  // aligned_alloc wants a nonzero multiple of the alignment.
  if (void* p = std::aligned_alloc(a, (size / a + 1) * a)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace kstable {
namespace {

// -------------------------------------------------------------- rank table --

TEST(CompactRanks, InstancePicksNarrowStorageForSmallN) {
  Rng rng(1200);
  KPartiteInstance inst(3, 16);
  // k·(k-1)·n·n cells per table; the dead same-gender diagonal rows of the
  // old k·k layout are gone.
  EXPECT_EQ(inst.cells(), std::size_t{3} * 2 * 16 * 16);
  EXPECT_EQ(inst.rank_bytes(), inst.cells() * 2);
  EXPECT_EQ(inst.pref_bytes(), inst.cells() * sizeof(Index));
  // An unset row reads the marker; a set one reads rank_of's ranks.
  for (const std::uint16_t cell : inst.rank_row({1, 4}, 2)) {
    EXPECT_EQ(cell, KPartiteInstance::kUnsetRank);
  }
  inst.set_pref_list({1, 4}, 2, rng.permutation(16));
  const auto row = inst.rank_row({1, 4}, 2);
  for (Index j = 0; j < 16; ++j) {
    EXPECT_EQ(row[static_cast<std::size_t>(j)], inst.rank_of({1, 4}, {2, j}));
  }
}

TEST(CompactRanks, NarrowWidthRejectsLargeN) {
  EXPECT_THROW(KPartiteInstance(2, 70000), ParseError);
  // The first n past the limit throws before the slab is allocated (the
  // tables would take 64 GiB), and the error names the implicit backend.
  const std::int64_t before = g_slab_allocations.load();
  try {
    KPartiteInstance inst(2, KPartiteInstance::kMaxExplicitN + 1);
    ADD_FAILURE() << "n = 65536 was accepted";
  } catch (const ParseError& e) {
    EXPECT_NE(std::string(e.what()).find("implicit"), std::string::npos)
        << e.what();
  }
  EXPECT_EQ(g_slab_allocations.load() - before, 0);
}

// The n limit, audited cell by cell: ranks live in [0, n), so at the largest
// accepted size (n = 65535) the maximum stored rank is 65534 — one below the
// u16 all-ones "unset" sentinel — and no valid rank can ever collide with
// the sentinel at ANY accepted size. n = 65536 is the first invalid size and
// must be rejected exactly there.
TEST(CompactRanks, Narrow16BoundaryRanksCannotCollideWithSentinel) {
  static_assert(KPartiteInstance::kUnsetRank == 65535,
                "u16 sentinel is the all-ones value");
  static_assert(KPartiteInstance::kMaxExplicitN == 65535,
                "the largest explicit n stores ranks up to 65534");
  EXPECT_LT(KPartiteInstance::kMaxExplicitN - 1,
            static_cast<std::int32_t>(KPartiteInstance::kUnsetRank));
  EXPECT_THROW(KPartiteInstance(2, 65536), ParseError);
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

}  // namespace
}  // namespace kstable
