#include "gs/parallel_gs.hpp"

#include <atomic>
#include <cstdint>
#include <vector>

#include "observability/metrics.hpp"
#include "prefs/implicit/pref_view.hpp"
#include "util/check.hpp"
#include "util/timer.hpp"

namespace kstable::gs {

namespace {

/// Packs (rank, proposer) so that numerically smaller = better offer.
constexpr std::uint64_t pack(std::int32_t rank, Index proposer) {
  return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(rank)) << 32) |
         static_cast<std::uint32_t>(proposer);
}
constexpr Index unpack_proposer(std::uint64_t slot) {
  return static_cast<Index>(slot & 0xffffffffULL);
}
constexpr std::uint64_t kEmptySlot = ~0ULL;

/// Lock-free fetch-min on a responder slot.
void offer(std::atomic<std::uint64_t>& slot, std::uint64_t packed) {
  std::uint64_t current = slot.load(std::memory_order_relaxed);
  while (packed < current &&
         !slot.compare_exchange_weak(current, packed,
                                     std::memory_order_acq_rel,
                                     std::memory_order_relaxed)) {
  }
}

}  // namespace

GsResult gale_shapley_parallel(const KPartiteInstance& inst, Gender i, Gender j,
                               ThreadPool& pool, std::size_t chunk,
                               resilience::ExecControl* control) {
  const WallTimer timer;
  check_genders(inst, i, j);
  KSTABLE_REQUIRE(chunk >= 1, "chunk must be >= 1");
  const Index n = inst.per_gender();

  std::vector<std::atomic<std::uint64_t>> slots(static_cast<std::size_t>(n));
  for (auto& slot : slots) slot.store(kEmptySlot, std::memory_order_relaxed);

  std::vector<Index> next_choice(static_cast<std::size_t>(n), Index{0});
  std::vector<Index> free_list(static_cast<std::size_t>(n));
  for (Index p = 0; p < n; ++p) free_list[static_cast<std::size_t>(p)] = p;

  GsResult result;
  reset_result(result, i, j, n);

  // One backend + width dispatch up front; the per-chunk tasks then run the
  // monomorphized view (pure reads, safe to share across the pool — the
  // implicit generator evaluates statelessly).
  prefs::with_pref_view(inst, i, j, [&](const auto view) {
  while (!free_list.empty()) {
    ++result.rounds;
    result.proposals += static_cast<std::int64_t>(free_list.size());
    // Charged at the barrier, before dispatch: the abort unwinds with no
    // tasks in flight.
    if (control != nullptr) {
      control->charge(static_cast<std::int64_t>(free_list.size()));
    }

    const std::size_t tasks = (free_list.size() + chunk - 1) / chunk;
    pool.for_each_index(tasks, [&](std::size_t t) {
      const std::size_t begin = t * chunk;
      const std::size_t end = std::min(begin + chunk, free_list.size());
      for (std::size_t idx = begin; idx < end; ++idx) {
        const Index p = free_list[idx];
        // Only this task touches p's proposal pointer (free_list is disjoint
        // across chunks), so no synchronization is needed here.
        const Index r =
            view.pref_at(p, next_choice[static_cast<std::size_t>(p)]++);
        const std::int32_t rank =
            static_cast<std::int32_t>(view.rank_in(view.resp_row(r), p));
        offer(slots[static_cast<std::size_t>(r)], pack(rank, p));
      }
    });

    // Barrier passed: derive the new engagement state from the slots. A
    // proposer is engaged iff it currently owns some responder's slot.
    std::fill(result.proposer_match.begin(), result.proposer_match.end(),
              Index{-1});
    for (Index r = 0; r < n; ++r) {
      const std::uint64_t slot =
          slots[static_cast<std::size_t>(r)].load(std::memory_order_relaxed);
      if (slot == kEmptySlot) {
        result.responder_match[static_cast<std::size_t>(r)] = -1;
        continue;
      }
      const Index p = unpack_proposer(slot);
      result.responder_match[static_cast<std::size_t>(r)] = p;
      result.proposer_match[static_cast<std::size_t>(p)] = r;
    }
    free_list.clear();
    for (Index p = 0; p < n; ++p) {
      if (result.proposer_match[static_cast<std::size_t>(p)] < 0) {
        KSTABLE_ASSERT(next_choice[static_cast<std::size_t>(p)] < n);
        free_list.push_back(p);
      }
    }
  }
  });

  finish_engine(inst, "gs.parallel", timer.millis(), result);
  KSTABLE_COUNTER_ADD("gs.parallel.solves", 1);
  KSTABLE_COUNTER_ADD("gs.parallel.proposals", result.proposals);
  KSTABLE_COUNTER_ADD("gs.parallel.rounds", result.rounds);
  return result;
}

}  // namespace kstable::gs
