// GsEdgeCache: a per-instance memo of binary binding outcomes.
//
// Every spanning binding tree over k genders draws its edges from the same
// k(k-1)/2 gender-pair set (2·C(k,2) = k(k-1) oriented edges), and a per-edge
// GsResult is a pure function of (instance, oriented edge, engine): both
// binding engines (queue, rounds) are deterministic and GS is confluent.
// Multi-tree drivers — tree_selection probes, the E15 ablation sweep, the
// `best` tree scan (core/tree_sweep), solve_with_fallback's retry ladder —
// therefore recompute identical matchings over and over. Memoizing them
// collapses O(#trees·(k-1)) GS runs to at most k(k-1) per instance, and the
// cache is semantically invisible: cached and uncached solves produce
// bitwise-identical matchings (property-tested over all k^(k-2) trees).
//
// Key and invalidation rules (docs/INCREMENTAL.md):
//   * The key is (proposer gender, responder gender, engine): two engine
//     slots per oriented edge. Orientation matters — GS(a, b) is
//     proposer-optimal for a, GS(b, a) for b.
//   * A cache is bound to ONE KPartiteInstance. It holds no reference to the
//     instance; the caller guarantees the pairing (new instance => new
//     cache). The instance-bound constructor additionally records the
//     instance's generation() so that check_instance() — called by
//     run_binding before every cached lookup — throws std::logic_error
//     instead of serving a result memoized against preference rows that have
//     since mutated. The Gender constructor keeps the guard off for callers
//     that own the pairing themselves (tests, bench harnesses).
//   * KPartiteInstance is NO LONGER immutable: src/incremental/ mutates
//     preference rows in place. After a mutation the owner must either
//     clear() everything or invalidate() exactly the oriented edges the
//     delta touched (both orientations of every changed (observer gender,
//     target gender) pair) and then rebind() to the instance's new
//     generation. invalidate() resets only that edge's kEngineCount slots,
//     so untouched edges keep replaying for free — the targeted-invalidation
//     half of incremental::rematch().
//
// Threading contract: a cache is used by one thread at a time, like
// GsWorkspace. Every shipped owner keeps it so — `kmatch serve` builds one
// per request on the worker that runs it, incremental::rematch keeps one per
// market on the calling thread, BatchSolver one per item, and
// execute_binding attaches none. Nothing is locked.
//
// Counting contract (what the gs_cache tests pin down): every lookup counts
// exactly one hit or one miss, and a miss is counted only when its compute
// returned and was stored, so misses == size() until the first invalidate()
// or clear(). A compute that throws (deadline, cancellation, injected fault)
// stores nothing and counts nothing: the next lookup of that key computes.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "core/binding.hpp"
#include "gs/gale_shapley.hpp"

namespace kstable::core {

class GsEdgeCache {
 public:
  /// Number of distinct GsEngine values the slot table is sized for. Tied to
  /// the enum's sentinel: adding a GsEngine without growing this constant is
  /// a compile error, not a silent slot-aliasing bug.
  static constexpr std::size_t kEngineCount = kGsEngineCount;
  static_assert(kEngineCount == kGsEngineCount,
                "GsEdgeCache slot table must cover every GsEngine value; "
                "update kGsEngineCount (core/binding.hpp) and kEngineCount "
                "together when adding an engine");
  static_assert(static_cast<std::size_t>(GsEngine::rounds) ==
                    kGsEngineCount - 1,
                "kGsEngineCount is out of sync with the last GsEngine "
                "enumerator");

  /// Creates an empty cache for instances with `k` genders. The staleness
  /// guard is OFF: the caller owns the instance/cache pairing (tests and
  /// bench harnesses that drive the slot machinery directly).
  explicit GsEdgeCache(Gender k);

  /// Creates an empty cache bound to `inst`: records genders() AND
  /// generation(), arming check_instance() against mutation-under-cache.
  /// Preferred for any instance the incremental mutation API may touch.
  explicit GsEdgeCache(const KPartiteInstance& inst);

  /// Staleness guard: throws std::logic_error (ContractViolation) when the
  /// cache is generation-bound and `inst` does not match the bound shape and
  /// generation. A cache from the Gender constructor only checks the gender
  /// count. Cheap (two integer compares) — run_binding calls it on every
  /// cached edge lookup.
  void check_instance(const KPartiteInstance& inst) const;

  /// Targeted invalidation: resets the kEngineCount slots of ONE oriented
  /// edge back to empty and returns how many of them held a ready result.
  /// References to the edge's entries dangle afterwards. A preference delta
  /// on rows between genders a and b must invalidate BOTH orientations (a,b)
  /// and (b,a) — responder preferences decide accept/reject, so either
  /// orientation's memo is stale (incremental::rematch does this). Counters
  /// are NOT reset: hits/misses keep accumulating across incremental steps.
  std::size_t invalidate(GenderEdge edge);

  /// Re-arms the staleness guard against `inst`'s current generation after
  /// the owner has invalidated (or cleared) every stale edge. Requires the
  /// same gender count; turns an unbound cache into a bound one.
  void rebind(const KPartiteInstance& inst);

  /// Generation recorded at construction/rebind (nullopt = guard off).
  [[nodiscard]] std::optional<std::uint64_t> bound_generation() const noexcept {
    return bound_generation_;
  }

  /// Returns the cached result, or runs `compute` (a callable returning
  /// gs::GsResult) and caches what it returns. `hit` (optional) reports
  /// whether the result was memoized. If `compute` throws, the slot stays
  /// empty and the exception propagates, so the key of an aborted ladder
  /// attempt is computed afresh by the next lookup. The returned reference is
  /// valid until the key is invalidated or the cache cleared.
  template <class Compute>
  const gs::GsResult& get_or_compute(GenderEdge edge, GsEngine engine,
                                     Compute&& compute, bool* hit = nullptr) {
    std::optional<gs::GsResult>& entry = slots_[slot(edge, engine)];
    if (hit != nullptr) *hit = entry.has_value();
    if (entry.has_value()) {
      count_hit();
    } else {
      store(edge, entry, compute());
    }
    return *entry;
  }

  struct Stats {
    std::int64_t hits = 0;
    std::int64_t misses = 0;
  };
  [[nodiscard]] Stats stats() const noexcept { return stats_; }

  /// Drops every entry and zeroes the counters (the cache stays bound to the
  /// same instance shape and generation — pair with rebind() after a
  /// mutation). Returns how many ready entries were dropped, the number
  /// invalidate() is measured against (the churn battery asserts targeted
  /// invalidation resets strictly fewer slots on single-edge deltas, k >= 3).
  std::size_t clear();

  [[nodiscard]] Gender genders() const noexcept { return k_; }

  /// Entries currently stored (distinct (edge, engine) keys).
  [[nodiscard]] std::size_t size() const;

 private:
  [[nodiscard]] std::size_t slot(GenderEdge edge, GsEngine engine) const;
  void count_hit();
  /// Checks `result`'s genders against `edge`, stores it and counts a miss.
  void store(GenderEdge edge, std::optional<gs::GsResult>& entry,
             gs::GsResult&& result);

  Gender k_;
  /// Instance generation the guard is armed against (nullopt = unbound
  /// cache, guard off).
  std::optional<std::uint64_t> bound_generation_;
  /// k·k·kEngineCount slots, indexed by slot(); the diagonal stays empty.
  std::vector<std::optional<gs::GsResult>> slots_;
  Stats stats_;
};

}  // namespace kstable::core
