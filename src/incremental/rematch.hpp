// rematch(): one-call incremental re-stabilization (docs/INCREMENTAL.md).
//
// The driver that ties the churn pipeline together. Given the mutated
// instance, the binding tree, the PREVIOUS solve's BindingResult, and the
// MutationDelta bridging the two generations, it:
//   1. gives every tree edge one verdict: untouched (no changed row over its
//      gender pair), replayed (its rows changed, but outside the region
//      Gale-Shapley read, so the previous result is exact), or re-solved;
//   2. invalidates exactly the stale cache slots (both orientations of every
//      touched gender pair, except a replayed tree edge's, whose slot is
//      exact) and rebinds the cache to the new generation, or clear()s
//      everything when the shape changed;
//   3. returns `previous` as it is when no tree edge needs a re-solve, and
//      otherwise walks the tree with core::bind_edge, handing each untouched
//      or replayed edge its previous result as known (reused verbatim) and
//      re-solving the rest cold with the selected engine, then finishes
//      through core::finish_binding like every Algorithm 1 driver;
//   4. reports exact work accounting: slots invalidated, per-verdict edge
//      counts, and the proposals actually executed.
// The resulting matching is bitwise-identical to a cold solve of the mutated
// instance: a cold solve of a re-solved edge is exact, an untouched edge's
// rows did not change, and a replayed edge's previous execution is a valid
// Gale-Shapley execution on the new rows, which GS confluence makes exact
// (pinned by the DiffRunner churn battery).
#pragma once

#include <cstddef>
#include <cstdint>

#include "core/binding.hpp"
#include "core/gs_cache.hpp"
#include "graph/binding_structure.hpp"
#include "incremental/mutation.hpp"

namespace kstable::incremental {

/// True iff the delta's rows over gender pair (a, b) all missed the region
/// that `previous` — GS(a proposes, b responds) solved on the pre-delta
/// instance — read, so `previous` is still the exact result on `inst` (the
/// post-delta instance, explicit backend). Two tests, one per changed row:
///   * a proposer row (a over b) passes iff the new rank of the proposer's
///     previous match is below the row's window: the walked prefix is
///     intact;
///   * a responder row (b over a) passes iff its window holds at
///     most one inclusive suitor (a proposer that ranks the responder at or
///     above its own previous match, i.e. proposed to it), or the row is a
///     single swap of two non-suitors: the order over the suitors is intact.
/// The proposer test is exact for a single swap: a failing row changes the
/// proposer's walk. The responder test is sufficient only: a reordered pair
/// of suitors that never met as proposer and holder leaves the old
/// execution valid too.
[[nodiscard]] bool replays(const KPartiteInstance& inst,
                           const gs::GsResult& previous,
                           const MutationDelta& delta);

struct RematchOptions {
  /// Engine for the edges re-solved cold (and the engine key cached results
  /// publish under): queue or rounds.
  core::GsEngine engine = core::GsEngine::queue;
  /// Optional edge cache carried across re-stabilizations. rematch() performs
  /// the targeted invalidation + rebind itself. Like every cache, it is
  /// used by one thread at a time (core/gs_cache.hpp).
  core::GsEdgeCache* cache = nullptr;
};

/// Per-tree-edge verdict counts: edges_reused + edges_replayed + edges_warm
/// + edges_cold is the tree's edge count, with or without a cache (whether
/// the cache or `previous` then served an edge shows in result.cache_hits).
struct RematchReport {
  core::BindingResult result;
  /// Ready cache slots dropped by the targeted invalidation (or by clear()
  /// when the shape changed); 0 without a cache. Strictly fewer than a
  /// clear() would drop for single-pair deltas at k >= 3 — the churn battery
  /// asserts this.
  std::size_t slots_invalidated = 0;
  /// Tree edges whose gender pair the delta did not touch.
  std::int64_t edges_reused = 0;
  /// Touched tree edges whose previous result replays exactly.
  std::int64_t edges_replayed = 0;
  /// Touched tree edges re-solved cold.
  std::int64_t edges_warm = 0;
  /// Tree edges `previous` lacks (another tree, or a shape change), solved
  /// cold.
  std::int64_t edges_cold = 0;
  /// Proposals executed on the edges this call solved (result's
  /// executed_proposals): the re-solved edges' cold work, plus edges_cold's;
  /// reused and replayed edges and cache hits add zero. 0 on a cold
  /// fallback.
  std::int64_t warm_executed_proposals = 0;
  /// True when no tree edge needed a re-solve, so `result` is `previous`
  /// (executed_proposals and cache counters zeroed) and Algorithm 1 did not
  /// run.
  bool binding_skipped = false;
  /// True when the delta's shape_changed forced a full cold solve.
  bool cold_fallback = false;
};

/// Re-stabilizes `inst` (already mutated; delta.to_generation must equal
/// inst.generation()) over the spanning tree `tree`, reusing `previous` —
/// the binding result solved on the pre-delta instance over the same tree —
/// for every edge the delta left untouched or whose previous result replays
/// exactly. Requires a sequential engine (queue or rounds).
/// Returns the new proposer-optimal matching, bitwise-identical to a cold
/// iterative_binding of the mutated instance.
RematchReport rematch(const KPartiteInstance& inst,
                      const BindingStructure& tree,
                      const core::BindingResult& previous,
                      const MutationDelta& delta,
                      const RematchOptions& options = {});

}  // namespace kstable::incremental
