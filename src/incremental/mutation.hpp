// Preference-churn mutation API (docs/INCREMENTAL.md).
//
// A service at scale does not rebuild a KPartiteInstance because one user
// edited one preference list. The mutators here rewrite the arena pref/rank
// rows IN PLACE (KPartiteInstance::swap_pref_entries / set_pref_list), bump
// the per-instance generation counter, and return a MutationDelta: which
// rows changed between two generations, and within each row the window of
// ranks whose entries changed. That is all rematch() needs: the touched
// gender pairs name the binding-tree edges whose previous result must be
// checked, and the windows decide the check (an edit outside the region
// Gale-Shapley read replays the previous result exactly; otherwise the edge
// is re-solved cold and its GsEdgeCache slots invalidated).
//
// Deltas compose: merge() folds a later delta into an earlier one, one row
// per (member, target) with the union of its windows, so a delta covers
// several mutations between re-stabilizations.
//
// Membership changes (add_member / remove_member) cannot rewrite in place —
// the arena is sized by n — so they rebuild a new instance and mark the
// delta shape_changed; rematch() answers those with a cold solve.
#pragma once

#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "graph/binding_structure.hpp"
#include "prefs/ids.hpp"
#include "prefs/kpartite.hpp"
#include "util/rng.hpp"

namespace kstable::incremental {

/// One rewritten preference row: `member`'s list over gender `target`, whose
/// entries changed only at ranks lo..hi (every entry outside the window is
/// the one the row held at the delta's from_generation). An empty window
/// (lo > hi) means the row was rewritten with its own contents. The default
/// window is the whole row: it claims nothing about where the row changed.
struct RowDelta {
  MemberId member{};
  Gender target = -1;
  Index lo = 0;  ///< first rank whose entry changed
  Index hi = std::numeric_limits<Index>::max();  ///< last rank that changed
  /// True iff the row differs from its old contents by exchanging exactly
  /// the entries at lo and hi (one swap): the ranks strictly between them
  /// hold their old entries.
  bool single_swap = false;
};

/// The difference between two instance generations, as a set of rewritten
/// rows (plus the shape_changed escape hatch for membership churn).
struct MutationDelta {
  std::uint64_t from_generation = 0;  ///< instance generation before applying
  std::uint64_t to_generation = 0;    ///< instance generation after applying
  bool shape_changed = false;         ///< add/remove member: everything stale
  std::vector<RowDelta> rows;

  [[nodiscard]] bool empty() const noexcept {
    return rows.empty() && !shape_changed;
  }

  /// True iff the memoized GS(a,b) / GS(b,a) results are stale: some
  /// rewritten row involves the (a, b) gender pair in either direction, or
  /// the shape changed (which staled everything).
  [[nodiscard]] bool touches(Gender a, Gender b) const noexcept;

  /// Normalized unique gender pairs touched by the delta (both orientations
  /// of each are stale — see GsEdgeCache::invalidate).
  [[nodiscard]] std::vector<GenderEdge> touched_pairs() const;

  /// Folds `later` (a delta that starts where this one ends) into this one,
  /// one row per (member, target) with the union of both windows (a row
  /// edited twice is no longer a single swap), so the merged delta describes
  /// the change since from_generation. Requires later.from_generation ==
  /// to_generation.
  void merge(const MutationDelta& later);
};

/// Swaps the entries at `rank_a`/`rank_b` of m's list over `g` in place and
/// returns the single-row delta, whose window is the two ranks (empty when
/// they are equal).
MutationDelta swap_entries(KPartiteInstance& inst, MemberId m, Gender g,
                           Index rank_a, Index rank_b);

/// Replaces m's whole list over `g` (order must be a permutation of [0, n),
/// enforced by set_pref_list) and returns the single-row delta. Its window
/// comes from one compare of `order` with the current row before the
/// overwrite (no allocation); an identical list gives an empty window.
MutationDelta replace_list(KPartiteInstance& inst, MemberId m, Gender g,
                           std::span<const Index> order);

/// A rebuilt instance plus the delta describing how it differs from the
/// source (membership churn: delta.shape_changed is always true).
struct ResizeResult {
  KPartiteInstance instance;
  MutationDelta delta;
};

/// Grows every gender by one member (balanced instances stay balanced): the
/// new member of each gender draws uniform-random lists from `rng`, and
/// every existing list gains the new index at a random position. The source
/// is untouched; the result is a fresh instance with its own generation
/// counter, and the delta bridges the two (from = source generation, to =
/// result generation, shape_changed).
ResizeResult add_member(const KPartiteInstance& inst, Rng& rng);

/// Shrinks every gender by one, deleting index `victim` from each gender and
/// reindexing (entries > victim shift down). Requires n >= 2.
ResizeResult remove_member(const KPartiteInstance& inst, Index victim);

/// Draws one random in-place mutation (mostly entry swaps, occasionally a
/// full list replacement) and applies it. The churn batteries' step
/// primitive: deterministic in `rng`.
MutationDelta random_mutation(KPartiteInstance& inst, Rng& rng);

}  // namespace kstable::incremental
