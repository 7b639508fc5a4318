// CertChecker: an independent stability-certificate checker for the
// differential harness (docs/VERIFY.md).
//
// Deliberately re-derived rather than reused: analysis::stability and the
// engines' self-checks all consult KPartiteInstance's precomputed rank table
// (rank_row / rank_of / prefers), so a bug in the flat-storage rank
// construction would make checker and checked agree on a wrong answer. Every
// comparison here instead LINEARLY SCANS the raw preference lists
// (pref_list spans for k-partite instances, RoommatesInstance::list for
// roommates), sharing no derived state with the code under test. Costs are
// polynomial at harness sizes: O(n² · n) per blocking-pair sweep (the extra
// n is the scan) and O(n² · 2^k · k² · n) for the two-family coalition
// screen — fine for the n <= 8, k <= 5 instances InstanceGen draws.
//
// What "certificate" means per output kind:
//   * GsResult          — a perfect binary matching of genders (i, j) with
//                         mutually-inverse match arrays, a proposal count
//                         inside [n, n²], and NO blocking pair.
//   * KaryMatching      — structurally a perfect k-ary matching (each
//                         gender's column a permutation); for every BOUND
//                         gender pair of the binding structure the induced
//                         binary matching has no blocking pair (exactly the
//                         certificate Theorem 2's construction provides);
//                         and no two-family blocking coalition exists (the
//                         polynomial k' = 2 screen of §IV.A, re-derived).
//   * roommates match   — a fixed-point-free involution on mutually
//                         acceptable pairs with no blocking pair.
//   * best binding tree — an in-arborescence rooted at k-1 over the edge-cost
//                         table, with a Fulkerson dual (y_S >= 0 on gender
//                         sets without k-1) whose reduced costs are all >= 0,
//                         tight on every tree edge, and whose Σ y_S equals
//                         the tree's cost: weak LP duality then proves no
//                         tree costs less. Checked from the table, the tree
//                         and y alone in O(k³), without re-running Edmonds.
//
// An abort must leave NO certificate: the harness asserts that any solve
// ending in ExecutionAborted produced no matching claimed stable — the
// checkers here are what "claimed stable" is measured against.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "core/tree_selection.hpp"
#include "graph/binding_structure.hpp"
#include "gs/gale_shapley.hpp"
#include "prefs/kpartite.hpp"
#include "prefs/matching.hpp"
#include "roommates/instance.hpp"

namespace kstable::verify {

/// A violated invariant, with a human-readable witness description.
struct CertFailure {
  std::string what;
};

/// Rank of `target` in m's preference list over target.gender, computed by a
/// linear scan of the raw list (independent of the precomputed rank table).
/// Returns n if absent (malformed list — callers treat that as worst).
[[nodiscard]] std::int32_t scan_rank(const KPartiteInstance& inst, MemberId m,
                                     MemberId target);

/// Validates a binary GS certificate for GS(proposer gender i -> responder
/// gender j). Returns the first violated invariant, or nullopt if `result`
/// is a well-formed stable matching of (i, j).
std::optional<CertFailure> check_gs_certificate(const KPartiteInstance& inst,
                                                Gender proposer,
                                                Gender responder,
                                                const gs::GsResult& result);

/// Validates a k-ary matching certificate produced by binding along
/// `bound`'s edges: structural perfection, per-bound-edge projection
/// stability, and the two-family blocking-coalition screen.
std::optional<CertFailure> check_kary_certificate(
    const KPartiteInstance& inst, const KaryMatching& matching,
    const BindingStructure& bound);

/// Validates a minimum-cost binding-tree certificate: `tree` orients every
/// edge toward gender k-1 (each other gender proposes exactly once), and
/// `dual` proves its cost Σ cost[a*k + b] over its edges a→b minimal among
/// all such trees. cost[a*k + b] is read for a < k-1, b ≠ a.
std::optional<CertFailure> check_best_tree_certificate(
    const std::vector<std::int64_t>& cost, const BindingStructure& tree,
    const std::vector<core::DualSet>& dual);

/// Validates a perfect roommates matching: involution, no fixed points,
/// mutual acceptability, no blocking pair. `match[p]` = partner of p.
std::optional<CertFailure> check_roommates_certificate(
    const rm::RoommatesInstance& inst, const std::vector<rm::Person>& match);

}  // namespace kstable::verify
