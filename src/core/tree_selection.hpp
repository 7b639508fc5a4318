// Cost-aware binding-tree selection — an ablation the paper's §IV.B invites:
// "different bindings may generate different stable k-ary matchings" (and
// k^(k-2) trees exist, by Cayley), so WHICH spanning tree should a deployment
// bind along?
//
// select_tree runs one binary GS per unordered gender pair (k(k-1)/2 probe
// matchings), scores each pair by the egalitarian cost of its stable
// matching, and builds the minimum- (or maximum-) cost spanning tree over
// those scores with Kruskal's algorithm; experiment E15 measures what that
// buys over path/star/random trees, and what it does to the UNBOUND pairs.
//
// best_tree answers `kmatch kary <file> best`: the least bound-pair-cost
// tree among the k^(k-2) Prüfer-decoded trees, which are exactly the
// in-arborescences rooted at k-1 (docs/ALGORITHMS.md §4). It fills the
// (k-1)² edge costs and runs Chu–Liu/Edmonds ("Optimum branchings", 1967)
// in O(k³), with a Fulkerson dual that verify::CertChecker checks.
#pragma once

#include <cstdint>
#include <vector>

#include "core/binding.hpp"

namespace kstable::core {

/// Probe results for every unordered gender pair.
struct PairProbe {
  GenderEdge edge;             ///< (a proposes, b responds)
  std::int64_t cost = 0;       ///< egalitarian rank cost of GS(a, b)
  std::int64_t proposals = 0;  ///< proposal count of the probe run
};

/// Egalitarian rank cost of the binary matching `result` = GS(a, b): the
/// sum, over its pairs, of both members' ranks of each other. It is also
/// edge a→b's share of analysis::kary_tree_costs for any tree that binds
/// a→b, since every family holds exactly one pair of that matching.
std::int64_t egalitarian_cost(const KPartiteInstance& inst,
                              const gs::GsResult& result);

/// Runs GS on every unordered gender pair, in (a, b) order, and scores it.
/// O(k² n log n) avg. With options.cache attached, the k(k-1)/2 probe
/// matchings are memoized — the subsequent iterative_binding along the
/// selected tree replays its edges as cache hits instead of re-running GS.
std::vector<PairProbe> probe_all_pairs(const KPartiteInstance& inst,
                                       const BindingOptions& options = {});

enum class TreeObjective {
  min_cost,  ///< Kruskal minimum spanning tree over probe costs
  max_cost   ///< adversarial control: worst tree under the same metric
};

/// Builds the spanning tree optimizing `objective` over the probe costs.
BindingStructure select_tree(const KPartiteInstance& inst,
                             TreeObjective objective,
                             const BindingOptions& options = {});

/// Convenience: select_tree + iterative_binding (one probe pass when
/// options.cache is set, instead of probes + fresh per-edge GS runs).
BindingResult cost_aware_binding(const KPartiteInstance& inst,
                                 TreeObjective objective = TreeObjective::min_cost,
                                 const BindingOptions& options = {});

/// One node set of Edmonds' contractions with its Fulkerson dual value y_S.
struct DualSet {
  std::vector<Gender> members;  ///< never holds the root k-1
  std::int64_t y = 0;
};

/// A minimum-cost in-arborescence rooted at k-1 and its dual certificate:
/// every reduced cost c(a→b) - Σ_{S ∋ a, S ∌ b} y_S is >= 0, every tree edge
/// has reduced cost 0, and Σ y_S = cost.
struct Arborescence {
  std::vector<Gender> parent;  ///< parent[v] for v < k-1; parent[k-1] = -1
  std::int64_t cost = 0;
  /// The singletons {0}..{k-2}, then each contracted cycle (laminar).
  std::vector<DualSet> dual;
};

/// Chu–Liu/Edmonds in O(k³) over cost[a*k + b] = c(a→b) >= 0 (a < k-1,
/// b ≠ a; k >= 2). Ties go to the lowest index: a node's lowest cheapest
/// parent, the first cycle found from node 0 up, and for merged parallel
/// edges the first cheapest in (source, target) order.
Arborescence min_arborescence(Gender k, const std::vector<std::int64_t>& cost);

/// `kmatch kary <file> best`: the minimum-bound-pair-cost binding tree.
struct BestTree {
  /// c(a→b) at [a*k + b] for a < k-1, b ≠ a; -1 elsewhere.
  std::vector<std::int64_t> costs;
  Arborescence optimum;  ///< over `costs`; cost = bound-pair cost
  /// optimum.parent as a binding tree, edges in prufer::decode's order.
  BindingStructure tree;
  /// `tree` bound once (engine "binding.best"). Its executed proposals and
  /// cache counters include the table fill: (k-1)² misses, then k-1 hits.
  BindingResult binding;
};

/// Fills the (k-1)² costs through bind_edge and options.cache (a call-local
/// cache when null), runs min_arborescence, binds the winner. k >= 2.
BestTree best_tree(const KPartiteInstance& inst,
                   const BindingOptions& options = {});

}  // namespace kstable::core
