// Cost-aware binding-tree selection — an ablation the paper's §IV.B invites:
// "different bindings may generate different stable k-ary matchings" (and
// kk-2 trees exist, by Cayley), so WHICH spanning tree should a deployment
// bind along?
//
// Strategy implemented here: run one binary GS per unordered gender pair
// (k(k-1)/2 probe matchings), score each pair by the egalitarian cost of its
// stable matching, and build the minimum- (or maximum-) cost spanning tree
// over those scores with Kruskal's algorithm. Binding along the min-cost
// tree directly optimizes the bound-pair cost; experiment E15 measures how
// much that buys over path/star/random trees, and what it does to the
// UNBOUND cross pairs.
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

}  // namespace kstable::core
