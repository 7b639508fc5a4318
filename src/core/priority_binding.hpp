// Priority-Based Iterative Binding GS — Algorithm 2 of the paper (§IV.D).
//
// Under the weakened blocking condition (only each same-family group's *lead*
// member — the one whose gender has the highest priority in the group — must
// prefer the new family), arbitrary binding trees no longer guarantee
// stability (Fig. 5a). Algorithm 2 grows the binding tree from the highest-
// priority gender, attaching the remaining genders in decreasing priority
// order to any already-bound gender. The resulting tree is *bitonic* (every
// tree path's priority sequence rises then falls, Fig. 6), and Theorem 5
// shows bitonic trees prevent every weakened blocking family. There are
// (k-1)! distinct priority-grown trees (attach node i+1-th has i choices);
// priority_binding always picks the star at imax (every gender attaches to
// the highest-priority one), and for_each_priority_tree spans all of them.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "core/binding.hpp"

namespace kstable::core {

struct PriorityBindingOptions {
  /// priority[g] = priority of gender g (all distinct; higher = more
  /// important). Empty = identity (gender id is its priority, the paper's
  /// convention).
  std::vector<std::int32_t> priority;

  BindingOptions binding;  ///< engine selection for the per-edge GS runs
};

struct PriorityBindingResult {
  BindingResult binding;      ///< per-edge results + matching
  BindingStructure tree;      ///< the grown (bitonic) star at imax
  std::vector<Gender> order;  ///< genders in attachment order (imax first)
};

/// Runs Algorithm 2. Postcondition: the grown tree is bitonic under the
/// given priorities (checked), and the matching satisfies Theorem 2's strict
/// stability as well (it is still a spanning-tree binding).
PriorityBindingResult priority_binding(const KPartiteInstance& inst,
                                       const PriorityBindingOptions& options = {});

/// Enumerates all (k-1)! priority-grown binding trees for priority order
/// `priority` (identity if empty), invoking `visit` on each (Fig. 6's tree
/// family). k <= 8 recommended (7! = 5040 trees).
void for_each_priority_tree(Gender k, const std::vector<std::int32_t>& priority,
                            const std::function<void(const BindingStructure&)>& visit);

/// Number of priority-grown trees: (k-1)!.
std::int64_t priority_tree_count(Gender k);

}  // namespace kstable::core
