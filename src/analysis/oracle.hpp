// Exhaustive oracles for small instances.
//
// The property tests and the E2/E4 experiments cross-check the algorithmic
// solvers against brute force: enumerate every perfect (binary or k-ary)
// matching and count the stable ones. Only feasible at small sizes —
// binary enumeration is O((kn-1)!!) and k-ary is O((n!)^(k-1)) — which is
// exactly how the oracles are used.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "analysis/stability.hpp"
#include "prefs/kpartite.hpp"
#include "prefs/matching.hpp"
#include "roommates/instance.hpp"

namespace kstable::analysis {

/// Result of an exhaustive binary-matching census.
struct BinaryCensus {
  std::int64_t perfect_matchings = 0;
  std::int64_t stable_matchings = 0;
  /// One stable witness (partner array), if any exist.
  std::optional<std::vector<rm::Person>> witness;
};

/// Enumerates every perfect matching of the (possibly incomplete-list)
/// roommates instance and counts the stable ones. `limit` aborts the census
/// early once that many perfect matchings were enumerated (0 = unlimited).
BinaryCensus binary_census(const rm::RoommatesInstance& inst,
                           std::int64_t limit = 0);

/// Result of an exhaustive k-ary census.
struct KaryCensus {
  std::int64_t total_matchings = 0;
  std::int64_t stable_matchings = 0;          ///< strict blocking condition
  std::int64_t weakened_stable_matchings = 0; ///< §IV.D condition (if priority given)
  std::optional<KaryMatching> witness;        ///< one strictly stable witness
};

/// Enumerates all (n!)^(k-1) k-ary matchings of `inst` and counts stable
/// ones. If `priority` is non-empty, also counts weakened-stable matchings.
KaryCensus kary_census(const KPartiteInstance& inst,
                       const std::vector<std::int32_t>& priority = {});

}  // namespace kstable::analysis
