// Scan Gale-Shapley engine: the rank-table ablation baseline (E9).
//
// It produces matchings and proposal counts bitwise-identical to
// gale_shapley_queue (same free-stack proposal order; GS is confluent), and
// keeps its own list-walk loop on purpose: the DiffRunner uses it as the
// independent cross-check of the rank-table path.
//
// The responder's "do I prefer the new suitor" comparison scans its
// preference list instead of consulting the rank table. O(n) per
// comparison, O(n³) worst case; quantifies what the rank table buys
// (DESIGN.md §Key design decisions).
#pragma once

#include "gs/gale_shapley.hpp"

namespace kstable::gs {

/// Queue-based GS(i, j) using list scans for every preference comparison.
/// Returns the same matching and proposal count as gale_shapley_queue.
GsResult gale_shapley_scan(const KPartiteInstance& inst, Gender i, Gender j);

}  // namespace kstable::gs
