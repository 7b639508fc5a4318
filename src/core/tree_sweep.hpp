// TreeSweep: every spanning binding tree bound, scored and ranked.
//
// Cayley's formula (paper §IV.B) gives k^(k-2) spanning binding trees.
// sweep_all_trees binds each of them (Prüfer enumeration order) or each tree
// of an explicit candidate list, and reports its bound-pair cost
// (analysis::kary_tree_costs) and proposals: E15's cache ablation, and the
// reference that core::best_tree (the minimum
// in-arborescence over the edge-cost table, core/tree_selection.hpp) is
// tested against (tree_sweep_test, DiffRunner `binding.sweep.table.bitwise`).
//
// Determinism: candidates are bound in index order on the calling thread
// and the winner is the argmin of (bound-pair cost, tree index)
// lexicographically; per-tree matchings are the same deterministic
// iterative_binding calls (GS confluence; see gs_cache.hpp).
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "core/binding.hpp"
#include "core/gs_cache.hpp"
#include "graph/binding_structure.hpp"

namespace kstable::core {

/// sweep_all_trees refuses spaces above this many trees (k = 9 is ~4.8M,
/// k = 10 is 10^8).
inline constexpr std::int64_t kMaxSweepTrees = 5'000'000;

struct TreeSweepOptions {
  /// Per-instance edge memo every tree binds through (uncached when null).
  GsEdgeCache* cache = nullptr;
  /// Keep each tree's assembled KaryMatching in the score table (memory:
  /// one k×n index table per tree — leave off for k >= 7 full sweeps).
  bool keep_matchings = false;
};

/// One row of the score table.
struct TreePoint {
  std::int64_t index = -1;           ///< position in the candidate order
  std::int64_t bound_pair_cost = 0;  ///< kary_tree_costs: what binding optimized
  std::int64_t total_proposals = 0;
  /// Assembled matching (keep_matchings only).
  std::optional<KaryMatching> matching;
};

struct TreeSweepStats {
  std::int64_t trees = 0;  ///< candidates evaluated
  double wall_ms = 0.0;
  /// Σ over candidates of their accumulated proposals (Theorem 3's unit).
  std::int64_t total_proposals = 0;
  /// GS proposals this sweep actually ran (cache hits run none).
  std::int64_t executed_proposals = 0;
  std::int64_t cache_hits = 0;
  std::int64_t cache_misses = 0;
};

struct TreeSweepResult {
  /// Argmin of (bound-pair cost, index); -1 for an empty candidate list.
  std::int64_t best_index = -1;
  std::int64_t best_cost = 0;  ///< winner's bound-pair cost
  std::optional<BindingResult> best;
  std::optional<BindingStructure> best_tree;
  /// One row per candidate, sorted by index.
  std::vector<TreePoint> per_tree;
  TreeSweepStats stats;
  /// Engine "sweep" record folded into the MetricsRegistry via obs::record.
  obs::SolveTelemetry telemetry;

  [[nodiscard]] bool succeeded() const noexcept { return best.has_value(); }
  [[nodiscard]] const KaryMatching& matching() const {
    return best->matching();
  }
};

/// Sweeps all k^(k-2) spanning trees of inst's gender set (Prüfer
/// enumeration order). Throws ContractViolation, before any GS run, when
/// k^(k-2) exceeds kMaxSweepTrees.
TreeSweepResult sweep_all_trees(const KPartiteInstance& inst,
                                const TreeSweepOptions& options = {});

/// Sweeps an explicit candidate list (index = list position).
TreeSweepResult sweep_trees(const KPartiteInstance& inst,
                            const std::vector<BindingStructure>& candidates,
                            const TreeSweepOptions& options = {});

}  // namespace kstable::core
