// TreeSweep: the argmin of bound-pair cost over spanning binding trees.
//
// Cayley's formula (paper §IV.B) gives k^(k-2) spanning binding trees, and
// the multi-tree questions this library answers — `kmatch kary <file> best`,
// E15's tree ablation — are sweeps over some subset of that space.
//
// The additive identity (docs/ALGORITHMS.md): Algorithm 1 binds each tree
// edge a→b with GS(a, b) over the whole genders a and b, independent of the
// tree's other edges, and every assembled family holds exactly one pair of
// that matching. So a tree's bound-pair cost (analysis::kary_tree_costs) is
// Σ c(a→b) over its oriented edges, c = egalitarian_cost of GS(a, b).
// SweepFold::best_cost therefore binds no tree during the scan: it fills c
// on first use through run_binding (the caller's cache, or a sweep-local
// one), sums it per tree, and binds only the winner. Prüfer decoding orients
// every edge leaf→parent with the last edge into k-1, so a full sweep needs
// exactly (k-1)² GS runs. SweepFold::score_table binds every tree (its
// all-pairs cost is not additive) and is the reference the table is tested
// against (tree_sweep_test, DiffRunner `binding.sweep.table.bitwise`).
//
// Determinism: both folds scan candidates in index order on the calling
// thread and keep the argmin of (bound-pair cost, tree index)
// lexicographically; per-tree matchings are the same deterministic
// iterative_binding calls (GS confluence; see gs_cache.hpp).
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "core/binding.hpp"
#include "core/gs_cache.hpp"
#include "graph/binding_structure.hpp"
#include "resilience/control.hpp"

namespace kstable::core {

/// How the per-tree results reduce to one answer.
enum class SweepFold {
  /// Keep the tree minimizing bound-pair cost (ties: lowest tree index),
  /// scanned from the edge-cost table; only the winner is bound.
  best_cost,
  /// Bind every tree: the same winner plus the full per-tree score table
  /// (E15's ablation view).
  score_table,
};

/// sweep_all_trees refuses spaces above this many trees (k = 9 is ~4.8M,
/// k = 10 is 10^8); `kmatch kary <file> best` checks it before sweeping.
inline constexpr std::int64_t kMaxSweepTrees = 5'000'000;

struct TreeSweepOptions {
  /// Per-instance edge memo. best_cost fills its table through it (a
  /// sweep-local cache when null); score_table binds every tree through it
  /// (uncached when null).
  GsEdgeCache* cache = nullptr;
  /// Whole-sweep deadline/budget/cancellation, checked between trees and
  /// charged inside every per-edge GS run. Throws ExecutionAborted out of
  /// the sweep.
  resilience::ExecControl* control = nullptr;
  /// Fold; see SweepFold.
  SweepFold fold = SweepFold::best_cost;
  /// Keep each tree's assembled KaryMatching in the score table (memory:
  /// one k×n index table per tree — leave off for k >= 7 full sweeps).
  bool keep_matchings = false;
};

/// One row of the score table.
struct TreePoint {
  std::int64_t index = -1;           ///< position in the candidate order
  std::vector<Gender> prufer;        ///< Prüfer code of the tree
  std::int64_t bound_pair_cost = 0;  ///< kary_tree_costs: what binding optimized
  std::int64_t all_pairs_cost = 0;   ///< kary_costs: including unbound pairs
  std::int64_t total_proposals = 0;
  std::int64_t executed_proposals = 0;
  std::int64_t cache_hits = 0;
  std::int64_t cache_misses = 0;
  /// Assembled matching (keep_matchings only).
  std::optional<KaryMatching> matching;
};

struct TreeSweepStats {
  std::int64_t trees = 0;  ///< candidates evaluated
  double wall_ms = 0.0;
  double trees_per_sec = 0.0;
  /// Σ over candidates of their accumulated proposals (Theorem 3's unit),
  /// the same under both folds: best_cost sums it from the table.
  std::int64_t total_proposals = 0;
  /// GS proposals this sweep actually ran (cache hits run none).
  std::int64_t executed_proposals = 0;
  std::int64_t cache_hits = 0;
  std::int64_t cache_misses = 0;
};

struct TreeSweepResult {
  /// Winner per the fold's total order; -1 for an empty candidate list.
  std::int64_t best_index = -1;
  std::int64_t best_cost = 0;  ///< winner's bound-pair cost
  std::optional<BindingResult> best;
  std::optional<BindingStructure> best_tree;
  /// Sorted by index; empty under SweepFold::best_cost.
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
