// TreeSweep: a work-stealing parallel sweep over spanning binding trees.
//
// Cayley's formula (paper §IV.B) gives k^(k-2) spanning binding trees, and
// every quantitative multi-tree question this library answers — E15's tree
// ablation, cost-aware tree selection, the exhaustive oracle experiments —
// is a sweep over some subset of that space. This engine chunks the Prüfer
// code space (graph/prufer gives random access: tree_at(index, k) is the
// index-th tree of the enumeration order) across the existing ThreadPool
// with work stealing, runs iterative_binding per tree on thread_local
// GsWorkspaces, and reduces through a pluggable fold.
//
// Determinism contract: the sweep's outcome is a pure function of
// (instance, candidate set, fold) — it does NOT depend on thread
// count, chunking, steal schedule, or which worker evaluated which tree.
// The winner is the argmin of (bound-pair cost, tree index)
// lexicographically; per-worker partial folds are merged by the same total
// order, so any partition of the index space yields the same winner. The
// score table is sorted by tree index before returning.
// Per-tree matchings are bitwise-identical to a sequential run because each
// tree's binding is the same deterministic iterative_binding call (GS
// confluence; see gs_cache.hpp), property-tested in tree_sweep_test.
//
// Scheduling: the index space is split into one contiguous range per pool
// worker; owners claim 8-tree blocks off their range's front, and
// workers that run dry steal blocks off other ranges' backs (classic
// deque-ish stealing with a mutex per range — trees are coarse work units,
// so per-claim locking is noise). Steal/chunk counts surface in
// TreeSweepStats and the MetricsRegistry.
//
// Every per-edge GS run uses the sequential queue engine: the sweep spends
// its parallelism across trees, not inside one edge.
//
// Nesting: when called from inside a pool worker, the engine detects it via
// ThreadPool::in_worker_thread() and runs sequentially instead of queueing a
// second thread complement onto the saturated pool (stats.nested_fallback
// reports it).
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "core/binding.hpp"
#include "core/gs_cache.hpp"
#include "graph/binding_structure.hpp"
#include "parallel/thread_pool.hpp"
#include "resilience/control.hpp"

namespace kstable::core {

/// How the per-tree results reduce to one answer.
enum class SweepFold {
  /// Keep the tree minimizing bound-pair cost (ties: lowest tree index).
  best_cost,
  /// best_cost + the full per-tree score table (E15's ablation view).
  score_table,
};

/// sweep_all_trees refuses spaces above this many trees (k = 9 is ~4.8M,
/// k = 10 is 10^8); `kmatch kary <file> best` checks it before sweeping.
inline constexpr std::int64_t kMaxSweepTrees = 5'000'000;

struct TreeSweepOptions {
  /// Workers to sweep on; nullptr = sequential. Ignored (sequential
  /// fallback) when the caller is itself a pool worker — see header notes.
  ThreadPool* pool = nullptr;
  /// Shared per-instance edge memo. Strongly recommended for parallel
  /// sweeps: concurrent workers missing the same oriented edge resolve
  /// single-flight instead of duplicating GS runs.
  GsEdgeCache* cache = nullptr;
  /// Whole-sweep deadline/budget/cancellation, checked between trees on
  /// every worker and charged inside every per-edge GS run. Throws
  /// ExecutionAborted out of the sweep.
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
  std::int64_t trees = 0;    ///< candidates evaluated
  std::int64_t chunks = 0;   ///< work-stealing claims
  std::int64_t steals = 0;   ///< claims taken from another worker's range
  std::size_t workers = 1;
  bool nested_fallback = false;  ///< pool given but ran sequentially (nested)
  double wall_ms = 0.0;
  double trees_per_sec = 0.0;
  std::int64_t total_proposals = 0;
  std::int64_t executed_proposals = 0;
  std::int64_t cache_hits = 0;
  std::int64_t cache_misses = 0;
  std::int64_t single_flight_waits = 0;  ///< cache-level dedup events
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

/// Scheduling outcome of one work-stealing pass.
struct SweepSchedule {
  std::int64_t chunks = 0;
  std::int64_t steals = 0;
  std::size_t workers = 1;
};

/// The reusable work-stealing primitive under the sweep drivers: splits
/// [0, count) into one contiguous range per pool worker and invokes
/// run(worker, begin, end) for every claimed block — owners claim off their
/// range's front, thieves off other ranges' backs, `chunk` indices at a
/// time. Blocks until the space is exhausted; exceptions from `run`
/// propagate (first one wins) after all workers stop. Exposed for tests and
/// other index-space fan-outs.
SweepSchedule sweep_index_space(
    std::int64_t count, ThreadPool& pool, std::int64_t chunk,
    const std::function<void(std::size_t worker, std::int64_t begin,
                             std::int64_t end)>& run);

}  // namespace kstable::core
