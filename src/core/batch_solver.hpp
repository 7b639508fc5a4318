// BatchSolver: solve many independent k-partite instances across the thread
// pool — the first serving-shaped API (ROADMAP: heavy traffic, many solves
// per second, not one big solve).
//
// Execution model: one task per instance over ThreadPool::for_each_index,
// each item bound with the sequential queue engine (items already saturate
// the pool). core::run_binding keeps a thread_local gs::GsWorkspace, so after
// a worker's first item warms it the per-edge GS runs allocate nothing; each
// *item* gets its own GsEdgeCache (caches are per-instance by contract) and
// its own ExecControl, so one slow or poisoned instance times out alone
// without stalling the batch. Abort-class failures (deadline, proposal
// budget) never throw out of solve(): the per-item SolveStatus carries them,
// exactly like resilience::FallbackReport does for single solves.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "core/binding.hpp"
#include "observability/telemetry.hpp"
#include "parallel/thread_pool.hpp"
#include "prefs/matching.hpp"
#include "resilience/control.hpp"

namespace kstable::core {

/// How each item's binding tree is chosen.
enum class BatchTree : std::uint8_t {
  path,        ///< trees::path(k) — the library default, no probe overhead
  cost_aware,  ///< probe all pairs, bind the min-cost tree; the tree's
               ///< edges replay from the probes through the per-item cache
};

struct BatchOptions {
  BatchTree tree = BatchTree::path;
  /// Per-item budgets (each item gets a fresh ExecControl); when non-empty,
  /// must match the batch size. Empty = every item unlimited.
  std::vector<resilience::Budget> per_item_budgets;
};

/// Outcome of one batch item.
struct BatchItemResult {
  /// ok, or aborted with reason/detail — mirrors the item's solo-run status
  /// under the same budget (asserted by the TSan batch tests).
  resilience::SolveStatus status;
  /// Set iff status.ok().
  std::optional<KaryMatching> matching;
  /// Theorem 3's unit for the item's solve (0 if aborted before any edge).
  std::int64_t total_proposals = 0;
  /// Per-item edge-cache outcomes: a path solve sees only its k-1 compulsory
  /// misses; a cost-aware solve's bound edges hit the probes' entries.
  std::int64_t cache_hits = 0;
  std::int64_t cache_misses = 0;
  /// Per-item record (engine "batch.item"); aborted items carry the abort
  /// status with the proposals spent before the cutoff.
  obs::SolveTelemetry telemetry;
};

class BatchSolver {
 public:
  /// The solver borrows `pool` (not owned); one BatchSolver per pool is the
  /// expected shape, but solve() is re-entrant and stateless apart from the
  /// workers' thread_local GS workspaces.
  explicit BatchSolver(ThreadPool& pool) : pool_(pool) {}

  /// Solves every instance; results are index-aligned with `instances`.
  /// Abort-class failures land in the item's status; ContractViolation (a
  /// programming error) propagates.
  std::vector<BatchItemResult> solve(
      std::span<const KPartiteInstance> instances,
      const BatchOptions& options = {});

 private:
  ThreadPool& pool_;
};

}  // namespace kstable::core
