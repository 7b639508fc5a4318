// The fallback solve ladder: retry a failed/timed-out k-ary solve along
// *different* spanning binding trees, then degrade to the priority model.
//
// Paper grounding: Cayley's formula (cited for Theorem 3) guarantees k^(k-2)
// candidate spanning binding trees, every one of which yields a stable k-ary
// matching (Theorem 2) — so an abort on one tree (deadline, injected fault,
// wedged engine) has k^(k-2)-1 natural strict fallbacks with different
// proposal-order behavior. When every strict rung is exhausted, Algorithm 2's
// weakened priority / lead-member model (§IV.D) is a principled degraded
// mode: still a spanning-tree binding, but grown bitonically from the
// highest-priority gender. The report records which rung produced the answer
// so callers can distinguish a first-try success from a degraded one.
//
// Every strict rung is one attempt function over candidate i of a fixed
// deterministic tree stream. Without a pool the attempts run in order; with
// one they race across it, and the race logs exactly the attempts the
// in-order ladder would (see FallbackOptions::pool).
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "core/binding.hpp"
#include "observability/telemetry.hpp"
#include "resilience/control.hpp"

namespace kstable::resilience {

/// Ladder rung that produced (or last attempted) the matching.
enum class Rung : std::uint8_t {
  strict_tree,        ///< Algorithm 1 on a candidate spanning tree
  degraded_priority,  ///< Algorithm 2 (weakened priority model, last rung)
  none                ///< every rung failed
};

[[nodiscard]] constexpr const char* to_string(Rung rung) noexcept {
  switch (rung) {
    case Rung::strict_tree: return "strict-tree";
    case Rung::degraded_priority: return "degraded-priority";
    case Rung::none: return "none";
  }
  return "unknown";
}

/// One ladder attempt: which rung, which tree, how it ended.
struct AttemptLog {
  Rung rung = Rung::strict_tree;
  std::vector<GenderEdge> tree_edges;  ///< binding tree of this attempt
  SolveStatus status;
};

struct FallbackOptions {
  /// Budget for the first attempt; later attempts scale it by backoff.
  Budget per_attempt{};
  /// Per-attempt budget multiplier (>= 1): each retry gets backoff× the
  /// previous attempt's wall/proposal budget.
  double backoff = 1.0;
  /// Strict rungs (distinct spanning trees) to try before degrading; capped
  /// by Cayley's k^(k-2) distinct trees.
  std::int32_t max_tree_attempts = 4;
  /// Shared across all attempts; cancelling stops the whole ladder.
  CancellationToken token{};
  /// Per-edge GS engine (control is owned by the ladder).
  core::GsEngine engine = core::GsEngine::queue;
  /// With a pool of more than one thread (the caller not itself a pool
  /// worker, more than one candidate, engine != parallel) the strict rungs
  /// race across it, each candidate under its own backoff-scaled budget.
  /// The winner is the lowest-indexed candidate that succeeds: with no
  /// shared cache that is exactly the in-order ladder's winner; with a
  /// shared cache under tight budgets it may shift (concurrent attempts warm
  /// each other's edges), though any given tree's matching stays
  /// bitwise-identical. Work burnt on candidates above the winner is
  /// reported as speculative_waste. GsEngine::parallel also needs the pool:
  /// it runs each edge's GS on it, and the rungs then go in order.
  ThreadPool* pool = nullptr;
  /// Permit the Algorithm 2 last rung. When false the ladder is strict-only.
  bool allow_degraded = true;
  /// Optional per-instance edge cache shared across every rung: candidate
  /// trees draw from the same k(k-1)/2 gender-pair set, so edges completed
  /// by an aborted attempt replay for free on the next one (and are not
  /// re-charged against its budget). Must be built for this instance.
  core::GsEdgeCache* cache = nullptr;
};

struct FallbackReport {
  bool succeeded = false;
  /// Rung that produced the matching (none if !succeeded).
  Rung rung = Rung::none;
  /// Status of the final attempt (the successful one, or the last failure).
  SolveStatus status;
  /// Binding result of the successful attempt; unset if !succeeded.
  std::optional<core::BindingResult> result;
  /// Every attempt in order, including the successful one.
  std::vector<AttemptLog> attempts;
  /// Edge-cache outcomes accumulated over all attempts (0/0 without a
  /// cache in FallbackOptions).
  std::int64_t cache_hits = 0;
  std::int64_t cache_misses = 0;
  /// Proposals actually executed across all attempts (failed ones included);
  /// cache hits contribute nothing. The multi-tree work the cache saves is
  /// visible here.
  std::int64_t executed_proposals = 0;
  /// Of executed_proposals, the share burnt by raced strict rungs above the
  /// winning candidate — work the in-order ladder would never have started
  /// (0 without a pool race).
  std::int64_t speculative_waste = 0;
  /// Per-ladder-run record (engine "ladder", attempts count, final rung,
  /// cumulative counters) for the observability exporters.
  obs::SolveTelemetry telemetry;

  [[nodiscard]] bool degraded() const noexcept {
    return rung == Rung::degraded_priority;
  }
  [[nodiscard]] const KaryMatching& matching() const {
    return result->matching();
  }
};

/// Runs the ladder: up to max_tree_attempts strict Algorithm 1 attempts on
/// distinct spanning trees with per-attempt budgets (ExecutionAborted from
/// one attempt moves to the next; a cancellation stops the ladder), in order
/// or raced across options.pool, then one Algorithm 2 attempt as the
/// degraded last rung. Never throws for abort-
/// class failures — the report carries the outcome. ContractViolation (a
/// programming error) still propagates.
FallbackReport solve_with_fallback(const KPartiteInstance& inst,
                                   const FallbackOptions& options = {});

}  // namespace kstable::resilience
