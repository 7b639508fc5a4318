// Gale-Shapley engines for one binary binding GS(i, j) between two genders of
// a KPartiteInstance (paper §II.A).
//
// Every engine resolves a proposal the same way (one accept/reject step,
// shared by the queue and round engines) and reaches the same outcome (GS is
// confluent: the proposer-optimal matching does not depend on proposal
// order):
//   * queue engine  — the seeded free-stack loop: the caller seeds the match
//                     arrays, next_choice and the free stack (all-free for a
//                     cold solve, the dirty closure for a warm restart,
//                     incremental/warm_gs.hpp) and the loop proposes until
//                     the stack is empty. It software-prefetches the next
//                     proposal's rank cells and the stack top's pref cell
//                     (no-ops on the implicit backend); O(n²) worst case;
//   * round engine  — the paper's description: per round, every unengaged
//                     proposer proposes, every responder keeps the best
//                     (McVitie-Wilson style rounds);
//   * parallel engine (parallel_gs.hpp) — speculative concurrent proposals
//                     with atomic responder slots;
//   * scan engine (scan_gs.hpp) — the rank-table ablation baseline.
// All engines count accumulated proposals, the unit of Theorem 3's
// (k-1)n² bound.
#pragma once

#include <cstdint>
#include <vector>

#include "observability/telemetry.hpp"
#include "prefs/kpartite.hpp"
#include "resilience/control.hpp"

namespace kstable::gs {

/// One proposal event, for tracing small examples (E1).
struct ProposalEvent {
  Index proposer = -1;
  Index responder = -1;
  bool accepted = false;   ///< responder now holds proposer
  Index displaced = -1;    ///< previous holder set free (-1 if none)

  friend bool operator==(const ProposalEvent&,
                         const ProposalEvent&) = default;
};

/// Result of one binary binding between proposer gender and responder gender.
struct GsResult {
  Gender proposer_gender = -1;
  Gender responder_gender = -1;
  /// proposer_match[p] = responder index matched to proposer p.
  std::vector<Index> proposer_match;
  /// responder_match[r] = proposer index matched to responder r.
  std::vector<Index> responder_match;
  /// Accumulated proposals (the iteration count of §II.A / Theorem 3).
  std::int64_t proposals = 0;
  /// Number of proposal rounds (1 per proposal for the queue engine).
  std::int64_t rounds = 0;
  /// Wall time of the engine run in milliseconds (0 for cache replays).
  double wall_ms = 0.0;
  /// Static-lifetime label of the engine that produced this result
  /// ("gs.queue", "gs.rounds", "gs.parallel", "gs.scan", "gs.warm").
  const char* engine = "";
};

/// Assembles the per-solve telemetry record for one engine run: engine label
/// and wall time from `result`, shape from (k, n). Standalone GS callers and
/// the binding drivers share this one definition of what a GS solve reports.
[[nodiscard]] obs::SolveTelemetry solve_telemetry(const GsResult& result,
                                                  Gender k, Index n);

struct GsOptions {
  /// If non-null, every proposal event is appended (small instances only).
  /// Capacity for the Theorem 3 per-binding bound (n² events) is reserved up
  /// front, so traced runs do not grow the vector geometrically.
  std::vector<ProposalEvent>* trace = nullptr;
  /// If non-null, charged one unit per proposal; throws ExecutionAborted on
  /// deadline/budget/cancel (resilience/control.hpp). Null = unlimited.
  resilience::ExecControl* control = nullptr;
};

/// Reusable scratch state for the sequential engines. The engines only ever
/// .assign()/.resize() these buffers, so after one solve at size n ("warm-up")
/// every later solve at size <= n reuses the capacity: combined with the
/// into-style overloads below, a warm workspace + warm result makes
/// gale_shapley_queue / gale_shapley_rounds perform zero heap allocations per
/// solve (asserted by the allocation-counting test). A workspace belongs to
/// one thread at a time; it carries no instance state and may be reused
/// across instances, gender pairs, and engines freely.
struct GsWorkspace {
  std::vector<Index> next_choice;  ///< per-proposer next rank to try
  std::vector<Index> free_list;    ///< free proposers (stack / current round)
  std::vector<Index> still_free;   ///< rounds engine: next round's free list

  /// Pre-grows every buffer to capacity `n` (optional; the first solve warms
  /// the workspace as a side effect anyway).
  void warm(Index n) {
    const auto cap = static_cast<std::size_t>(n);
    next_choice.reserve(cap);
    free_list.reserve(cap);
    still_free.reserve(cap);
  }
};

/// Pre-grows a result's match arrays so an into-style solve at size <= n
/// does not allocate.
inline void warm_result(GsResult& result, Index n) {
  const auto cap = static_cast<std::size_t>(n);
  result.proposer_match.reserve(cap);
  result.responder_match.reserve(cap);
}

/// Queue-based Gale-Shapley: proposers from gender `i` propose to gender `j`.
GsResult gale_shapley_queue(const KPartiteInstance& inst, Gender i, Gender j,
                            const GsOptions& options = {});

/// Round-based Gale-Shapley: all currently-free proposers propose each round.
GsResult gale_shapley_rounds(const KPartiteInstance& inst, Gender i, Gender j,
                             const GsOptions& options = {});

/// Into-style variants: identical outcomes, but all scratch state lives in
/// `workspace` and the outcome overwrites `result` in place (capacity
/// reused). Zero heap allocations once workspace and result are warm.
void gale_shapley_queue(const KPartiteInstance& inst, Gender i, Gender j,
                        const GsOptions& options, GsWorkspace& workspace,
                        GsResult& result);
void gale_shapley_rounds(const KPartiteInstance& inst, Gender i, Gender j,
                         const GsOptions& options, GsWorkspace& workspace,
                         GsResult& result);

/// Runs the queue engine's loop from a caller-supplied seed, with no reset:
/// `result`'s match arrays must hold a valid GS execution prefix (every
/// matched pair consistent in both arrays), `workspace.next_choice[p]` the
/// next rank proposer p tries, and `workspace.free_list` the free proposers
/// (popped from the back). Proposes until the free stack is empty — an empty
/// seed returns at once with zero proposals — adding to result.proposals.
/// The caller sets the label and checks the postcondition (finish_engine).
void run_seeded_queue(const KPartiteInstance& inst, Gender i, Gender j,
                      const GsOptions& options, GsWorkspace& workspace,
                      GsResult& result);

/// Engine plumbing shared by every GS engine (gs/ and incremental/).
/// Throws ContractViolation unless 0 <= i, j < k and i != j.
void check_genders(const KPartiteInstance& inst, Gender i, Gender j);
/// Resets `result` for a fresh all-free (i, j) solve, reusing capacity.
void reset_result(GsResult& result, Gender i, Gender j, Index n);
/// Traced runs reserve the Theorem 3 per-binding bound (n² events) up front.
void reserve_trace(const GsOptions& options, Index n);
/// Stamps label and wall time, then enforces the postcondition: a perfect
/// matching with consistent match arrays (ContractViolation otherwise).
void finish_engine(const KPartiteInstance& inst, const char* engine,
                   double wall_ms, GsResult& result);

/// True iff `result` is a stable matching of genders (i, j) under `inst`:
/// perfect and with no blocking pair. (A cheaper special case of the
/// analysis-module checkers, kept here so the engines are self-verifying.)
bool is_stable_binding(const KPartiteInstance& inst, const GsResult& result);

}  // namespace kstable::gs
