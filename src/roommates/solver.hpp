// Irving's stable-roommates algorithm (paper §III.B; Irving 1985).
//
// Phase 1: a proposal sequence in which every person proposes down their list
// and each recipient holds the best proposal seen so far, followed by the
// pruning step (hold from x ⇒ delete everyone ranked below x,
// bidirectionally). Phase 2: repeatedly locate a rotation — a cycle of
// alternating first/second preferences in the reduced lists (the paper's
// "loop") — and eliminate it. The instance has a (perfect) stable matching
// iff no list empties; the matching is then read off the singleton lists.
//
// Incomplete preference lists are supported directly, which is what the
// k-partite binary matching front-end (adapters.hpp) relies on.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "observability/telemetry.hpp"
#include "resilience/control.hpp"
#include "roommates/table.hpp"

namespace kstable::rm {

struct SolveOptions {
  /// If set, called before each rotation search; must return a person whose
  /// reduced list has >= 2 entries (the search starts there, which fixes the
  /// "side" of the rotation found — the fairness lever of §III.B), or -1 to
  /// let the solver choose. Disables the retained-stack optimization.
  std::function<Person(const ReductionTable&)> pick_start;

  /// Optional deadline/budget/cancellation control: charged per phase-1
  /// proposal and per rotation step, checked before every rotation
  /// elimination. Throws ExecutionAborted on expiry. Null = run to the end.
  resilience::ExecControl* control = nullptr;
};

struct RoommatesResult {
  /// True iff a perfect stable matching exists (no reduced list emptied).
  bool has_stable = false;
  /// match[p] = partner of p (involution); only meaningful if has_stable.
  std::vector<Person> match;
  /// Person whose reduced list emptied (diagnostic), -1 if has_stable.
  Person failed_person = -1;

  std::int64_t phase1_proposals = 0;  ///< proposals made in phase 1
  std::int64_t rotations_eliminated = 0;
  std::int64_t pair_deletions = 0;    ///< total bidirectional deletions
  /// Structured completion record: ok or no_stable (aborts throw instead).
  resilience::SolveStatus status;
  /// Per-solve record (engine "roommates", phases phase1/phase2, proposal
  /// and rotation counters) for the observability exporters.
  obs::SolveTelemetry telemetry;
};

/// Runs both phases and extracts the matching (or reports non-existence).
RoommatesResult solve(const RoommatesInstance& instance,
                      const SolveOptions& options = {});

/// Runs phase 1 only on an externally owned table; returns false iff some
/// list emptied (no stable matching). Exposed so tests can check the
/// phase-1 table invariant. `control` (optional) is charged per proposal.
bool run_phase1(ReductionTable& table, std::int64_t& proposals,
                Person& failed_person,
                resilience::ExecControl* control = nullptr);

/// True iff `match` is a perfect stable matching of `instance`: an involution
/// without fixed points, every pair mutually acceptable, and no blocking pair
/// (two people preferring each other to their assigned partners).
bool is_stable_matching(const RoommatesInstance& instance,
                        const std::vector<Person>& match);

}  // namespace kstable::rm
