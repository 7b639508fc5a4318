// Parallel execution of the binding process (paper §IV.C).
//
// Binding edges commute: each binary GS reads the shared preference data and
// writes only its own match arrays, so any set of edges can execute
// concurrently on real threads. The *PRAM discipline* the paper analyzes is
// stricter (EREW: one binding per gender per round), so this executor runs
// the schedule the chosen model allows — Δ coloring rounds for EREW, a single
// round for CREW — while measuring both the model-charged cost (Corollary 1:
// ≤ Δn² iterations; Corollary 2: 2 rounds on a path) and real wall-clock.
#pragma once

#include <cstdint>

#include "core/binding.hpp"
#include "parallel/pram.hpp"
#include "parallel/thread_pool.hpp"

namespace kstable::core {

enum class ExecutionMode {
  sequential,   ///< one edge at a time on the calling thread
  erew_rounds,  ///< edge-coloring rounds; intra-round edges on the pool
  crew_full     ///< all edges concurrently (concurrent reads allowed)
};

struct ParallelBindingReport {
  BindingResult binding;          ///< per-edge results + assembled matching
  pram::CostReport cost;          ///< model-charged cost (see pram.hpp)
  std::int64_t rounds_executed = 0;
};

/// Executes `tree`'s bindings under `mode` using `pool`, then charges the
/// matching PRAM cost model. The produced matching is identical across all
/// modes (binding edges are independent); tests assert this determinism.
/// Every edge runs the shared per-edge step (core::bind_edge, engine queue),
/// on the pool for the EREW/CREW schedules. A non-null `control` is checked
/// at every per-round barrier and before and inside each edge's GS run
/// (worker aborts propagate through the pool's exception channel); throws
/// ExecutionAborted on deadline/budget/cancel.
ParallelBindingReport execute_binding(const KPartiteInstance& inst,
                                      const BindingStructure& tree,
                                      ExecutionMode mode, ThreadPool& pool,
                                      resilience::ExecControl* control = nullptr);

}  // namespace kstable::core
