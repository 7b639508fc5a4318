// Iterative Binding GS — Algorithm 1 of the paper (§IV.A) and its
// generalization to arbitrary binding structures for the Theorem 4 tightness
// experiments (§IV.B).
//
// Algorithm 1 applies one binary Gale-Shapley matching per edge of a spanning
// binding tree over the gender set, then converts the pair set into k-ary
// families through the "same matching tuple" equivalence relation
// (equivalence.hpp). Theorem 2: the result is always a stable k-ary matching.
// Theorem 3: it takes at most (k-1)n² accumulated proposals. Theorem 4: k-1
// bindings are tight — bind_structure on a cyclic edge set generally yields
// inconsistent equivalence classes, and on a proper forest the index-assembled
// matching is generally unstable.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/equivalence.hpp"
#include "graph/binding_structure.hpp"
#include "gs/gale_shapley.hpp"
#include "observability/telemetry.hpp"
#include "prefs/kpartite.hpp"
#include "prefs/matching.hpp"
#include "resilience/control.hpp"
#include "util/timer.hpp"

namespace kstable::core {

/// Which Gale-Shapley engine runs each binary binding: the queue loop
/// (prefetch-pipelined, the default) or the paper's rounds (§II.A verbatim).
/// The speculative parallel engine (Cor. 1-2), gs::gale_shapley_parallel,
/// takes its own pool and runs outside the binding path (E7, DiffRunner).
enum class GsEngine { queue, rounds };

/// Number of GsEngine values. Keep NEXT TO the enum and update together when
/// adding an engine: GsEdgeCache sizes its slot table from this and
/// static_asserts against its own compiled-in constant, so a new engine
/// cannot silently alias cache slots.
inline constexpr std::size_t kGsEngineCount = 2;

/// Static-lifetime display/metrics label of an engine.
[[nodiscard]] constexpr const char* to_string(GsEngine engine) noexcept {
  switch (engine) {
    case GsEngine::queue: return "queue";
    case GsEngine::rounds: return "rounds";
  }
  return "unknown";
}

class GsEdgeCache;  // core/gs_cache.hpp

struct BindingOptions {
  GsEngine engine = GsEngine::queue;
  /// Optional deadline/budget/cancellation control, threaded into every
  /// per-edge GS run and checked between edges. Throws ExecutionAborted.
  resilience::ExecControl* control = nullptr;
  /// Optional per-instance memo of per-edge GS outcomes (core/gs_cache.hpp).
  /// Must be built for THIS instance's gender count and never shared across
  /// instances. Cache hits skip the GS run entirely — including its
  /// ExecControl charges — so multi-tree retries get already-solved edges
  /// for free. Semantically invisible: matchings are bitwise-identical with
  /// and without a cache.
  GsEdgeCache* cache = nullptr;
  /// Optional scratch buffers for the engines (gs::GsWorkspace); a warm
  /// workspace makes every per-edge GS run allocation-free. Owned by the
  /// calling thread.
  gs::GsWorkspace* workspace = nullptr;
};

/// Result of binding a structure (tree, forest, or cyclic edge set).
struct BindingResult {
  /// Per-edge GS outcomes, aligned with structure.edges().
  std::vector<gs::GsResult> edge_results;
  /// Equivalence-class outcome (consistency, assembled matching).
  EquivalenceReport equivalence;
  /// Accumulated proposals over all bindings (Theorem 3's unit). Cached
  /// edges contribute the proposals of their original computation, so this
  /// stays the semantic per-tree quantity the Theorem 3 bound is about.
  std::int64_t total_proposals = 0;
  /// Proposals actually executed by THIS call — cache hits and the previous
  /// results incremental::rematch hands in as known contribute nothing.
  /// Equals total_proposals for a cold, uncached solve; the E15 cache
  /// ablation accumulates this across trees.
  std::int64_t executed_proposals = 0;
  /// Edge-cache outcomes for this call's edges (both 0 without a cache).
  std::int64_t cache_hits = 0;
  std::int64_t cache_misses = 0;
  /// How the solve ended (always SolveOutcome::ok when the call returns —
  /// aborts throw — but carried so ladder/serving layers report uniformly).
  resilience::SolveStatus status;
  /// Structured per-solve record (engine, shape, timing breakdown, counters)
  /// assembled by bind_structure and re-labeled by the higher drivers
  /// (parallel executor, Algorithm 2, ladder). Exported via
  /// telemetry.to_json() / to_prometheus().
  obs::SolveTelemetry telemetry;

  [[nodiscard]] bool has_matching() const {
    return equivalence.matching.has_value();
  }
  [[nodiscard]] const KaryMatching& matching() const {
    return *equivalence.matching;
  }
};

/// Runs one binary binding GS(edge.a proposes, edge.b responds): returns
/// `*known` if given — the caller vouches that it is bitwise what the
/// selected engine would return on `inst` — and runs the engine otherwise.
/// With options.cache attached, a memoized result wins and a miss publishes
/// the returned result; `cache_hit` (if non-null) reports whether the cache
/// answered.
gs::GsResult run_binding(const KPartiteInstance& inst, GenderEdge edge,
                         const BindingOptions& options,
                         bool* cache_hit = nullptr,
                         const gs::GsResult* known = nullptr);

/// The per-edge step every Algorithm 1 driver runs: the core/binding_edge
/// fault point, a control check, run_binding into `slot`, then the
/// executed-proposal and cache tally into `tally` (atomic, so workers may
/// step distinct slots of one result concurrently). An edge counts as
/// executed unless the cache answered or `known` was given.
void bind_edge(const KPartiteInstance& inst, GenderEdge edge,
               const BindingOptions& options, gs::GsResult& slot,
               BindingResult& tally, const gs::GsResult* known = nullptr);

/// The finish every Algorithm 1 driver shares: total proposals over
/// result.edge_results, derive_families over `structure`, status, and
/// telemetry labelled `engine` (nullptr = the per-engine binding label) with
/// phases `work` (everything before this call, timed from `timer`) and
/// `assemble`. On a spanning tree it also ensures Theorem 2 (consistent
/// classes) and Theorem 3 (at most (k-1)n² accumulated proposals). Records
/// nothing: the driver adjusts, then calls obs::record.
void finish_binding(BindingResult& result, const KPartiteInstance& inst,
                    const BindingStructure& structure,
                    const BindingOptions& options, const char* engine,
                    const char* work, const WallTimer& timer);

/// Algorithm 1: iterative binding over a spanning tree. The tree is REQUIRED
/// to be spanning (use bind_structure for forests/cycles); the result always
/// carries a consistent KaryMatching.
BindingResult iterative_binding(const KPartiteInstance& inst,
                                const BindingStructure& tree,
                                const BindingOptions& options = {});

/// Generalized binding over any simple edge set. Spanning tree => Algorithm 1.
/// Forest => families assembled by class index across components (generally
/// unstable; Theorem 4 lower side). Cyclic => equivalence classes may be
/// inconsistent (Theorem 4 upper side); check result.equivalence.consistent.
BindingResult bind_structure(const KPartiteInstance& inst,
                             const BindingStructure& structure,
                             const BindingOptions& options = {});

/// Algorithm 1's tree-construction loop made explicit: consume candidate
/// edges in order, adding each edge that does not close a cycle, until a
/// spanning tree exists. Throws if the candidates cannot span.
BindingStructure greedy_spanning_tree(Gender k,
                                      const std::vector<GenderEdge>& candidates);

/// §IV.B's "strengthen the family tie" direction: more than k-1 bindings
/// require the extra edges' GS matchings to agree with the families already
/// implied — which "may not always exist". This greedy maximizer starts from
/// `base` (a spanning tree by default) and adds every remaining gender pair
/// whose GS matching keeps the equivalence classes consistent. Returns the
/// final structure and binding result; result.equivalence is always
/// consistent. The number of accepted extra edges measures how much
/// "strengthening" an instance admits (master lists admit all C(k,2);
/// uniform instances almost none — see E6).
struct StrengthenResult {
  BindingStructure structure;      ///< base + accepted extra edges
  BindingResult binding;           ///< results for the final structure
  std::int32_t extra_accepted = 0; ///< edges beyond the base
  std::int32_t extra_rejected = 0;
};
StrengthenResult strengthen_bindings(const KPartiteInstance& inst,
                                     const BindingStructure& base,
                                     const BindingOptions& options = {});

}  // namespace kstable::core
