#include "core/binding.hpp"

#include <atomic>
#include <utility>

#include "core/gs_cache.hpp"
#include "resilience/fault_injection.hpp"
#include "util/check.hpp"

namespace kstable::core {

namespace {

/// GS(edge.a proposes, edge.b responds) by the queue engine on the calling
/// thread's workspace, no cache involvement.
gs::GsResult run_gs(const KPartiteInstance& inst, GenderEdge edge,
                    const BindingOptions& options) {
  thread_local gs::GsWorkspace workspace;
  gs::GsOptions gs_options;
  gs_options.control = options.control;
  gs::GsResult result;
  gs::gale_shapley_queue(inst, edge.a, edge.b, gs_options, workspace, result);
  return result;
}

}  // namespace

gs::GsResult run_binding(const KPartiteInstance& inst, GenderEdge edge,
                         const BindingOptions& options, bool* cache_hit,
                         const gs::GsResult* known) {
  if (cache_hit != nullptr) *cache_hit = false;
  const auto compute = [&]() -> gs::GsResult {
    return known != nullptr ? *known : run_gs(inst, edge, options);
  };
  if (options.cache == nullptr) return compute();
  KSTABLE_REQUIRE(options.cache->genders() == inst.genders(),
                  "cache built for k=" << options.cache->genders()
                                       << ", instance has k="
                                       << inst.genders());
  // Staleness guard: a generation-bound cache refuses to serve an instance
  // that has mutated since binding (docs/INCREMENTAL.md — invalidate() +
  // rebind() is the sanctioned path). Throws std::logic_error.
  options.cache->check_instance(inst);
  return options.cache->get_or_compute(edge, compute, cache_hit);
}

void bind_edge(const KPartiteInstance& inst, GenderEdge edge,
               const BindingOptions& options, gs::GsResult& slot,
               BindingResult& tally, const gs::GsResult* known) {
  KSTABLE_FAULT_POINT("core/binding_edge");
  if (options.control != nullptr) options.control->check_now();
  bool hit = false;
  slot = run_binding(inst, edge, options, &hit, known);
  if (!hit && known == nullptr) {
    std::atomic_ref(tally.executed_proposals)
        .fetch_add(slot.proposals, std::memory_order_relaxed);
  }
  if (options.cache != nullptr) {
    std::atomic_ref(hit ? tally.cache_hits : tally.cache_misses)
        .fetch_add(1, std::memory_order_relaxed);
  }
}

void finish_binding(BindingResult& result, const KPartiteInstance& inst,
                    const BindingStructure& structure,
                    const BindingOptions& options, const char* engine,
                    const char* work, const WallTimer& timer) {
  const double work_ms = timer.millis();
  for (const auto& r : result.edge_results) {
    result.total_proposals += r.proposals;
  }
  result.equivalence = derive_families(inst, structure, result.edge_results);
  if (structure.is_spanning_tree()) {
    // Theorem 2: a spanning tree always yields consistent k-tuples.
    KSTABLE_ENSURE(result.equivalence.consistent,
                   "spanning-tree binding produced inconsistent classes: "
                       << result.equivalence.inconsistency);
    // Theorem 3: at most (k-1) n² accumulated proposals.
    const std::int64_t bound =
        static_cast<std::int64_t>(inst.genders() - 1) *
        static_cast<std::int64_t>(inst.per_gender()) *
        static_cast<std::int64_t>(inst.per_gender());
    KSTABLE_ENSURE(result.total_proposals <= bound,
                   "proposal count " << result.total_proposals
                                     << " exceeds the Theorem 3 bound "
                                     << bound);
  }
  result.status.proposals = result.total_proposals;
  result.status.wall_ms = timer.millis();

  obs::SolveTelemetry& t = result.telemetry;
  t.engine = engine != nullptr ? engine : "binding.queue";
  t.genders = inst.genders();
  t.size = inst.per_gender();
  t.wall_ms = result.status.wall_ms;
  t.add_phase(work, work_ms);
  t.add_phase("assemble", t.wall_ms - work_ms);
  t.status = result.status;
  t.proposals = result.total_proposals;
  t.executed_proposals = result.executed_proposals;
  t.cache_hits = result.cache_hits;
  t.cache_misses = result.cache_misses;
  t.attempts = 1;
  for (const auto& r : result.edge_results) t.rounds += r.rounds;
  if (options.control != nullptr && options.control->budget().wall_ms > 0.0) {
    const double margin =
        options.control->budget().wall_ms - options.control->elapsed_ms();
    t.deadline_margin_ms = margin > 0.0 ? margin : 0.0;
  }
}

BindingResult bind_structure(const KPartiteInstance& inst,
                             const BindingStructure& structure,
                             const BindingOptions& options) {
  KSTABLE_REQUIRE(structure.genders() == inst.genders(),
                  "structure has " << structure.genders()
                                   << " genders, instance " << inst.genders());
  const WallTimer timer;
  const auto& edges = structure.edges();
  BindingResult result;
  result.edge_results.resize(edges.size());
  for (std::size_t e = 0; e < edges.size(); ++e) {
    bind_edge(inst, edges[e], options, result.edge_results[e], result);
  }
  finish_binding(result, inst, structure, options, nullptr, "bind", timer);
  obs::record(result.telemetry);
  return result;
}

BindingResult iterative_binding(const KPartiteInstance& inst,
                                const BindingStructure& tree,
                                const BindingOptions& options) {
  KSTABLE_REQUIRE(tree.is_spanning_tree(),
                  "Algorithm 1 requires a spanning binding tree; "
                  "use bind_structure for forests/cycles");
  return bind_structure(inst, tree, options);
}

StrengthenResult strengthen_bindings(const KPartiteInstance& inst,
                                     const BindingStructure& base,
                                     const BindingOptions& options) {
  KSTABLE_REQUIRE(base.is_forest(),
                  "strengthen_bindings starts from an acyclic base");
  StrengthenResult result{BindingStructure(inst.genders()), {}, 0, 0};
  const WallTimer timer;
  // Re-add the base edges, then try every absent pair in (a, b) order.
  std::vector<GenderEdge> candidates = base.edges();
  const auto base_count = static_cast<std::int32_t>(candidates.size());
  for (Gender a = 0; a < inst.genders(); ++a) {
    for (Gender b = a + 1; b < inst.genders(); ++b) {
      bool present = false;
      for (const auto& e : base.edges()) {
        present |= e.normalized() == GenderEdge{a, b};
      }
      if (!present) candidates.push_back({a, b});
    }
  }

  // Every candidate is bound (and tallied); a rejected one's slot is dropped.
  std::vector<gs::GsResult> edge_results;
  for (std::size_t idx = 0; idx < candidates.size(); ++idx) {
    const auto edge = candidates[idx];
    const bool is_base = static_cast<std::int32_t>(idx) < base_count;
    // Tentatively add the edge and re-derive the classes.
    BindingStructure trial = result.structure;
    trial.add_edge(edge);
    auto trial_results = edge_results;
    bind_edge(inst, edge, options, trial_results.emplace_back(),
              result.binding);
    if (derive_families(inst, trial, trial_results).consistent) {
      result.structure = std::move(trial);
      edge_results = std::move(trial_results);
      if (!is_base) ++result.extra_accepted;
    } else {
      KSTABLE_REQUIRE(!is_base, "base edges can never conflict (forest)");
      ++result.extra_rejected;
    }
  }
  result.binding.edge_results = std::move(edge_results);
  finish_binding(result.binding, inst, result.structure, options,
                 "binding.strengthen", "strengthen", timer);
  KSTABLE_ENSURE(result.binding.equivalence.consistent,
                 "strengthened structure lost consistency");
  obs::record(result.binding.telemetry);
  return result;
}

BindingStructure greedy_spanning_tree(
    Gender k, const std::vector<GenderEdge>& candidates) {
  BindingStructure tree(k);
  for (const auto& edge : candidates) {
    if (tree.is_spanning_tree()) break;
    if (!tree.would_cycle(edge.a, edge.b)) tree.add_edge(edge);
  }
  KSTABLE_REQUIRE(tree.is_spanning_tree(),
                  "candidate edges do not span the " << k << " genders");
  return tree;
}

}  // namespace kstable::core
