#include "incremental/rematch.hpp"

#include "util/check.hpp"

namespace kstable::incremental {

DeltaWarmStart::DeltaWarmStart(const core::BindingResult& previous,
                               const MutationDelta& delta)
    : previous_(previous), delta_(delta) {
  KSTABLE_REQUIRE(!delta.shape_changed,
                  "DeltaWarmStart cannot warm a shape-changed delta; "
                  "cold-solve the rebuilt instance");
}

std::optional<gs::GsResult> DeltaWarmStart::warm_solve(
    const KPartiteInstance& inst, GenderEdge edge,
    const core::BindingOptions& /*options*/) const {
  const gs::GsResult* prev = nullptr;
  for (const gs::GsResult& r : previous_.edge_results) {
    if (r.proposer_gender == edge.a && r.responder_gender == edge.b) {
      prev = &r;
      break;
    }
  }
  if (prev == nullptr ||
      prev->proposer_match.size() !=
          static_cast<std::size_t>(inst.per_gender())) {
    // A tree edge the previous solve never ran (retry ladder on a different
    // tree): nothing to reuse.
    edges_cold_.fetch_add(1, std::memory_order_relaxed);
    return std::nullopt;
  }
  if (delta_.touches(edge.a, edge.b)) {
    // A rewritten row over this pair: the selected engine re-solves it cold,
    // which GS confluence makes exact.
    edges_warm_.fetch_add(1, std::memory_order_relaxed);
    return std::nullopt;
  }
  // Neither side's rows over the other changed: the previous result is the
  // new instance's proposer-optimal matching verbatim.
  edges_reused_.fetch_add(1, std::memory_order_relaxed);
  return *prev;
}

DeltaWarmStart::Stats DeltaWarmStart::stats() const noexcept {
  return {edges_reused_.load(std::memory_order_relaxed),
          edges_warm_.load(std::memory_order_relaxed),
          edges_cold_.load(std::memory_order_relaxed)};
}

RematchReport rematch(const KPartiteInstance& inst,
                      const BindingStructure& tree,
                      const core::BindingResult& previous,
                      const MutationDelta& delta,
                      const RematchOptions& options) {
  KSTABLE_REQUIRE(delta.to_generation == inst.generation(),
                  "delta ends at generation "
                      << delta.to_generation << " but instance is at "
                      << inst.generation()
                      << " — rematch needs the delta covering every mutation "
                         "since the previous solve");
  RematchReport report;

  // Step 1: bring the cache forward. Targeted invalidation for row deltas,
  // full clear for shape churn (slot results are sized for the old n).
  if (options.cache != nullptr) {
    if (delta.shape_changed) {
      report.slots_invalidated = options.cache->clear();
    } else {
      for (const GenderEdge pair : delta.touched_pairs()) {
        // Both orientations: responder preferences decide accept/reject, so
        // GS(a,b) and GS(b,a) are both stale (gs_cache.hpp contract).
        report.slots_invalidated +=
            options.cache->invalidate({pair.a, pair.b});
        report.slots_invalidated +=
            options.cache->invalidate({pair.b, pair.a});
      }
    }
    options.cache->rebind(inst);
  }

  // Step 2: re-solve, reusing every edge the delta left untouched.
  core::BindingOptions bopts;
  bopts.engine = options.engine;
  bopts.pool = options.pool;
  bopts.control = options.control;
  bopts.cache = options.cache;
  if (delta.shape_changed) {
    report.cold_fallback = true;
    report.result = core::iterative_binding(inst, tree, bopts);
    return report;
  }
  const DeltaWarmStart provider(previous, delta);
  bopts.warm_start = &provider;
  report.result = core::iterative_binding(inst, tree, bopts);
  const DeltaWarmStart::Stats stats = provider.stats();
  report.edges_reused = stats.edges_reused;
  report.edges_warm = stats.edges_warm;
  report.edges_cold = stats.edges_cold;
  report.warm_executed_proposals = report.result.executed_proposals;
  return report;
}

}  // namespace kstable::incremental
