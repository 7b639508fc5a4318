#include "core/tree_selection.hpp"

#include <algorithm>

#include "core/equivalence.hpp"
#include "util/check.hpp"

namespace kstable::core {

std::vector<PairProbe> probe_all_pairs(const KPartiteInstance& inst,
                                       const BindingOptions& options) {
  const Gender k = inst.genders();
  // Probe slots are laid out in (a, b) order up front so the parallel path
  // writes each slot independently and the returned vector is identical to
  // the sequential one (determinism does not depend on completion order).
  std::vector<PairProbe> probes(static_cast<std::size_t>(k) *
                                static_cast<std::size_t>(k - 1) / 2);
  std::size_t next = 0;
  for (Gender a = 0; a < k; ++a) {
    for (Gender b = a + 1; b < k; ++b) probes[next++].edge = {a, b};
  }

  const auto probe_one = [&inst](PairProbe& probe,
                                 const BindingOptions& bopts) {
    const Gender a = probe.edge.a;
    const Gender b = probe.edge.b;
    const auto result = run_binding(inst, probe.edge, bopts);
    probe.proposals = result.proposals;
    for (Index p = 0; p < inst.per_gender(); ++p) {
      const Index r = result.proposer_match[static_cast<std::size_t>(p)];
      probe.cost += inst.rank_of({a, p}, {b, r});
      probe.cost += inst.rank_of({b, r}, {a, p});
    }
  };

  // The k(k-1)/2 probes are independent GS runs, so fan them out when a pool
  // is attached and the per-edge engine is sequential (GsEngine::parallel
  // already owns the pool). The nested-pool guard keeps a probe pass inside
  // a BatchSolver item sequential.
  const bool parallel_run =
      options.pool != nullptr && options.engine != GsEngine::parallel &&
      !ThreadPool::in_worker_thread() && options.pool->thread_count() > 1 &&
      probes.size() > 1;
  if (parallel_run) {
    options.pool->for_each_index(probes.size(), [&](std::size_t i) {
      thread_local gs::GsWorkspace workspace;
      BindingOptions bopts = options;
      bopts.workspace = &workspace;
      probe_one(probes[i], bopts);
    });
  } else {
    for (auto& probe : probes) probe_one(probe, options);
  }
  return probes;
}

BindingStructure select_tree(const KPartiteInstance& inst,
                             TreeObjective objective,
                             const BindingOptions& options) {
  auto probes = probe_all_pairs(inst, options);
  std::sort(probes.begin(), probes.end(),
            [objective](const PairProbe& x, const PairProbe& y) {
              return objective == TreeObjective::min_cost ? x.cost < y.cost
                                                          : x.cost > y.cost;
            });
  // Kruskal: take edges in score order, skipping cycle-closers.
  BindingStructure tree(inst.genders());
  for (const auto& probe : probes) {
    if (tree.is_spanning_tree()) break;
    if (!tree.would_cycle(probe.edge.a, probe.edge.b)) {
      tree.add_edge(probe.edge);
    }
  }
  KSTABLE_ENSURE(tree.is_spanning_tree(), "Kruskal failed to span");
  return tree;
}

BindingResult cost_aware_binding(const KPartiteInstance& inst,
                                 TreeObjective objective,
                                 const BindingOptions& options) {
  return iterative_binding(inst, select_tree(inst, objective, options),
                           options);
}

}  // namespace kstable::core
