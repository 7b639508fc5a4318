#include "core/tree_selection.hpp"

#include <algorithm>

#include "core/equivalence.hpp"

namespace kstable::core {

std::int64_t egalitarian_cost(const KPartiteInstance& inst,
                              const gs::GsResult& result) {
  const Gender a = result.proposer_gender;
  const Gender b = result.responder_gender;
  std::int64_t cost = 0;
  for (Index p = 0; p < inst.per_gender(); ++p) {
    const Index r = result.proposer_match[static_cast<std::size_t>(p)];
    cost += inst.rank_of({a, p}, {b, r});
    cost += inst.rank_of({b, r}, {a, p});
  }
  return cost;
}

std::vector<PairProbe> probe_all_pairs(const KPartiteInstance& inst,
                                       const BindingOptions& options) {
  const Gender k = inst.genders();
  std::vector<PairProbe> probes;
  probes.reserve(static_cast<std::size_t>(k) *
                 static_cast<std::size_t>(k - 1) / 2);
  for (Gender a = 0; a < k; ++a) {
    for (Gender b = a + 1; b < k; ++b) {
      const auto result = run_binding(inst, {a, b}, options);
      probes.push_back({{a, b}, egalitarian_cost(inst, result),
                        result.proposals});
    }
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
  std::vector<GenderEdge> order;
  order.reserve(probes.size());
  for (const auto& probe : probes) order.push_back(probe.edge);
  return greedy_spanning_tree(inst.genders(), order);
}

BindingResult cost_aware_binding(const KPartiteInstance& inst,
                                 TreeObjective objective,
                                 const BindingOptions& options) {
  return iterative_binding(inst, select_tree(inst, objective, options),
                           options);
}

}  // namespace kstable::core
