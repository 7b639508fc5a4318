#include "core/oriented_binding.hpp"

#include "util/check.hpp"

namespace kstable::core {

OrientedBindingResult oriented_binding(const KPartiteInstance& inst,
                                       const BindingStructure& tree,
                                       OrientationPolicy policy,
                                       const BindingOptions& options) {
  KSTABLE_REQUIRE(tree.is_spanning_tree(),
                  "oriented binding requires a spanning tree");
  const Gender k = inst.genders();
  const Index n = inst.per_gender();

  const WallTimer timer;
  OrientedBindingResult result{
      {}, BindingStructure(k),
      std::vector<std::int64_t>(static_cast<std::size_t>(k), 0)};
  const auto& edges = tree.edges();
  result.binding.edge_results.resize(edges.size());
  for (std::size_t e = 0; e < edges.size(); ++e) {
    const GenderEdge edge = edges[e];
    GenderEdge oriented = edge;
    switch (policy) {
      case OrientationPolicy::as_given:
        break;
      case OrientationPolicy::alternate:
        if (e % 2 == 1) oriented = {edge.b, edge.a};
        break;
      case OrientationPolicy::balance_greedy: {
        // The currently unhappier gender proposes (proposer advantage).
        const auto cost_a =
            result.gender_cost[static_cast<std::size_t>(edge.a)];
        const auto cost_b =
            result.gender_cost[static_cast<std::size_t>(edge.b)];
        if (cost_b > cost_a) oriented = {edge.b, edge.a};
        break;
      }
    }
    result.oriented.add_edge(oriented);
    gs::GsResult& gs_result = result.binding.edge_results[e];
    bind_edge(inst, oriented, options, gs_result, result.binding);
    // Accumulate both sides' partner-rank costs for the balancing policy.
    for (Index p = 0; p < n; ++p) {
      const Index r = gs_result.proposer_match[static_cast<std::size_t>(p)];
      result.gender_cost[static_cast<std::size_t>(oriented.a)] +=
          inst.rank_of({oriented.a, p}, {oriented.b, r});
      result.gender_cost[static_cast<std::size_t>(oriented.b)] +=
          inst.rank_of({oriented.b, r}, {oriented.a, p});
    }
  }
  finish_binding(result.binding, inst, result.oriented, options,
                 "binding.oriented", "bind", timer);
  KSTABLE_ENSURE(result.binding.equivalence.consistent,
                 "oriented spanning-tree binding must be consistent");
  obs::record(result.binding.telemetry);
  return result;
}

}  // namespace kstable::core
