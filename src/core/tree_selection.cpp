#include "core/tree_selection.hpp"

#include <algorithm>
#include <limits>
#include <optional>
#include <utility>

#include "analysis/metrics.hpp"
#include "core/equivalence.hpp"
#include "core/gs_cache.hpp"
#include "graph/prufer.hpp"
#include "observability/telemetry.hpp"
#include "util/check.hpp"
#include "util/timer.hpp"

namespace kstable::core {

namespace {

constexpr std::int64_t kNoEdge = std::numeric_limits<std::int64_t>::max();

/// One graph of Edmonds' recursion: nodes 0..m-1 ordered by lowest gender,
/// root {k-1} last; w[x*m + y] is x→y's reduced cost (kNoEdge on the diagonal
/// and out of the root), from[] its gender edge, set[x] node x's DualSet.
struct Level {
  std::size_t m = 0;
  std::vector<std::int64_t> w;
  std::vector<GenderEdge> from;
  std::vector<std::size_t> set;
};

/// The gender edge leaving each non-root node of `g` in its minimum
/// in-arborescence; adds each node's y share to `dual`.
std::vector<GenderEdge> solve_level(Level g, std::vector<DualSet>& dual) {
  const std::size_t m = g.m;
  const std::size_t root = m - 1;
  std::vector<std::size_t> best(root);
  std::vector<GenderEdge> out(root);
  for (std::size_t x = 0; x < root; ++x) {
    const auto row = g.w.begin() + static_cast<std::ptrdiff_t>(x * m);
    best[x] = static_cast<std::size_t>(std::min_element(row, row + m) - row);
    dual[g.set[x]].y += row[best[x]];
    out[x] = g.from[x * m + best[x]];
  }
  // The first cycle of the cheapest edges, scanning from node 0 upward.
  std::vector<std::size_t> stamp(m, m);
  std::vector<bool> in_cycle(m, false);
  std::size_t low = m;  // the cycle's lowest node
  for (std::size_t s = 0; s < root && low == m; ++s) {
    std::size_t x = s;
    for (; x != root && stamp[x] == m; x = best[x]) stamp[x] = s;
    if (x == root || stamp[x] != s) continue;
    for (low = x; !in_cycle[x]; x = best[x]) {
      in_cycle[x] = true;
      low = std::min(low, x);
    }
  }
  if (low == m) return out;

  // Contract the cycle into one node at its lowest member's place, so the
  // order by lowest gender survives and the root stays last.
  std::vector<std::size_t> map(m);
  Level h;
  for (std::size_t x = 0; x < m; ++x) {
    map[x] = in_cycle[x] && x != low ? map[low] : h.m++;
  }
  h.set.resize(h.m - 1);
  DualSet merged;
  for (std::size_t x = 0; x < root; ++x) {
    if (!in_cycle[x]) {
      h.set[map[x]] = g.set[x];
      continue;
    }
    const auto& members = dual[g.set[x]].members;
    merged.members.insert(merged.members.end(), members.begin(), members.end());
  }
  h.set[map[low]] = dual.size();
  dual.push_back(std::move(merged));
  h.w.assign(h.m * h.m, kNoEdge);
  h.from.resize(h.m * h.m);
  for (std::size_t x = 0; x < root; ++x) {
    for (std::size_t y = 0; y < m; ++y) {
      const std::size_t cell = map[x] * h.m + map[y];
      const std::int64_t reduced = g.w[x * m + y] - g.w[x * m + best[x]];
      if (map[x] != map[y] && reduced < h.w[cell]) {
        h.w[cell] = reduced;
        h.from[cell] = g.from[x * m + y];
      }
    }
  }
  // Neither matrix is read again: freeing them keeps the recursion at O(k²)
  // memory in all rather than O(k³).
  g.w = std::vector<std::int64_t>();
  g.from = std::vector<GenderEdge>();

  // Expand: the cycle keeps its own edges but at the node the contracted
  // node's edge leaves from.
  const std::vector<GenderEdge> chosen = solve_level(std::move(h), dual);
  for (std::size_t x = 0; x < root; ++x) {
    const GenderEdge e = chosen[map[x]];
    const auto& members = dual[g.set[x]].members;
    if (!in_cycle[x] || std::ranges::find(members, e.a) != members.end()) {
      out[x] = e;
    }
  }
  return out;
}

}  // namespace

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

Arborescence min_arborescence(Gender k,
                              const std::vector<std::int64_t>& cost) {
  KSTABLE_REQUIRE(k >= 2, "an arborescence needs k >= 2, got " << k);
  const auto m = static_cast<std::size_t>(k);
  KSTABLE_REQUIRE(cost.size() == m * m,
                  "cost table has " << cost.size() << " entries for k=" << k);
  Level g{m, std::vector<std::int64_t>(m * m, kNoEdge),
          std::vector<GenderEdge>(m * m), {}};
  Arborescence out{std::vector<Gender>(m, -1), 0, {}};
  for (Gender a = 0; a + 1 < k; ++a) {
    g.set.push_back(out.dual.size());
    out.dual.push_back({{a}, 0});
    for (Gender b = 0; b < k; ++b) {
      const std::size_t e = static_cast<std::size_t>(a * k + b);
      if (a == b) continue;
      KSTABLE_REQUIRE(cost[e] >= 0,
                      "negative cost c(" << a << "->" << b << ")");
      g.w[e] = cost[e];
      g.from[e] = {a, b};
    }
  }
  for (const GenderEdge e : solve_level(std::move(g), out.dual)) {
    out.parent[static_cast<std::size_t>(e.a)] = e.b;
    out.cost += cost[static_cast<std::size_t>(e.a * k + e.b)];
  }
  return out;
}

BestTree best_tree(const KPartiteInstance& inst,
                   const BindingOptions& options) {
  const WallTimer timer;
  const Gender k = inst.genders();
  std::optional<GsEdgeCache> local;
  BindingOptions bopts = options;
  if (bopts.cache == nullptr) bopts.cache = &local.emplace(inst);

  // Gender k-1 never proposes in a decoded tree: (k-1)² GS runs.
  std::vector<std::int64_t> costs(static_cast<std::size_t>(k * k), -1);
  BindingResult tally;
  gs::GsResult edge;
  for (Gender a = 0; a + 1 < k; ++a) {
    for (Gender b = 0; b < k; ++b) {
      if (a == b) continue;
      bind_edge(inst, {a, b}, bopts, edge, tally);
      costs[static_cast<std::size_t>(a * k + b)] = egalitarian_cost(inst, edge);
    }
  }
  const double table_ms = timer.millis();
  Arborescence optimum = min_arborescence(k, costs);
  const double edmonds_ms = timer.millis() - table_ms;

  // Re-decoding the Prüfer code lists the edges in the order the same tree
  // had as a Prüfer-enumerated candidate.
  BindingStructure parents(k);
  for (Gender v = 0; v + 1 < k; ++v) {
    parents.add_edge({v, optimum.parent[static_cast<std::size_t>(v)]});
  }
  BindingStructure tree = prufer::decode(prufer::encode(parents), k);
  BindingResult binding = iterative_binding(inst, tree, bopts);
  KSTABLE_ENSURE(
      analysis::kary_tree_costs(inst, binding.matching(), tree).total_cost ==
          optimum.cost,
      "best tree: bound-pair cost differs from its edge-table sum "
          << optimum.cost);
  binding.executed_proposals += tally.executed_proposals;
  binding.cache_hits += tally.cache_hits;
  binding.cache_misses += tally.cache_misses;

  obs::SolveTelemetry& t = binding.telemetry;
  t.engine = "binding.best";
  t.wall_ms = timer.millis();
  t.phase_count = 0;
  t.add_phase("table", table_ms);
  t.add_phase("edmonds", edmonds_ms);
  t.add_phase("bind", t.wall_ms - table_ms - edmonds_ms);
  t.executed_proposals = binding.executed_proposals;
  t.cache_hits = binding.cache_hits;
  t.cache_misses = binding.cache_misses;
  obs::record(t);
  return {std::move(costs), std::move(optimum), std::move(tree),
          std::move(binding)};
}

BindingResult cost_aware_binding(const KPartiteInstance& inst,
                                 TreeObjective objective,
                                 const BindingOptions& options) {
  return iterative_binding(inst, select_tree(inst, objective, options),
                           options);
}

}  // namespace kstable::core
