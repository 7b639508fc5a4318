#include "core/tree_sweep.hpp"

#include <utility>

#include "analysis/metrics.hpp"
#include "graph/prufer.hpp"
#include "observability/metrics.hpp"
#include "util/check.hpp"
#include "util/timer.hpp"

namespace kstable::core {

namespace {

/// Binds candidates provider(0..count-1) in index order, then records the
/// "sweep" telemetry.
template <typename Provider>
TreeSweepResult score_sweep(const KPartiteInstance& inst, std::int64_t count,
                            const Provider& provider,
                            const TreeSweepOptions& opt) {
  const WallTimer timer;
  BindingOptions bopts;
  bopts.cache = opt.cache;

  TreeSweepResult out;
  TreeSweepStats& st = out.stats;
  for (std::int64_t index = 0; index < count; ++index) {
    BindingStructure tree = provider(index);
    BindingResult result = iterative_binding(inst, tree, bopts);
    const std::int64_t cost =
        analysis::kary_tree_costs(inst, result.matching(), tree).total_cost;

    ++st.trees;
    st.total_proposals += result.total_proposals;
    st.executed_proposals += result.executed_proposals;
    st.cache_hits += result.cache_hits;
    st.cache_misses += result.cache_misses;

    TreePoint& point = out.per_tree.emplace_back();
    point.index = index;
    point.bound_pair_cost = cost;
    point.total_proposals = result.total_proposals;
    if (opt.keep_matchings) point.matching = result.matching();

    // Candidates arrive in index order, so a tie never displaces the winner.
    if (out.best_index < 0 || cost < out.best_cost) {
      out.best_index = index;
      out.best_cost = cost;
      out.best = std::move(result);
      out.best_tree = std::move(tree);
    }
  }

  st.wall_ms = timer.millis();
  obs::SolveTelemetry& t = out.telemetry;
  t.engine = "sweep";
  t.genders = inst.genders();
  t.size = inst.per_gender();
  t.wall_ms = st.wall_ms;
  t.add_phase("sweep", st.wall_ms);
  if (out.best.has_value()) t.status = out.best->status;
  t.proposals = st.total_proposals;
  t.executed_proposals = st.executed_proposals;
  t.cache_hits = st.cache_hits;
  t.cache_misses = st.cache_misses;
  t.attempts = st.trees;
  obs::record(t);
  KSTABLE_COUNTER_ADD("sweep.trees", st.trees);
  return out;
}

}  // namespace

TreeSweepResult sweep_all_trees(const KPartiteInstance& inst,
                                const TreeSweepOptions& options) {
  const Gender k = inst.genders();
  KSTABLE_REQUIRE(k >= 2, "a tree sweep needs k >= 2, got " << k);
  const std::int64_t count = prufer::cayley_count(k);
  KSTABLE_REQUIRE(count <= kMaxSweepTrees,
                  "full sweep of k=" << k << " spans " << count
                                     << " trees, above the " << kMaxSweepTrees
                                     << "-tree guard");
  return score_sweep(
      inst, count,
      [k](std::int64_t index) { return prufer::tree_at(index, k); }, options);
}

TreeSweepResult sweep_trees(const KPartiteInstance& inst,
                            const std::vector<BindingStructure>& candidates,
                            const TreeSweepOptions& options) {
  for (const auto& tree : candidates) {
    KSTABLE_REQUIRE(tree.genders() == inst.genders(),
                    "candidate tree has " << tree.genders()
                                          << " genders, instance "
                                          << inst.genders());
    KSTABLE_REQUIRE(tree.is_spanning_tree(),
                    "sweep candidates must be spanning binding trees");
  }
  return score_sweep(
      inst, static_cast<std::int64_t>(candidates.size()),
      [&candidates](std::int64_t index) {
        return candidates[static_cast<std::size_t>(index)];
      },
      options);
}

}  // namespace kstable::core
