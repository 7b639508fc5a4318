#include "core/tree_sweep.hpp"

#include <functional>
#include <limits>
#include <utility>

#include "analysis/metrics.hpp"
#include "core/tree_selection.hpp"
#include "graph/prufer.hpp"
#include "observability/metrics.hpp"
#include "util/check.hpp"
#include "util/timer.hpp"

namespace kstable::core {

namespace {

/// Trees scanned between two control checks of the best_cost scan: a tree
/// costs O(k) additions there, so a per-tree check would dominate it.
constexpr std::int64_t kControlStride = 1024;

/// Produces candidate `index`.
using TreeProvider = std::function<BindingStructure(std::int64_t)>;

/// The running argmin of (bound-pair cost, index) over the scanned trees.
struct Argmin {
  std::int64_t index = -1;
  std::int64_t cost = std::numeric_limits<std::int64_t>::max();

  /// Candidates arrive in index order, so a tie never displaces the winner.
  bool offer(std::int64_t candidate, std::int64_t candidate_cost) {
    if (candidate_cost >= cost) return false;
    index = candidate;
    cost = candidate_cost;
    return true;
  }
};

/// c(a→b) and the proposal count of GS(a, b), filled on first use through
/// run_binding (via bind_edge, which tallies executed proposals and cache
/// outcomes into `tally`).
class EdgeTable {
 public:
  EdgeTable(const KPartiteInstance& inst, const BindingOptions& options)
      : inst_(inst),
        options_(options),
        cost_(static_cast<std::size_t>(inst.genders()) *
                  static_cast<std::size_t>(inst.genders()),
              -1),
        proposals_(cost_.size(), 0) {}

  /// Adds edge a→b's cost and proposals to the running per-tree sums.
  void add(Gender a, Gender b, std::int64_t& cost, std::int64_t& proposals) {
    const std::size_t e =
        static_cast<std::size_t>(a) * static_cast<std::size_t>(inst_.genders()) +
        static_cast<std::size_t>(b);
    if (cost_[e] < 0) {
      gs::GsResult result;
      bind_edge(inst_, {a, b}, options_, result, tally);
      cost_[e] = egalitarian_cost(inst_, result);
      proposals_[e] = result.proposals;
    }
    cost += cost_[e];
    proposals += proposals_[e];
  }

  BindingResult tally;

 private:
  const KPartiteInstance& inst_;
  const BindingOptions& options_;
  std::vector<std::int64_t> cost_;
  std::vector<std::int64_t> proposals_;
};

/// Stats, wall time and the "sweep" telemetry record, then the registry.
void finish_sweep(TreeSweepResult& out, const KPartiteInstance& inst,
                  const WallTimer& timer) {
  TreeSweepStats& st = out.stats;
  st.wall_ms = timer.millis();
  st.trees_per_sec = st.wall_ms > 0.0
                         ? static_cast<double>(st.trees) / (st.wall_ms / 1e3)
                         : 0.0;

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
  KSTABLE_GAUGE_SET("sweep.trees_per_sec", st.trees_per_sec);
}

void require_cache_fits(const KPartiteInstance& inst,
                        const TreeSweepOptions& opt) {
  if (opt.cache == nullptr) return;
  KSTABLE_REQUIRE(opt.cache->genders() == inst.genders(),
                  "cache built for k=" << opt.cache->genders()
                                       << ", instance has k="
                                       << inst.genders());
}

/// SweepFold::best_cost: `scan(table, visit)` offers every candidate's
/// (index, table cost, table proposals) to `visit` in index order; the
/// winner `provider(index)` is then bound once, its k-1 edges all cache
/// hits.
template <typename Scan>
TreeSweepResult table_sweep(const KPartiteInstance& inst,
                            const TreeProvider& provider,
                            const TreeSweepOptions& opt, Scan&& scan) {
  require_cache_fits(inst, opt);
  const WallTimer timer;
  std::optional<GsEdgeCache> local;
  GsEdgeCache& cache =
      opt.cache != nullptr ? *opt.cache : local.emplace(inst);
  gs::GsWorkspace workspace;
  BindingOptions bopts;
  bopts.control = opt.control;
  bopts.cache = &cache;
  bopts.workspace = &workspace;

  TreeSweepResult out;
  TreeSweepStats& st = out.stats;
  EdgeTable table(inst, bopts);
  Argmin argmin;
  scan(table, [&](std::int64_t index, std::int64_t cost,
                  std::int64_t proposals) {
    if (opt.control != nullptr && index % kControlStride == 0) {
      opt.control->check_now();
    }
    ++st.trees;
    st.total_proposals += proposals;
    argmin.offer(index, cost);
  });

  st.executed_proposals = table.tally.executed_proposals;
  st.cache_hits = table.tally.cache_hits;
  st.cache_misses = table.tally.cache_misses;
  if (argmin.index >= 0) {
    BindingStructure tree = provider(argmin.index);
    BindingResult best = iterative_binding(inst, tree, bopts);
    KSTABLE_ENSURE(
        analysis::kary_tree_costs(inst, best.matching(), tree).total_cost ==
            argmin.cost,
        "tree " << argmin.index << ": bound-pair cost differs from its "
                << "edge-table sum " << argmin.cost);
    st.executed_proposals += best.executed_proposals;
    st.cache_hits += best.cache_hits;
    st.cache_misses += best.cache_misses;
    out.best_index = argmin.index;
    out.best_cost = argmin.cost;
    out.best = std::move(best);
    out.best_tree = std::move(tree);
  }
  finish_sweep(out, inst, timer);
  return out;
}

/// SweepFold::score_table: binds every candidate in index order.
TreeSweepResult score_sweep(const KPartiteInstance& inst, std::int64_t count,
                            const TreeProvider& provider,
                            const TreeSweepOptions& opt) {
  require_cache_fits(inst, opt);
  const WallTimer timer;
  gs::GsWorkspace workspace;
  BindingOptions bopts;
  bopts.control = opt.control;
  bopts.cache = opt.cache;
  bopts.workspace = &workspace;

  TreeSweepResult out;
  TreeSweepStats& st = out.stats;
  Argmin argmin;
  for (std::int64_t index = 0; index < count; ++index) {
    if (opt.control != nullptr) opt.control->check_now();
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
    point.prufer = prufer::encode(tree);
    point.bound_pair_cost = cost;
    point.all_pairs_cost =
        analysis::kary_costs(inst, result.matching()).total_cost;
    point.total_proposals = result.total_proposals;
    point.executed_proposals = result.executed_proposals;
    point.cache_hits = result.cache_hits;
    point.cache_misses = result.cache_misses;
    if (opt.keep_matchings) point.matching = result.matching();

    if (argmin.offer(index, cost)) {
      out.best = std::move(result);
      out.best_tree = std::move(tree);
    }
  }
  out.best_index = argmin.index;
  out.best_cost = argmin.index >= 0 ? argmin.cost : 0;
  finish_sweep(out, inst, timer);
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
  const TreeProvider provider = [k](std::int64_t index) {
    return prufer::tree_at(index, k);
  };
  if (options.fold == SweepFold::score_table) {
    return score_sweep(inst, count, provider, options);
  }
  return table_sweep(inst, provider, options, [k](EdgeTable& table,
                                                  const auto& visit) {
    // Index order is the odometer order of the codes, each decoded with
    // prufer::decode's leaf rule into reused buffers.
    std::vector<Gender> code(static_cast<std::size_t>(k - 2), 0);
    std::vector<std::int32_t> degree;
    std::int64_t index = 0;
    do {
      std::int64_t cost = 0;
      std::int64_t proposals = 0;
      prufer::for_each_decoded_edge(code, k, degree,
                                    [&](Gender leaf, Gender parent) {
                                      table.add(leaf, parent, cost, proposals);
                                    });
      visit(index++, cost, proposals);
    } while (prufer::next_code(code, k));
  });
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
  const TreeProvider provider = [&candidates](std::int64_t index) {
    return candidates[static_cast<std::size_t>(index)];
  };
  const auto count = static_cast<std::int64_t>(candidates.size());
  if (options.fold == SweepFold::score_table) {
    return score_sweep(inst, count, provider, options);
  }
  return table_sweep(inst, provider, options, [&candidates](
                                                  EdgeTable& table,
                                                  const auto& visit) {
    for (std::size_t i = 0; i < candidates.size(); ++i) {
      std::int64_t cost = 0;
      std::int64_t proposals = 0;
      for (const auto& e : candidates[i].edges()) {
        table.add(e.a, e.b, cost, proposals);
      }
      visit(static_cast<std::int64_t>(i), cost, proposals);
    }
  });
}

}  // namespace kstable::core
