// E18 — `kary best` as a minimum arborescence: the bound-pair-cost winner
// over all k^(k-2) binding trees from (k-1)² GS runs and Chu–Liu/Edmonds.
//
// Cayley's formula (cited for Theorem 3) gives k^(k-2) spanning binding
// trees. A tree's bound-pair cost is the sum of c(a→b), the egalitarian cost
// of GS(a, b), over its oriented edges, and the Prüfer-decoded trees are
// exactly the in-arborescences rooted at k-1 (docs/ALGORITHMS.md §4), so
// core::best_tree fills c for the (k-1)² edges whose proposer is not k-1,
// runs Edmonds on that table in O(k³), and binds only the winner. Two
// claims are measured:
//
//   1. Work: exactly (k-1)² fresh GS runs at every k (exact counter
//      `gs_runs`, gated against BENCH_E18.json), then the winner's k-1
//      edges replay as cache hits.
//   2. Identity: at k <= 6 the winner's bound-pair cost equals the minimum
//      over binding every tree (core::sweep_all_trees), and so do its tree
//      and matching when that minimum is unique.

#include <string>

#include "bench_common.hpp"

#include "core/gs_cache.hpp"
#include "core/tree_selection.hpp"
#include "core/tree_sweep.hpp"
#include "prefs/generators.hpp"
#include "prefs/kpartite.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

namespace {

using namespace kstable;

constexpr Index kSize = 64;

KPartiteInstance tree_instance(Gender k) {
  Rng rng(8101);
  return gen::uniform(k, kSize, rng);
}

/// One best_tree call on a fresh instance-bound cache.
core::BestTree best(const KPartiteInstance& inst) {
  core::GsEdgeCache cache(inst);
  core::BindingOptions options;
  options.cache = &cache;
  return core::best_tree(inst, options);
}

/// "yes" when `tree` has the score table's least bound-pair cost and, if
/// that minimum is unique, the table winner's tree and matching too.
std::string agrees_with_every_tree(const KPartiteInstance& inst,
                                   const core::BestTree& tree) {
  const auto every = core::sweep_all_trees(inst);
  std::int64_t tied = 0;
  for (const auto& point : every.per_tree) {
    tied += point.bound_pair_cost == every.best_cost ? 1 : 0;
  }
  const bool agrees =
      every.best_cost == tree.optimum.cost &&
      (tied > 1 || (every.best_tree->edges() == tree.tree.edges() &&
                    every.matching() == tree.binding.matching()));
  if (!agrees) return "NO (BUG)";
  return tied > 1 ? "yes (cost; " + std::to_string(tied) + " tied)" : "yes";
}

void report() {
  std::cout << "E18: kary best as a minimum arborescence ((k-1)^2 GS runs, "
               "Chu-Liu/Edmonds)\n\n";
  TableWriter table(
      "Best binding tree over all k^(k-2) trees (n=64, uniform)",
      {"k", "GS runs", "(k-1)^2", "cache hits", "bound-pair cost",
       "dual sets", "wall ms", "every-tree winner"});
  for (const Gender k : {5, 6, 7, 8, 16, 32, 64}) {
    const auto inst = tree_instance(k);
    const WallTimer timer;
    const auto tree = best(inst);
    const double wall_ms = timer.millis();
    const std::string agrees =
        k <= 6 ? agrees_with_every_tree(inst, tree) : "not run (k > 6)";
    const auto runs = static_cast<std::int64_t>(k - 1) * (k - 1);
    table.add_row({std::int64_t{k}, tree.binding.cache_misses, runs,
                   tree.binding.cache_hits, tree.optimum.cost,
                   static_cast<std::int64_t>(tree.optimum.dual.size()),
                   wall_ms, agrees});
    if (tree.binding.cache_misses != runs || tree.binding.cache_hits != k - 1) {
      std::cout << "k=" << k << ": " << tree.binding.cache_misses
                << " GS runs and " << tree.binding.cache_hits
                << " cache hits: NO (BUG)\n";
    }
  }
  table.print(std::cout);
  std::cout << "'every-tree winner' binds all k^(k-2) trees "
               "(core::sweep_all_trees) and compares its least bound-pair "
               "cost, and its tree and matching when that minimum is "
               "unique.\n";
}

// Registered twins for BENCH_E18.json: range(0) = k, n = 64. The counter is
// exact: gs_runs = (k-1)^2.
void bm_best_tree(benchmark::State& state) {
  const auto k = static_cast<Gender>(state.range(0));
  const auto inst = tree_instance(k);
  std::int64_t gs_runs = 0;
  for (auto _ : state) {
    const auto result = best(inst);
    gs_runs = result.binding.cache_misses;
    benchmark::DoNotOptimize(result.optimum.cost);
  }
  state.counters["gs_runs"] = static_cast<double>(gs_runs);
}
BENCHMARK(bm_best_tree)->Arg(5)->Arg(6)->Arg(7)->Arg(8)->Arg(16)->Arg(32)
    ->Arg(64)->Unit(benchmark::kMillisecond)->UseRealTime();

}  // namespace

KSTABLE_BENCH_MAIN(report)
