// E18 — `kary best` as a table argmin: the bound-pair-cost winner over all
// k^(k-2) binding trees from (k-1)² GS runs and one sequential Prüfer scan.
//
// Cayley's formula (cited for Theorem 3) gives k^(k-2) spanning binding
// trees. A tree's bound-pair cost is the sum of c(a→b), the egalitarian cost
// of GS(a, b), over its oriented edges (docs/ALGORITHMS.md), so
// core::sweep_all_trees under SweepFold::best_cost fills c on first use,
// decodes every Prüfer code into reused buffers, and binds only the
// winner. Two claims are measured:
//
//   1. Work: exactly k^(k-2) trees scanned and (k-1)² fresh GS runs — Prüfer
//      decoding never makes gender k-1 a proposer — at every k (exact
//      counters `trees` and `gs_runs`, gated against BENCH_E18.json).
//   2. Identity: at k <= 6 the table winner (index, cost, matching) equals
//      the winner of binding every tree (SweepFold::score_table).

#include <string>

#include "bench_common.hpp"

#include "core/gs_cache.hpp"
#include "core/tree_sweep.hpp"
#include "graph/prufer.hpp"
#include "prefs/generators.hpp"
#include "prefs/kpartite.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

namespace {

using namespace kstable;

constexpr Index kSize = 64;

KPartiteInstance scan_instance(Gender k) {
  Rng rng(8101);
  return gen::uniform(k, kSize, rng);
}

/// One best_cost sweep on a fresh instance-bound cache.
core::TreeSweepResult best_scan(const KPartiteInstance& inst) {
  core::GsEdgeCache cache(inst);
  core::TreeSweepOptions options;
  options.cache = &cache;
  return core::sweep_all_trees(inst, options);
}

void report() {
  std::cout << "E18: kary best as a table argmin ((k-1)^2 GS runs, one "
               "Prüfer scan)\n\n";
  TableWriter table(
      "Best-tree scan over all k^(k-2) trees (n=64, uniform)",
      {"k", "trees", "GS runs", "(k-1)^2", "best index", "bound-pair cost",
       "wall ms", "every-tree winner"});
  for (const Gender k : {5, 6, 7, 8}) {
    const auto inst = scan_instance(k);
    const auto scan = best_scan(inst);
    std::string agrees = "not run (k > 6)";
    if (k <= 6) {
      core::GsEdgeCache cache(inst);
      core::TreeSweepOptions options;
      options.cache = &cache;
      options.fold = core::SweepFold::score_table;
      const auto every = core::sweep_all_trees(inst, options);
      agrees = every.best_index == scan.best_index &&
                       every.best_cost == scan.best_cost &&
                       every.matching() == scan.matching()
                   ? "yes"
                   : "NO (BUG)";
    }
    const auto runs = static_cast<std::int64_t>(k - 1) * (k - 1);
    table.add_row({std::int64_t{k}, scan.stats.trees, scan.stats.cache_misses,
                   runs, scan.best_index, scan.best_cost, scan.stats.wall_ms,
                   agrees});
    if (scan.stats.trees != prufer::cayley_count(k) ||
        scan.stats.cache_misses != runs) {
      std::cout << "k=" << k << ": scanned " << scan.stats.trees
                << " trees with " << scan.stats.cache_misses
                << " GS runs: NO (BUG)\n";
    }
  }
  table.print(std::cout);
  std::cout << "'every-tree winner' binds all k^(k-2) trees (score_table) and "
               "compares its winner's index, cost and matching with the "
               "table's.\n";
}

// Registered twins for BENCH_E18.json: range(0) = k, n = 64. The counters
// are exact: trees = k^(k-2), gs_runs = (k-1)^2.
void bm_best_scan(benchmark::State& state) {
  const auto k = static_cast<Gender>(state.range(0));
  const auto inst = scan_instance(k);
  std::int64_t gs_runs = 0;
  std::int64_t trees = 0;
  for (auto _ : state) {
    const auto result = best_scan(inst);
    gs_runs = result.stats.cache_misses;
    trees = result.stats.trees;
    benchmark::DoNotOptimize(result.best_cost);
  }
  state.counters["trees"] = static_cast<double>(trees);
  state.counters["gs_runs"] = static_cast<double>(gs_runs);
}
BENCHMARK(bm_best_scan)->Arg(5)->Arg(6)->Arg(7)->Arg(8)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

}  // namespace

KSTABLE_BENCH_MAIN(report)
