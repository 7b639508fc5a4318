// E20 — incremental re-stabilization under preference churn
// (docs/INCREMENTAL.md).
//
// Claims regenerated:
//  * after a small preference delta, rematch() reproduces the cold re-solve
//    of the mutated instance bitwise (the self-check line below is grepped
//    by CI) while executing only the cold proposals of the tree edges the
//    delta touched: a touched edge is re-solved cold, which GS confluence
//    makes exact;
//  * the saving is the untouched edges: each returns its previous result
//    (or a cache hit) at zero proposals, so the work scales with the number
//    of touched tree edges, not with the tree;
//  * targeted cache invalidation drops only the touched oriented slots of
//    the k-1 tree edges, so untouched edges replay for free.
//
// The google-benchmark rows pin the timing ratio (bm_rematch_warm vs
// bm_resolve_cold at the same n) and the deterministic warm_proposals /
// cold_proposals counters that scripts/compare_bench.py gates exactly.

#include <string>
#include <utility>
#include <vector>

#include "bench_common.hpp"

#include "core/binding.hpp"
#include "core/gs_cache.hpp"
#include "graph/binding_structure.hpp"
#include "incremental/mutation.hpp"
#include "incremental/rematch.hpp"
#include "prefs/generators.hpp"
#include "prefs/kpartite.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

namespace {

using namespace kstable;

constexpr Gender kGenders = 4;

/// Applies `swaps` random adjacent-entry swaps to `inst` and returns the
/// merged delta (the shape the serve layer would accumulate between
/// re-stabilizations). Deterministic in `rng`.
incremental::MutationDelta apply_churn(KPartiteInstance& inst, int swaps,
                                       Rng& rng) {
  const Index n = inst.per_gender();
  auto delta = incremental::MutationDelta{};
  for (int s = 0; s < swaps; ++s) {
    const MemberId m{static_cast<Gender>(rng.below(
                         static_cast<std::uint64_t>(inst.genders()))),
                     static_cast<Index>(rng.below(
                         static_cast<std::uint64_t>(n)))};
    Gender target = static_cast<Gender>(
        rng.below(static_cast<std::uint64_t>(inst.genders() - 1)));
    if (target >= m.gender) ++target;
    const auto rank = static_cast<Index>(
        rng.below(static_cast<std::uint64_t>(n - 1)));
    auto one = incremental::swap_entries(inst, m, target, rank, rank + 1);
    if (s == 0) {
      delta = std::move(one);
    } else {
      delta.merge(one);
    }
  }
  return delta;
}

/// One frozen churn scenario per n: the pre-churn solve, the mutated
/// instance, and the single-swap delta bridging them. Both benchmarks replay
/// the same scenario every iteration, so their proposal counters are exactly
/// reproducible across machines.
struct Scenario {
  KPartiteInstance inst;          // post-delta instance
  core::BindingResult previous;   // solved on the pre-delta instance
  incremental::MutationDelta delta;
};

Scenario make_scenario(Index n) {
  Rng rng(202);
  auto inst = gen::uniform(kGenders, n, rng);
  Scenario s{std::move(inst), {}, {}};
  s.previous = core::iterative_binding(s.inst, trees::path(kGenders), {});
  // One swap at the top of a proposer's list over a tree edge: the smallest
  // delta that still re-solves an edge (not a pure reuse).
  s.delta = incremental::swap_entries(s.inst, {0, n / 2}, 1, 0, 1);
  return s;
}

void report() {
  std::cout << "E20: incremental re-stabilization under preference churn "
               "(k = " << kGenders << ", path tree, uniform)\n\n";

  TableWriter table(
      "rematch() vs cold re-solve (proposals are deterministic)",
      {"n", "swaps", "cold props", "rematch props", "props ratio",
       "edges reused/re-solved", "slots dropped", "cold ms", "rematch ms"});
  bool all_identical = true;
  const auto tree = trees::path(kGenders);
  Rng rng(201);
  for (Index n : {64, 256, 512}) {
    for (int swaps : {1, 4, 16}) {
      auto inst = gen::uniform(kGenders, n, rng);
      core::GsEdgeCache cache(inst);
      core::BindingOptions warm_init;
      warm_init.cache = &cache;
      const auto previous = core::iterative_binding(inst, tree, warm_init);

      const auto delta = apply_churn(inst, swaps, rng);
      incremental::RematchOptions options;
      options.cache = &cache;
      WallTimer warm_timer;
      const auto warm = incremental::rematch(inst, tree, previous, delta,
                                             options);
      const double warm_ms = warm_timer.millis();
      WallTimer cold_timer;
      const auto cold = core::iterative_binding(inst, tree, {});
      const double cold_ms = cold_timer.millis();

      all_identical =
          all_identical && warm.result.matching() == cold.matching();
      std::ostringstream edges;
      edges << (warm.edges_reused + warm.result.cache_hits) << "/"
            << warm.edges_warm;
      std::ostringstream slots;
      slots << warm.slots_invalidated << " of " << (kGenders - 1);
      table.add_row(
          {std::int64_t{n}, std::int64_t{swaps}, cold.total_proposals,
           warm.warm_executed_proposals,
           static_cast<double>(warm.warm_executed_proposals) /
               static_cast<double>(cold.total_proposals),
           edges.str(), slots.str(), cold_ms, warm_ms});
    }
  }
  table.print(std::cout);
  std::cout << "rematch/cold matchings bitwise identical: "
            << (all_identical ? "yes (incremental path is semantics-free)"
                              : "NO (BUG)")
            << "\n\n";
}

void bm_rematch_warm(benchmark::State& state) {
  const auto scenario = make_scenario(static_cast<Index>(state.range(0)));
  const auto tree = trees::path(kGenders);
  std::int64_t proposals = 0;
  for (auto _ : state) {
    const auto report = incremental::rematch(scenario.inst, tree,
                                             scenario.previous, scenario.delta);
    proposals += report.warm_executed_proposals;
    benchmark::DoNotOptimize(report.result.total_proposals);
  }
  state.counters["warm_proposals"] =
      benchmark::Counter(static_cast<double>(proposals),
                         benchmark::Counter::kAvgIterations);
}

void bm_resolve_cold(benchmark::State& state) {
  const auto scenario = make_scenario(static_cast<Index>(state.range(0)));
  const auto tree = trees::path(kGenders);
  std::int64_t proposals = 0;
  for (auto _ : state) {
    const auto cold = core::iterative_binding(scenario.inst, tree, {});
    proposals += cold.total_proposals;
    benchmark::DoNotOptimize(cold.total_proposals);
  }
  state.counters["cold_proposals"] =
      benchmark::Counter(static_cast<double>(proposals),
                         benchmark::Counter::kAvgIterations);
}

BENCHMARK(bm_rematch_warm)->Arg(64)->Arg(256)->Arg(1024);
BENCHMARK(bm_resolve_cold)->Arg(64)->Arg(256)->Arg(1024);

}  // namespace

KSTABLE_BENCH_MAIN(report)
