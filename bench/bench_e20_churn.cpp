// E20 — incremental re-stabilization under preference churn
// (docs/INCREMENTAL.md).
//
// Claims regenerated:
//  * after a small preference delta, rematch() reproduces the cold re-solve
//    of the mutated instance bitwise (the self-check lines below are
//    grepped by CI) while executing only the cold proposals of the tree
//    edges whose previous result the delta invalidated;
//  * exact replay: a touched edge whose changed ranks lie outside what
//    Gale-Shapley read (the proposers' walks, the responders' order over
//    their suitors) keeps its previous result, and when no tree edge needs
//    a re-solve rematch skips Algorithm 1 altogether (0 proposals);
//  * the saving is the untouched and replayed edges: each returns its
//    previous result (or a cache hit) at zero proposals, so the work scales
//    with the number of re-solved tree edges, not with the tree;
//  * targeted cache invalidation drops only the stale oriented slots of
//    the k-1 tree edges, so untouched and replayed edges replay for free.
//
// The google-benchmark rows pin the timing ratio (bm_rematch_warm vs
// bm_resolve_cold at the same n) and the deterministic warm_proposals /
// cold_proposals counters that scripts/compare_bench.py gates exactly;
// bm_rematch_replay's frozen edit misses the read region, so its
// warm_proposals is pinned at 0.

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
/// instance, and the single-swap delta bridging them. The benchmarks replay
/// the same scenario every iteration, so their proposal counters are exactly
/// reproducible across machines.
struct Scenario {
  KPartiteInstance inst;          // post-delta instance
  core::BindingResult previous;   // solved on the pre-delta instance
  incremental::MutationDelta delta;
};

/// Where the frozen swap lands in proposer (0, n/2)'s list over gender 1,
/// the path tree's first edge.
enum class Edit {
  top,     ///< ranks 0 and 1: inside the walk, so the edge re-solves
  bottom,  ///< ranks n-2 and n-1: below the walk, so the edge replays
};

Scenario make_scenario(Index n, Edit edit) {
  Rng rng(202);
  auto inst = gen::uniform(kGenders, n, rng);
  Scenario s{std::move(inst), {}, {}};
  s.previous = core::iterative_binding(s.inst, trees::path(kGenders), {});
  const MemberId proposer{0, n / 2};
  s.delta = edit == Edit::top
                ? incremental::swap_entries(s.inst, proposer, 1, 0, 1)
                : incremental::swap_entries(s.inst, proposer, 1, n - 2, n - 1);
  return s;
}

/// The bm_rematch_replay scenarios really replay: their rematch re-solves
/// nothing, skips Algorithm 1 and still equals the cold solve.
bool replay_scenarios_hold() {
  const auto tree = trees::path(kGenders);
  bool held = true;
  for (Index n : {64, 256, 1024}) {
    const auto scenario = make_scenario(n, Edit::bottom);
    const auto report = incremental::rematch(scenario.inst, tree,
                                             scenario.previous, scenario.delta);
    const auto cold = core::iterative_binding(scenario.inst, tree, {});
    held = held && report.edges_replayed == 1 && report.binding_skipped &&
           report.warm_executed_proposals == 0 &&
           report.result.matching() == cold.matching();
  }
  return held;
}

void report() {
  std::cout << "E20: incremental re-stabilization under preference churn "
               "(k = " << kGenders << ", path tree, uniform)\n\n";

  TableWriter table(
      "rematch() vs cold re-solve (proposals are deterministic)",
      {"n", "swaps", "cold props", "rematch props", "props ratio",
       "edges reused/replayed/re-solved", "slots dropped", "cold ms",
       "rematch ms"});
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
      edges << warm.edges_reused << "/" << warm.edges_replayed << "/"
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
            << "\n";
  std::cout << "replay scenarios skip Algorithm 1 at 0 proposals: "
            << (replay_scenarios_hold() ? "yes" : "NO (BUG)") << "\n\n";
}

void run_rematch(benchmark::State& state, Edit edit) {
  const auto scenario = make_scenario(static_cast<Index>(state.range(0)), edit);
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

void bm_rematch_warm(benchmark::State& state) { run_rematch(state, Edit::top); }

void bm_rematch_replay(benchmark::State& state) {
  run_rematch(state, Edit::bottom);
}

void bm_resolve_cold(benchmark::State& state) {
  const auto scenario =
      make_scenario(static_cast<Index>(state.range(0)), Edit::top);
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
BENCHMARK(bm_rematch_replay)->Arg(64)->Arg(256)->Arg(1024);
BENCHMARK(bm_resolve_cold)->Arg(64)->Arg(256)->Arg(1024);

}  // namespace

KSTABLE_BENCH_MAIN(report)
