// E15 — §IV.B ablation: does the choice among the k^(k-2) binding trees
// matter, and can it be optimized?
//
// The paper observes that different binding trees generate different stable
// k-ary matchings but leaves tree choice open. This ablation compares path /
// star / random / cost-aware (Kruskal over per-pair GS probe costs) trees on
// bound-pair cost, all-pairs cost, and regret, across preference families
// (uniform / popularity-correlated / euclidean / tiered). The probe phase
// doubles the proposal budget — the table reports that overhead too.

#include <algorithm>

#include "bench_common.hpp"

#include "analysis/metrics.hpp"
#include "core/binding.hpp"
#include "core/gs_cache.hpp"
#include "core/oriented_binding.hpp"
#include "core/tree_selection.hpp"
#include "core/tree_sweep.hpp"
#include "graph/binding_structure.hpp"
#include "graph/prufer.hpp"
#include "prefs/generators.hpp"
#include "prefs/kpartite.hpp"
#include "resilience/fault_injection.hpp"
#include "resilience/solve_ladder.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

namespace {

using namespace kstable;

void report() {
  std::cout << "E15: binding-tree selection ablation (§IV.B)\n\n";

  const Gender k = 6;
  const Index n = 64;
  const int seeds = 10;

  for (const auto& [family, make] :
       std::vector<std::pair<std::string,
                             KPartiteInstance (*)(Gender, Index, Rng&)>>{
           {"uniform",
            +[](Gender kk, Index nn, Rng& r) { return gen::uniform(kk, nn, r); }},
           {"popularity(0.5)",
            +[](Gender kk, Index nn, Rng& r) {
              return gen::popularity(kk, nn, r, 0.5);
            }},
           {"euclidean(2d)",
            +[](Gender kk, Index nn, Rng& r) {
              return gen::euclidean(kk, nn, 2, r);
            }},
           {"tiered(4)",
            +[](Gender kk, Index nn, Rng& r) {
              return gen::tiered(kk, nn, 4, r);
            }}}) {
    TableWriter table("Tree ablation on " + family + " preferences (k=6, "
                          "n=64, 10 seeds avg)",
                      {"tree", "bound-pair cost", "all-pairs cost", "regret",
                       "proposals"});
    struct Acc {
      double bound = 0, all = 0, regret = 0, proposals = 0;
    };
    Acc path_acc, star_acc, random_acc, min_acc, max_acc;
    for (int seed = 0; seed < seeds; ++seed) {
      Rng rng(static_cast<std::uint64_t>(seed) * 389 + 7);
      const auto inst = make(k, n, rng);
      auto run = [&](Acc& acc, const BindingStructure& tree,
                     std::int64_t extra_proposals) {
        const auto result = core::iterative_binding(inst, tree);
        acc.bound += static_cast<double>(
            analysis::kary_tree_costs(inst, result.matching(), tree).total_cost);
        const auto all = analysis::kary_costs(inst, result.matching());
        acc.all += static_cast<double>(all.total_cost);
        acc.regret += all.regret;
        acc.proposals +=
            static_cast<double>(result.total_proposals + extra_proposals);
      };
      run(path_acc, trees::path(k), 0);
      run(star_acc, trees::star(k, 0), 0);
      Rng tree_rng(static_cast<std::uint64_t>(seed) + 1);
      run(random_acc, prufer::random_tree(k, tree_rng), 0);
      // Cost-aware trees pay for the probes: k(k-1)/2 GS runs.
      const auto probes = core::probe_all_pairs(inst);
      std::int64_t probe_cost = 0;
      for (const auto& probe : probes) probe_cost += probe.proposals;
      run(min_acc, core::select_tree(inst, core::TreeObjective::min_cost),
          probe_cost);
      run(max_acc, core::select_tree(inst, core::TreeObjective::max_cost),
          probe_cost);
    }
    auto row = [&](const char* name, const Acc& acc) {
      table.add_row({std::string(name), acc.bound / seeds, acc.all / seeds,
                     acc.regret / seeds, acc.proposals / seeds});
    };
    row("path", path_acc);
    row("star(0)", star_acc);
    row("random", random_acc);
    row("cost-aware min", min_acc);
    row("cost-aware max (control)", max_acc);
    table.print(std::cout);
  }
  std::cout << "Reading: 'bound-pair cost' is what binding optimizes; "
               "'all-pairs cost' includes the unbound cross pairs that no "
               "tree controls.\n\n";

  // Orientation ablation: each binding edge has a proposer and a responder
  // ("a proposer (a man in the G-S algorithm) to a responder (a woman)",
  // §IV.B) — GS favors the proposer, so edge orientation shifts cost between
  // genders even on the same tree.
  TableWriter orient("Edge-orientation ablation on the path tree (k=4, n=64, "
                     "uniform, 10 seeds avg of per-gender costs)",
                     {"orientation", "g0 cost", "g1 cost", "g2 cost",
                      "g3 cost"});
  std::vector<double> fwd(4, 0.0), rev(4, 0.0);
  for (int seed = 0; seed < seeds; ++seed) {
    Rng rng(static_cast<std::uint64_t>(seed) * 911 + 3);
    const auto inst = gen::uniform(4, n, rng);
    BindingStructure forward(4);   // lower gender proposes
    BindingStructure backward(4);  // higher gender proposes
    for (Gender g = 0; g + 1 < 4; ++g) {
      forward.add_edge({g, static_cast<Gender>(g + 1)});
      backward.add_edge({static_cast<Gender>(g + 1), g});
    }
    const auto f = core::iterative_binding(inst, forward);
    const auto b = core::iterative_binding(inst, backward);
    const auto fc = analysis::kary_tree_costs(inst, f.matching(), forward);
    const auto bc = analysis::kary_tree_costs(inst, b.matching(), backward);
    for (Gender g = 0; g < 4; ++g) {
      fwd[static_cast<std::size_t>(g)] +=
          static_cast<double>(fc.per_gender_cost[static_cast<std::size_t>(g)]);
      rev[static_cast<std::size_t>(g)] +=
          static_cast<double>(bc.per_gender_cost[static_cast<std::size_t>(g)]);
    }
  }
  orient.add_row({std::string("low gender proposes"), fwd[0] / seeds,
                  fwd[1] / seeds, fwd[2] / seeds, fwd[3] / seeds});
  orient.add_row({std::string("high gender proposes"), rev[0] / seeds,
                  rev[1] / seeds, rev[2] / seeds, rev[3] / seeds});
  orient.print(std::cout);
  std::cout << "Shape: the proposer side of each edge is happier (lower "
               "cost); flipping orientations flips the asymmetry.\n\n";

  // Orientation POLICIES: can choosing proposers dynamically even out the
  // per-gender costs? (core::oriented_binding)
  TableWriter policies("Orientation policies on the star tree (k=6, n=64, "
                       "uniform, 10 seeds avg; star center proposes "
                       "everywhere under 'as given')",
                       {"policy", "max gender cost", "min gender cost",
                        "spread"});
  double fixed_hi = 0, fixed_lo = 0, rev_hi = 0, rev_lo = 0, alt_hi = 0,
         alt_lo = 0, bal_hi = 0, bal_lo = 0;
  // Reversed star: every leaf proposes to the center.
  BindingStructure reversed_star(6);
  for (Gender g = 1; g < 6; ++g) reversed_star.add_edge({g, 0});
  for (int seed = 0; seed < seeds; ++seed) {
    Rng rng(static_cast<std::uint64_t>(seed) * 613 + 29);
    const auto inst = gen::uniform(6, 64, rng);
    auto run = [&](const BindingStructure& tree,
                   core::OrientationPolicy policy, double& hi, double& lo) {
      const auto result = core::oriented_binding(inst, tree, policy);
      const auto [mn, mx] = std::minmax_element(result.gender_cost.begin(),
                                                result.gender_cost.end());
      hi += static_cast<double>(*mx);
      lo += static_cast<double>(*mn);
    };
    run(trees::star(6, 0), core::OrientationPolicy::as_given, fixed_hi,
        fixed_lo);
    run(reversed_star, core::OrientationPolicy::as_given, rev_hi, rev_lo);
    run(trees::star(6, 0), core::OrientationPolicy::alternate, alt_hi, alt_lo);
    // balance_greedy repairs even the bad starting orientation.
    run(reversed_star, core::OrientationPolicy::balance_greedy, bal_hi,
        bal_lo);
  }
  policies.add_row({std::string("center proposes (as given)"),
                    fixed_hi / seeds, fixed_lo / seeds,
                    (fixed_hi - fixed_lo) / seeds});
  policies.add_row({std::string("leaves propose (reversed)"), rev_hi / seeds,
                    rev_lo / seeds, (rev_hi - rev_lo) / seeds});
  policies.add_row({std::string("alternate"), alt_hi / seeds, alt_lo / seeds,
                    (alt_hi - alt_lo) / seeds});
  policies.add_row({std::string("balance greedy (from reversed)"),
                    bal_hi / seeds, bal_lo / seeds,
                    (bal_hi - bal_lo) / seeds});
  policies.print(std::cout);
  std::cout << '\n';

  // Cache ablation: sweeping all k^(k-2) binding trees re-solves the same
  // oriented edges over and over — GS confluence makes each per-edge result a
  // pure function of (instance, oriented edge, engine), so core::GsEdgeCache
  // collapses the sweep to at most k(k-1) fresh GS runs. executed_proposals
  // counts fresh work only; total_proposals keeps the Theorem 3 semantic sum
  // either way.
  {
    const Gender ck = 5;
    Rng rng(7309);
    const auto inst = gen::uniform(ck, 64, rng);
    // The sweep binds every tree (E18 measures core::best_tree, which binds
    // only the winner), so the cache effect shows here.
    core::TreeSweepOptions sweep_options;
    sweep_options.keep_matchings = true;
    const auto off = core::sweep_all_trees(inst, sweep_options);
    core::GsEdgeCache cache(ck);
    sweep_options.cache = &cache;
    const auto on = core::sweep_all_trees(inst, sweep_options);
    const std::int64_t trees_swept = off.stats.trees;
    const std::int64_t executed_off = off.stats.executed_proposals;
    const std::int64_t executed_on = on.stats.executed_proposals;
    const std::int64_t total_either = off.stats.total_proposals;
    bool identical = off.per_tree.size() == on.per_tree.size();
    for (std::size_t i = 0; identical && i < off.per_tree.size(); ++i) {
      identical = *off.per_tree[i].matching == *on.per_tree[i].matching &&
                  off.per_tree[i].total_proposals ==
                      on.per_tree[i].total_proposals;
    }
    const auto stats = cache.stats();
    TableWriter ablation("Edge-cache ablation: all k^(k-2) trees (k=5, n=64, "
                         "uniform)",
                         {"cache", "trees", "executed proposals",
                          "fresh GS runs", "cache hits"});
    ablation.add_row({std::string("off"),
                      static_cast<double>(trees_swept),
                      static_cast<double>(executed_off),
                      static_cast<double>(trees_swept) * (ck - 1), 0.0});
    ablation.add_row({std::string("on"),
                      static_cast<double>(trees_swept),
                      static_cast<double>(executed_on),
                      static_cast<double>(stats.misses),
                      static_cast<double>(stats.hits)});
    ablation.print(std::cout);
    std::cout << "Matchings bitwise-identical cache-on vs cache-off: "
              << (identical ? "yes" : "NO (BUG)")
              << "; executed-proposal reduction: "
              << static_cast<double>(executed_off) /
                     static_cast<double>(std::max<std::int64_t>(executed_on, 1))
              << "x (acceptance floor: 5x); semantic Theorem 3 sum unchanged "
              << "at " << total_either << ".\n\n";
  }

  // Cache x resilience ladder: retries after injected faults re-bind edges
  // the aborted attempts already completed. Fault hits are counted before
  // run_binding, so the retry path is identical with and without the cache —
  // only the executed work changes.
  {
    const Gender ck = 5;
    Rng rng(7411);
    const auto inst = gen::uniform(ck, 64, rng);
    resilience::FaultConfig config;
    config.fire_after = 1;
    config.probability = 1.0;
    config.max_fires = 2;
    resilience::FallbackOptions ladder;
    ladder.max_tree_attempts = 4;

    auto run_ladder = [&](core::GsEdgeCache* cache) {
      ladder.cache = cache;
      resilience::ScopedFault fault("core/binding_edge", config);
      return resilience::solve_with_fallback(inst, ladder);
    };
    const auto uncached = run_ladder(nullptr);
    core::GsEdgeCache cache(ck);
    const auto cold = run_ladder(&cache);   // first request warms the cache
    const auto warm = run_ladder(&cache);   // retried request replays it

    TableWriter fallback("Edge-cache x solve_with_fallback (k=5, n=64, "
                         "fault core/binding_edge fires on hits 2 and 4)",
                         {"run", "attempts", "executed proposals",
                          "cache hits", "same matching"});
    auto row = [&](const char* name, const resilience::FallbackReport& r) {
      fallback.add_row(
          {std::string(name), static_cast<double>(r.attempts.size()),
           static_cast<double>(r.executed_proposals),
           static_cast<double>(r.cache_hits),
           std::string(r.succeeded && uncached.succeeded &&
                               r.matching() == uncached.matching()
                           ? "yes"
                           : "NO")});
    };
    row("cache off", uncached);
    row("cache on, cold", cold);
    row("cache on, warm (request retried)", warm);
    fallback.print(std::cout);
    std::cout << "Cache hits are never charged against ExecControl budgets, "
                 "so deadline-bound retries get completed edges for free.\n";
  }
}

// Registered twins of the report's cache ablation so BENCH_e15.json records
// the numbers: range(0) = 1 with cache, 0 without.
void bm_multi_tree_sweep(benchmark::State& state) {
  const bool use_cache = state.range(0) != 0;
  const Gender k = 5;
  Rng rng(7309);
  const auto inst = gen::uniform(k, 64, rng);
  std::int64_t executed = 0;
  for (auto _ : state) {
    core::GsEdgeCache cache(k);
    core::BindingOptions options;
    if (use_cache) options.cache = &cache;
    std::int64_t acc = 0;
    prufer::enumerate_trees(k, [&](const BindingStructure& tree) {
      const auto result = core::iterative_binding(inst, tree, options);
      acc += result.executed_proposals;
      benchmark::DoNotOptimize(result.total_proposals);
    });
    executed = acc;
  }
  state.counters["accumulated_executed_proposals"] =
      static_cast<double>(executed);
  state.counters["trees"] = static_cast<double>(prufer::cayley_count(k));
}
BENCHMARK(bm_multi_tree_sweep)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

void bm_ladder_with_faults(benchmark::State& state) {
  const bool use_cache = state.range(0) != 0;
  const Gender k = 5;
  Rng rng(7411);
  const auto inst = gen::uniform(k, 64, rng);
  resilience::FaultConfig config;
  config.fire_after = 1;
  config.probability = 1.0;
  config.max_fires = 2;
  std::int64_t executed = 0;
  for (auto _ : state) {
    core::GsEdgeCache cache(k);
    resilience::FallbackOptions ladder;
    ladder.max_tree_attempts = 4;
    if (use_cache) ladder.cache = &cache;
    resilience::ScopedFault fault("core/binding_edge", config);
    const auto report = resilience::solve_with_fallback(inst, ladder);
    executed = report.executed_proposals;
    benchmark::DoNotOptimize(report.succeeded);
  }
  state.counters["executed_proposals"] = static_cast<double>(executed);
}
BENCHMARK(bm_ladder_with_faults)->Arg(0)->Arg(1)
    ->Unit(benchmark::kMillisecond);

void bm_probe_all_pairs(benchmark::State& state) {
  const auto k = static_cast<Gender>(state.range(0));
  Rng rng(151);
  const auto inst = gen::uniform(k, 64, rng);
  for (auto _ : state) {
    const auto probes = core::probe_all_pairs(inst);
    benchmark::DoNotOptimize(probes.size());
  }
}
BENCHMARK(bm_probe_all_pairs)->Arg(4)->Arg(8)->Unit(benchmark::kMicrosecond);

void bm_cost_aware_binding(benchmark::State& state) {
  const auto n = static_cast<Index>(state.range(0));
  Rng rng(152);
  const auto inst = gen::uniform(6, n, rng);
  for (auto _ : state) {
    const auto result =
        core::cost_aware_binding(inst, core::TreeObjective::min_cost);
    benchmark::DoNotOptimize(result.total_proposals);
  }
}
BENCHMARK(bm_cost_aware_binding)->Arg(64)->Arg(256)
    ->Unit(benchmark::kMicrosecond);

void bm_generator_euclidean(benchmark::State& state) {
  const auto n = static_cast<Index>(state.range(0));
  Rng rng(153);
  for (auto _ : state) {
    const auto inst = gen::euclidean(4, n, 2, rng);
    benchmark::DoNotOptimize(inst.total_members());
  }
}
BENCHMARK(bm_generator_euclidean)->Arg(64)->Arg(256)
    ->Unit(benchmark::kMicrosecond);

}  // namespace

KSTABLE_BENCH_MAIN(report)
