// E4 — Theorem 2 / Fig. 3 / §IV.A: the Iterative Binding GS algorithm always
// produces a stable k-ary matching.
//
// Paper claims regenerated:
//  * the Fig. 3 instance with bindings M-W, W-U yields (m, w, u), (m', w', u');
//  * across random instances and random binding trees, the stability rate is
//    100% — verified exactly at small sizes and with the polynomial pairs
//    screen + randomized probes at larger sizes;
//  * different binding trees yield different stable matchings (§IV.B).

#include "bench_common.hpp"

#include "analysis/stability.hpp"
#include "core/binding.hpp"
#include "graph/binding_structure.hpp"
#include "graph/prufer.hpp"
#include "prefs/examples.hpp"
#include "prefs/generators.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

namespace {

using namespace kstable;

void report() {
  std::cout << "E4: Theorem 2 — stable k-ary matching via iterative binding\n\n";

  {
    const auto inst = examples::fig3_instance();
    BindingStructure tree(3);
    tree.add_edge({0, 1});
    tree.add_edge({1, 2});
    const auto result = core::iterative_binding(inst, tree);
    std::cout << "Fig. 3 instance, bindings M-W, W-U: ";
    for (Index t = 0; t < 2; ++t) {
      std::cout << '(';
      for (Gender g = 0; g < 3; ++g) {
        std::cout << (g ? ", " : "") << result.matching().member_at(t, g);
      }
      std::cout << ") ";
    }
    std::cout << " [paper: (m, w, u), (m', w', u')]\n\n";
  }

  TableWriter stability(
      "Stability rate of Algorithm 1 over random instances + random trees "
      "(exact check for n<=5, pairs+sampled probes above)",
      {"k", "n", "seeds", "stable", "proposals avg", "check"});
  for (const auto& [k, n, seeds] : std::vector<std::tuple<Gender, Index, int>>{
           {3, 4, 50}, {4, 4, 50}, {5, 4, 30}, {3, 64, 20}, {4, 128, 10},
           {8, 64, 10}, {5, 256, 5}}) {
    int stable = 0;
    std::int64_t proposals = 0;
    const bool exact = n <= 5;
    for (int seed = 0; seed < seeds; ++seed) {
      Rng rng(static_cast<std::uint64_t>(seed) * 7919 +
              static_cast<std::uint64_t>(k * 100 + n));
      const auto inst = gen::uniform(k, n, rng);
      const auto tree = prufer::random_tree(k, rng);
      const auto result = core::iterative_binding(inst, tree);
      proposals += result.total_proposals;
      bool blocked;
      if (exact) {
        blocked =
            analysis::find_blocking_family(inst, result.matching()).has_value();
      } else {
        Rng probe(static_cast<std::uint64_t>(seed) + 1);
        blocked = analysis::find_blocking_family_pairs(
                      inst, result.matching(), analysis::BlockingMode::strict)
                      .has_value() ||
                  analysis::find_blocking_family_sampled(
                      inst, result.matching(), probe, 5000)
                      .has_value();
      }
      stable += !blocked;
    }
    stability.add_row({std::int64_t{k}, std::int64_t{n}, std::int64_t{seeds},
                       std::int64_t{stable},
                       static_cast<double>(proposals) / seeds,
                       std::string(exact ? "exact" : "pairs+sampled")});
  }
  stability.print(std::cout);

  // §IV.B: different trees -> different stable matchings (count distinct
  // outcomes over all 16 trees of a k=4 instance).
  Rng rng(99);
  const auto inst = gen::uniform(4, 4, rng);
  std::vector<std::vector<Index>> outcomes;
  prufer::enumerate_trees(4, [&](const BindingStructure& tree) {
    const auto result = core::iterative_binding(inst, tree);
    outcomes.push_back(result.matching().raw());
  });
  std::sort(outcomes.begin(), outcomes.end());
  const auto distinct = std::unique(outcomes.begin(), outcomes.end()) -
                        outcomes.begin();
  std::cout << "Distinct stable matchings across all 16 binding trees "
               "(k=4, n=4, one instance): "
            << distinct << "\n\n";
}

void bm_iterative_binding(benchmark::State& state) {
  const auto k = static_cast<Gender>(state.range(0));
  const auto n = static_cast<Index>(state.range(1));
  Rng rng(31);
  const auto inst = gen::uniform(k, n, rng);
  const auto tree = trees::path(k);
  for (auto _ : state) {
    const auto result = core::iterative_binding(inst, tree);
    benchmark::DoNotOptimize(result.total_proposals);
  }
  state.counters["proposals"] = 0;
}
BENCHMARK(bm_iterative_binding)
    ->Args({3, 128})
    ->Args({3, 512})
    ->Args({5, 128})
    ->Args({5, 512})
    ->Args({8, 256});

void bm_exact_stability_check(benchmark::State& state) {
  const auto n = static_cast<Index>(state.range(0));
  Rng rng(32);
  const auto inst = gen::uniform(3, n, rng);
  const auto result = core::iterative_binding(inst, trees::path(3));
  for (auto _ : state) {
    const auto blocked = analysis::find_blocking_family(inst, result.matching());
    benchmark::DoNotOptimize(blocked.has_value());
  }
}
BENCHMARK(bm_exact_stability_check)->Arg(4)->Arg(8)->Arg(16);

void bm_pairs_stability_check(benchmark::State& state) {
  const auto n = static_cast<Index>(state.range(0));
  Rng rng(33);
  const auto inst = gen::uniform(4, n, rng);
  const auto result = core::iterative_binding(inst, trees::path(4));
  for (auto _ : state) {
    const auto blocked = analysis::find_blocking_family_pairs(
        inst, result.matching(), analysis::BlockingMode::strict);
    benchmark::DoNotOptimize(blocked.has_value());
  }
}
BENCHMARK(bm_pairs_stability_check)->Arg(16)->Arg(64)->Arg(128);

}  // namespace

KSTABLE_BENCH_MAIN(report)
