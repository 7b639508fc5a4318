// E2 — Theorem 1 / Fig. 1 / §III.A: stable binary matching does not
// generalize beyond bipartite graphs.
//
// Paper claims regenerated:
//  * for every k > 2 there exist preference lists with a perfect binary
//    matching but no stable one (the pariah + top-choice-cycle construction);
//  * k = 2 is the exception (every bipartite instance is solvable);
//  * random (non-adversarial) k-partite instances also fail with noticeable
//    probability once k > 2 — stability is structurally fragile, not just
//    adversarially breakable.

#include "bench_common.hpp"

#include "analysis/oracle.hpp"
#include "core/existence.hpp"
#include "prefs/generators.hpp"
#include "roommates/adapters.hpp"
#include "roommates/solver.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

namespace {

using namespace kstable;

void report() {
  std::cout << "E2: Theorem 1 — (non-)existence of stable binary matching\n\n";

  TableWriter adv("Adversarial construction (20 seeds each; paper: never stable)",
                  {"k", "n", "perfect matching", "stable found", "expected"});
  for (const auto& [k, n] : std::vector<std::pair<Gender, Index>>{
           {3, 2}, {3, 4}, {3, 8}, {4, 2}, {4, 4}, {5, 2}, {6, 2}, {7, 2}}) {
    if ((static_cast<std::int64_t>(k) * n) % 2 != 0) continue;
    int stable = 0;
    int perfect = 0;
    for (std::uint64_t seed = 0; seed < 20; ++seed) {
      Rng rng(seed * 977 + static_cast<std::uint64_t>(k) * 13 +
              static_cast<std::uint64_t>(n));
      const auto inst = core::theorem1_adversarial_roommates(k, n, rng);
      stable += rm::solve(inst).has_stable;
      perfect += analysis::binary_census(inst, 1).perfect_matchings > 0;
    }
    adv.add_row({std::int64_t{k}, std::int64_t{n},
                 std::string(perfect == 20 ? "20/20" : "BUG"),
                 std::int64_t{stable}, std::string("0")});
  }
  adv.print(std::cout);

  TableWriter rates(
      "Stable-rate of UNIFORM random instances (round-robin linearization, "
      "n=4, 100 seeds) — k=2 always stable, k>2 increasingly fragile",
      {"k", "stable rate %"});
  for (const Gender k : {2, 3, 4, 5, 6}) {
    int stable = 0;
    const int seeds = 100;
    for (std::uint64_t seed = 0; seed < seeds; ++seed) {
      Rng rng(seed * 31 + static_cast<std::uint64_t>(k));
      const auto inst = gen::uniform(k, 4, rng);
      stable +=
          rm::solve_kpartite_binary(inst, rm::Linearization::round_robin)
              .has_stable;
    }
    rates.add_row({std::int64_t{k}, 100.0 * stable / seeds});
  }
  rates.print(std::cout);

  // Oracle confirmation at the smallest size (exhaustive).
  Rng rng(7);
  const auto small = core::theorem1_adversarial_roommates(3, 2, rng);
  const auto census = analysis::binary_census(small);
  std::cout << "Oracle on the smallest adversarial case (k=3, n=2): "
            << census.perfect_matchings << " perfect matchings, "
            << census.stable_matchings << " stable (expected 0)\n\n";

  // The per-gender scaffold (gen::theorem1_adversarial) only guarantees the
  // construction inside each per-gender list; measure how often a round-robin
  // linearization still destroys stability.
  TableWriter scaffold(
      "Per-gender adversarial scaffold + round-robin linearization (50 seeds)",
      {"k", "n", "stable rate %"});
  for (const auto& [k, n] :
       std::vector<std::pair<Gender, Index>>{{3, 2}, {3, 4}, {4, 4}}) {
    int stable = 0;
    const int seeds = 50;
    for (std::uint64_t seed = 0; seed < seeds; ++seed) {
      Rng r(seed * 7 + static_cast<std::uint64_t>(k));
      const auto inst = gen::theorem1_adversarial(k, n, r);
      stable +=
          rm::solve_kpartite_binary(inst, rm::Linearization::round_robin)
              .has_stable;
    }
    scaffold.add_row({std::int64_t{k}, std::int64_t{n},
                      100.0 * stable / seeds});
  }
  scaffold.print(std::cout);
  std::cout << "(Contrast: the combined-model construction above is 0% by "
               "construction; the scaffold shows the linearization can "
               "partially defuse it.)\n\n";
}

void bm_adversarial_solve(benchmark::State& state) {
  const auto k = static_cast<Gender>(state.range(0));
  const auto n = static_cast<Index>(state.range(1));
  Rng rng(3);
  const auto inst = core::theorem1_adversarial_roommates(k, n, rng);
  for (auto _ : state) {
    const auto result = rm::solve(inst);
    benchmark::DoNotOptimize(result.has_stable);
  }
}
BENCHMARK(bm_adversarial_solve)
    ->Args({3, 16})
    ->Args({3, 64})
    ->Args({4, 16})
    ->Args({5, 16})
    ->Args({4, 64});

void bm_uniform_binary_solve(benchmark::State& state) {
  const auto k = static_cast<Gender>(state.range(0));
  Rng rng(4);
  const auto inst = gen::uniform(k, 32, rng);
  for (auto _ : state) {
    const auto result =
        rm::solve_kpartite_binary(inst, rm::Linearization::round_robin);
    benchmark::DoNotOptimize(result.has_stable);
  }
}
BENCHMARK(bm_uniform_binary_solve)->Arg(2)->Arg(3)->Arg(5);

}  // namespace

KSTABLE_BENCH_MAIN(report)
