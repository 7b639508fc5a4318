// E8 — §IV.D / Theorem 5 / Figs. 5-6: weakened blocking families and
// priority-based binding.
//
// Paper claims regenerated:
//  * there are (k-1)! priority-grown binding trees (Fig. 6), all bitonic;
//  * non-bitonic trees can admit weakened blocking families (Fig. 5a);
//  * Algorithm 2's construction prevents weakened blocking families.
//
// Documented deviation (see DESIGN.md): Theorem 5's literal claim — EVERY
// bitonic tree prevents weakened blocking — fails empirically: a singleton
// group led by a low-priority gender can be tree-adjacent only to non-leads
// of the other group, so no lead-lead blocking pair arises to contradict GS
// stability. The star at the highest-priority gender (Algorithm 2's literal
// "select i with the highest priority") IS provably safe; the table below
// quantifies all three tree classes.

#include "bench_common.hpp"

#include "analysis/stability.hpp"
#include "core/binding.hpp"
#include "core/priority_binding.hpp"
#include "graph/binding_structure.hpp"
#include "graph/prufer.hpp"
#include "graph/scheduling.hpp"
#include "prefs/generators.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

namespace {

using namespace kstable;

std::vector<std::int32_t> identity_priority(Gender k) {
  std::vector<std::int32_t> p(static_cast<std::size_t>(k));
  for (Gender g = 0; g < k; ++g) p[static_cast<std::size_t>(g)] = g;
  return p;
}

void report() {
  std::cout << "E8: priority-based binding and weakened stability (§IV.D)\n\n";

  TableWriter counts("Priority-grown tree counts (Fig. 6): (k-1)!, all bitonic",
                     {"k", "(k-1)!", "enumerated", "bitonic"});
  for (Gender k = 3; k <= 7; ++k) {
    std::int64_t enumerated = 0;
    std::int64_t bitonic = 0;
    core::for_each_priority_tree(k, {}, [&](const BindingStructure& tree) {
      ++enumerated;
      bitonic += sched::is_bitonic_tree(tree, identity_priority(k));
    });
    counts.add_row({std::int64_t{k}, core::priority_tree_count(k), enumerated,
                    bitonic});
  }
  counts.print(std::cout);

  // Weakened-violation rates by tree class (k = 4, n = 3, exact checker).
  const Gender k = 4;
  const Index n = 3;
  const auto priority = identity_priority(k);
  int star_checked = 0, star_blocked = 0;
  int bitonic_checked = 0, bitonic_blocked = 0;
  int nonbitonic_checked = 0, nonbitonic_blocked = 0;
  for (std::uint64_t seed = 0; seed < 40; ++seed) {
    Rng rng(seed * 131 + 5);
    const auto inst = gen::uniform(k, n, rng);
    prufer::enumerate_trees(k, [&](const BindingStructure& tree) {
      const auto result = core::iterative_binding(inst, tree);
      const bool blocked = analysis::find_weakened_blocking_family(
                               inst, result.matching(), priority)
                               .has_value();
      if (tree.degree(k - 1) == k - 1) {
        ++star_checked;
        star_blocked += blocked;
      } else if (sched::is_bitonic_tree(tree, priority)) {
        ++bitonic_checked;
        bitonic_blocked += blocked;
      } else {
        ++nonbitonic_checked;
        nonbitonic_blocked += blocked;
      }
    });
  }
  TableWriter rates(
      "Weakened-blocking rate by binding-tree class (k=4, n=3, 40 seeds x 16 "
      "trees, exact search)",
      {"tree class", "bindings checked", "blocked", "blocked %"});
  rates.add_row({std::string("star at imax (Algorithm 2 default)"),
                 std::int64_t{star_checked}, std::int64_t{star_blocked},
                 100.0 * star_blocked / std::max(star_checked, 1)});
  rates.add_row({std::string("bitonic, non-star (paper claims safe)"),
                 std::int64_t{bitonic_checked}, std::int64_t{bitonic_blocked},
                 100.0 * bitonic_blocked / std::max(bitonic_checked, 1)});
  rates.add_row({std::string("non-bitonic (paper's Fig. 5a class)"),
                 std::int64_t{nonbitonic_checked},
                 std::int64_t{nonbitonic_blocked},
                 100.0 * nonbitonic_blocked / std::max(nonbitonic_checked, 1)});
  rates.print(std::cout);
  std::cout << "Expected: star 0%; non-bitonic clearly > 0%. The middle row "
               "> 0% is the documented Theorem 5 deviation.\n\n";

  // Strict stability always holds regardless (Theorem 2 applies to any tree).
  int strict_blocked = 0;
  for (std::uint64_t seed = 0; seed < 40; ++seed) {
    Rng rng(seed * 17 + 3);
    const auto inst = gen::uniform(k, n, rng);
    const auto result = core::priority_binding(inst);
    strict_blocked += analysis::find_blocking_family(inst, result.binding.matching())
                          .has_value();
  }
  std::cout << "Strict blocking families after Algorithm 2 (40 seeds): "
            << strict_blocked << " (expected 0, Theorem 2)\n\n";
}

void bm_priority_binding(benchmark::State& state) {
  const auto k = static_cast<Gender>(state.range(0));
  const auto n = static_cast<Index>(state.range(1));
  Rng rng(81);
  const auto inst = gen::uniform(k, n, rng);
  for (auto _ : state) {
    const auto result = core::priority_binding(inst);
    benchmark::DoNotOptimize(result.binding.total_proposals);
  }
}
BENCHMARK(bm_priority_binding)->Args({4, 128})->Args({6, 128})->Args({8, 256});

void bm_weakened_exact_check(benchmark::State& state) {
  const auto n = static_cast<Index>(state.range(0));
  Rng rng(82);
  const auto inst = gen::uniform(4, n, rng);
  const auto result = core::priority_binding(inst);
  const auto priority = identity_priority(4);
  for (auto _ : state) {
    const auto witness = analysis::find_weakened_blocking_family(
        inst, result.binding.matching(), priority);
    benchmark::DoNotOptimize(witness.has_value());
  }
}
BENCHMARK(bm_weakened_exact_check)->Arg(3)->Arg(6)->Arg(10);

void bm_bitonic_check(benchmark::State& state) {
  const auto k = static_cast<Gender>(state.range(0));
  Rng rng(83);
  const auto tree = prufer::random_tree(k, rng);
  std::vector<std::int32_t> priority(static_cast<std::size_t>(k));
  for (Gender g = 0; g < k; ++g) priority[static_cast<std::size_t>(g)] = g;
  for (auto _ : state) {
    benchmark::DoNotOptimize(sched::is_bitonic_tree(tree, priority));
  }
}
BENCHMARK(bm_bitonic_check)->Arg(6)->Arg(12)->Arg(20);

}  // namespace

KSTABLE_BENCH_MAIN(report)
