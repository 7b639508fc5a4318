// E6 — Theorem 4 / §IV.B: k-1 binding rounds are tight.
//
// Paper claims regenerated:
//  * MORE than k-1 bindings (a cycle) may be impossible to keep consistent:
//    the §IV.B example preferences make the three pairwise GS matchings
//    collide, so the equivalence classes are not valid tuples;
//  * FEWER than k-1 bindings (a forest) leave components unbound, and the
//    assembled matching is blocked with growing probability as bindings drop;
//  * exactly k-1 bindings (spanning tree) are always consistent and stable.

#include "bench_common.hpp"

#include "analysis/stability.hpp"
#include "core/binding.hpp"
#include "graph/binding_structure.hpp"
#include "prefs/generators.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

namespace {

using namespace kstable;

void report() {
  std::cout << "E6: Theorem 4 — tightness of the k-1 binding rounds\n\n";

  {
    const auto inst = gen::theorem4_cycle_prefs();
    BindingStructure cycle(3);
    cycle.add_edge({0, 1});
    cycle.add_edge({1, 2});
    cycle.add_edge({2, 0});
    const auto result = core::bind_structure(inst, cycle);
    std::cout << "Paper's §IV.B cycle preferences, bindings M-W, W-U, U-M: "
              << (result.equivalence.consistent
                      ? "CONSISTENT (paper disagrees — bug!)"
                      : "inconsistent equivalence classes")
              << "\n  detail: " << result.equivalence.inconsistency << "\n\n";
  }

  TableWriter cycles(
      "Random k=3 instances with a binding cycle (100 seeds): how often do "
      "the three GS matchings happen to agree?",
      {"n", "consistent %"});
  for (const Index n : {2, 4, 8, 16}) {
    int consistent = 0;
    const int seeds = 100;
    for (int seed = 0; seed < seeds; ++seed) {
      Rng rng(static_cast<std::uint64_t>(seed) * 53 + n);
      const auto inst = gen::uniform(3, n, rng);
      BindingStructure cycle(3);
      cycle.add_edge({0, 1});
      cycle.add_edge({1, 2});
      cycle.add_edge({2, 0});
      consistent += core::bind_structure(inst, cycle).equivalence.consistent;
    }
    cycles.add_row({std::int64_t{n}, 100.0 * consistent / seeds});
  }
  cycles.print(std::cout);

  TableWriter forests(
      "Blocked-rate vs number of bindings (k=5, n=8, 60 seeds; pairs screen)",
      {"bindings", "structure", "blocked %"});
  const int seeds = 60;
  for (std::int32_t edges = 4; edges >= 0; --edges) {
    int blocked = 0;
    for (int seed = 0; seed < seeds; ++seed) {
      Rng rng(static_cast<std::uint64_t>(seed) * 71 + edges);
      const auto inst = gen::uniform(5, 8, rng);
      BindingStructure forest(5);
      // Path prefix with `edges` edges: genders beyond stay unbound.
      for (std::int32_t e = 0; e < edges; ++e) {
        forest.add_edge({e, static_cast<Gender>(e + 1)});
      }
      const auto result = core::bind_structure(inst, forest);
      blocked += analysis::find_blocking_family_pairs(
                     inst, *result.equivalence.matching,
                     analysis::BlockingMode::strict)
                     .has_value();
    }
    forests.add_row({std::int64_t{edges},
                     std::string(edges == 4 ? "spanning tree (k-1)" : "forest"),
                     100.0 * blocked / seeds});
  }
  forests.print(std::cout);
  std::cout << "Expected shape: 0% at k-1 bindings, rising as bindings are "
               "removed (Theorem 4's lower side).\n\n";

  // Upper side, quantified: how many EXTRA consistent bindings (beyond the
  // spanning tree) does an instance admit? ("more binary bindings will
  // strengthen the family tie... may not always exist", §IV.B)
  TableWriter extra(
      "Greedy 'strengthening': extra consistent bindings beyond the k-1 tree "
      "(k=5, max extra = 6; 40 seeds)",
      {"prefs", "extra accepted avg", "extra rejected avg"});
  for (const auto& [name, noise] :
       std::vector<std::pair<std::string, double>>{{"uniform", -1.0},
                                                   {"popularity(0.2)", 0.2},
                                                   {"aligned scores", 0.0}}) {
    double accepted = 0, rejected = 0;
    const int seeds = 40;
    for (int seed = 0; seed < seeds; ++seed) {
      Rng rng(static_cast<std::uint64_t>(seed) * 97 + 11);
      const auto inst = noise < 0 ? gen::uniform(5, 8, rng)
                                  : gen::popularity(5, 8, rng, noise);
      const auto result = core::strengthen_bindings(inst, trees::path(5));
      accepted += result.extra_accepted;
      rejected += result.extra_rejected;
    }
    extra.add_row({name, accepted / seeds, rejected / seeds});
  }
  extra.print(std::cout);
  std::cout << "Globally aligned scores accept every extra binding; "
               "independent preferences almost none — strengthening 'may not "
               "always exist'.\n\n";
}

void bm_bind_forest(benchmark::State& state) {
  const auto edges = static_cast<std::int32_t>(state.range(0));
  Rng rng(61);
  const auto inst = gen::uniform(5, 64, rng);
  BindingStructure forest(5);
  for (std::int32_t e = 0; e < edges; ++e) {
    forest.add_edge({e, static_cast<Gender>(e + 1)});
  }
  for (auto _ : state) {
    const auto result = core::bind_structure(inst, forest);
    benchmark::DoNotOptimize(result.equivalence.consistent);
  }
}
BENCHMARK(bm_bind_forest)->DenseRange(0, 4);

void bm_cycle_consistency_check(benchmark::State& state) {
  const auto n = static_cast<Index>(state.range(0));
  Rng rng(62);
  const auto inst = gen::uniform(3, n, rng);
  BindingStructure cycle(3);
  cycle.add_edge({0, 1});
  cycle.add_edge({1, 2});
  cycle.add_edge({2, 0});
  for (auto _ : state) {
    const auto result = core::bind_structure(inst, cycle);
    benchmark::DoNotOptimize(result.equivalence.consistent);
  }
}
BENCHMARK(bm_cycle_consistency_check)->Arg(16)->Arg(128);

}  // namespace

KSTABLE_BENCH_MAIN(report)
