// E1 — Example 1 / §II.A: the Gale-Shapley baseline.
//
// Paper claims regenerated:
//  * first preference set: men proposing yields (m', w), (m, w') — "neither m
//    nor w' is happy";
//  * second preference set: GS yields the man-optimal (m, w), (m', w'); the
//    woman-optimal (m, w'), (m', w) "is not generated by the GS algorithm,
//    representing unfairness towards women";
//  * runtime complexity O(n²) — measured accumulated proposals stay under n².

#include "bench_common.hpp"

#include "analysis/metrics.hpp"
#include "gs/gale_shapley.hpp"
#include "prefs/examples.hpp"
#include "prefs/generators.hpp"
#include "prefs/kpartite.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

namespace {

using namespace kstable;

void trace_example(const char* title, const KPartiteInstance& inst) {
  std::cout << "--- " << title << " ---\n";
  std::vector<gs::ProposalEvent> trace;
  gs::GsOptions options;
  options.trace = &trace;
  const auto men = gs::gale_shapley_queue(inst, 0, 1, options);
  for (const auto& e : trace) {
    std::cout << "  a" << e.proposer << " -> b" << e.responder << ": "
              << (e.accepted ? "maybe" : "no");
    if (e.displaced >= 0) std::cout << " (a" << e.displaced << " displaced)";
    std::cout << '\n';
  }
  std::cout << "  men-proposing matching: ";
  for (Index p = 0; p < 2; ++p) {
    std::cout << "(a" << p << ", b" << men.proposer_match[static_cast<std::size_t>(p)]
              << ") ";
  }
  const auto women = gs::gale_shapley_queue(inst, 1, 0);
  std::cout << "\n  women-proposing matching: ";
  for (Index w = 0; w < 2; ++w) {
    std::cout << "(a" << women.proposer_match[static_cast<std::size_t>(w)]
              << ", b" << w << ") ";
  }
  const auto costs = analysis::bipartite_costs(inst, 0, 1, men.proposer_match);
  std::cout << "\n  men-proposing costs: men " << costs.proposer_cost
            << ", women " << costs.responder_cost << " (sex-equality "
            << costs.sex_equality() << ")\n\n";
}

void report() {
  std::cout << "E1: Gale-Shapley baseline (paper Example 1, §II.A)\n\n";
  trace_example("Example 1, first preference set", examples::example1_first());
  trace_example("Example 1, second preference set",
                examples::example1_second());

  TableWriter table("O(n²) proposal-bound check (uniform instances, seed 1)",
                    {"n", "proposals", "bound n^2", "ratio"});
  Rng rng(1);
  for (const Index n : {64, 128, 256, 512, 1024}) {
    const auto inst = gen::uniform(2, n, rng);
    const auto result = gs::gale_shapley_queue(inst, 0, 1);
    const auto bound = static_cast<std::int64_t>(n) * n;
    table.add_row({std::int64_t{n}, result.proposals, bound,
                   static_cast<double>(result.proposals) /
                       static_cast<double>(bound)});
  }
  table.print(std::cout);
}

void bm_gs_queue(benchmark::State& state) {
  const auto n = static_cast<Index>(state.range(0));
  Rng rng(11);
  const auto inst = gen::uniform(2, n, rng);
  std::int64_t proposals = 0;
  for (auto _ : state) {
    const auto result = gs::gale_shapley_queue(inst, 0, 1);
    benchmark::DoNotOptimize(result.proposer_match.data());
    proposals = result.proposals;
  }
  state.counters["proposals"] = static_cast<double>(proposals);
  state.SetComplexityN(n);
}
BENCHMARK(bm_gs_queue)->RangeMultiplier(2)->Range(64, 2048)->Complexity();

void bm_gs_example1(benchmark::State& state) {
  const auto inst = examples::example1_second();
  for (auto _ : state) {
    const auto result = gs::gale_shapley_queue(inst, 0, 1);
    benchmark::DoNotOptimize(result.proposals);
  }
}
BENCHMARK(bm_gs_example1);

}  // namespace

KSTABLE_BENCH_MAIN(report)
