// E9 — §II.A / §IV.C: Gale-Shapley engine comparison and O(n²) scaling.
//
// Paper claims regenerated:
//  * GS runs in O(n²) accumulated proposals ("at most n² accumulative
//    proposals"); on uniform instances the average is ~ n·H(n);
//  * pairwise matching itself is hard to parallelize — the speculative
//    parallel engine matches the sequential outcome exactly (confluence) but
//    only wins at large n;
//  * ablation for the rank-table design decision: the round-based engine is
//    the paper's §II.A description, the queue engine the textbook form; both
//    count identical proposals.

#include <cmath>

#include "bench_common.hpp"

#include "gs/gale_shapley.hpp"
#include "gs/parallel_gs.hpp"
#include "gs/scan_gs.hpp"
#include "parallel/thread_pool.hpp"
#include "prefs/generators.hpp"
#include "resilience/control.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

namespace {

using namespace kstable;

void report() {
  std::cout << "E9: GS engine comparison and O(n²) scaling\n\n";
  TableWriter table("Proposals vs n (uniform, seed 91; theory ~ n ln n avg, "
                    "bound n²)",
                    {"n", "proposals", "n ln n", "n^2", "rounds (round-engine)"});
  Rng rng(91);
  for (const Index n : {64, 256, 1024, 4096}) {
    const auto inst = gen::uniform(2, n, rng);
    const auto queue = gs::gale_shapley_queue(inst, 0, 1);
    const auto rounds = gs::gale_shapley_rounds(inst, 0, 1);
    table.add_row({std::int64_t{n}, queue.proposals,
                   static_cast<double>(n) * std::log(static_cast<double>(n)),
                   static_cast<std::int64_t>(n) * n, rounds.rounds});
  }
  table.print(std::cout);

  // Engine agreement spot check at n = 2048.
  const Index n = 2048;
  Rng rng2(92);
  const auto inst = gen::uniform(2, n, rng2);
  const auto queue = gs::gale_shapley_queue(inst, 0, 1);
  const auto round = gs::gale_shapley_rounds(inst, 0, 1);
  ThreadPool pool;
  const auto parallel = gs::gale_shapley_parallel(inst, 0, 1, pool);
  std::cout << "Engines agree at n=2048: "
            << ((queue.proposer_match == round.proposer_match &&
                 queue.proposer_match == parallel.proposer_match)
                    ? "yes (confluence)"
                    : "NO — bug!")
            << "\n\n";
}

void bm_engine_queue(benchmark::State& state) {
  const auto n = static_cast<Index>(state.range(0));
  Rng rng(93);
  const auto inst = gen::uniform(2, n, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(gs::gale_shapley_queue(inst, 0, 1).proposals);
  }
  state.SetComplexityN(n);
}
BENCHMARK(bm_engine_queue)->RangeMultiplier(2)->Range(256, 8192)->Complexity();

// Resilience-overhead ablation: the same queue engine with an attached (but
// unlimited) ExecControl. The delta vs bm_engine_queue is the full cost of
// deadline/cancellation support — one relaxed fetch_add plus one relaxed load
// per proposal, with the clock consulted every kClockStride units. Should be
// within noise of the unguarded run.
void bm_engine_queue_guarded(benchmark::State& state) {
  const auto n = static_cast<Index>(state.range(0));
  Rng rng(93);
  const auto inst = gen::uniform(2, n, rng);
  resilience::ExecControl control{
      resilience::Budget::deadline(3.6e6)};  // one hour: never trips
  gs::GsOptions options;
  options.control = &control;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        gs::gale_shapley_queue(inst, 0, 1, options).proposals);
  }
}
BENCHMARK(bm_engine_queue_guarded)->RangeMultiplier(2)->Range(256, 8192);

void bm_engine_rounds(benchmark::State& state) {
  const auto n = static_cast<Index>(state.range(0));
  Rng rng(93);
  const auto inst = gen::uniform(2, n, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(gs::gale_shapley_rounds(inst, 0, 1).proposals);
  }
}
BENCHMARK(bm_engine_rounds)->RangeMultiplier(2)->Range(256, 8192);

void bm_engine_parallel(benchmark::State& state) {
  const auto n = static_cast<Index>(state.range(0));
  Rng rng(93);
  const auto inst = gen::uniform(2, n, rng);
  ThreadPool pool;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        gs::gale_shapley_parallel(inst, 0, 1, pool).proposals);
  }
}
BENCHMARK(bm_engine_parallel)->RangeMultiplier(2)->Range(256, 8192);

// Ablation for DESIGN.md decision 1 (rank tables): same algorithm, but every
// responder comparison scans the preference list. The gap vs bm_engine_queue
// is the price of dropping the O(1) rank lookup.
void bm_engine_scan_ablation(benchmark::State& state) {
  const auto n = static_cast<Index>(state.range(0));
  Rng rng(93);
  const auto inst = gen::uniform(2, n, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(gs::gale_shapley_scan(inst, 0, 1).proposals);
  }
}
BENCHMARK(bm_engine_scan_ablation)->RangeMultiplier(4)->Range(256, 4096);

void bm_engine_master_list_worst_case(benchmark::State& state) {
  const auto n = static_cast<Index>(state.range(0));
  Rng rng(94);
  const auto inst = gen::master_list(2, n, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(gs::gale_shapley_queue(inst, 0, 1).proposals);
  }
}
BENCHMARK(bm_engine_master_list_worst_case)->Arg(1024)->Arg(4096);

}  // namespace

KSTABLE_BENCH_MAIN(report)
