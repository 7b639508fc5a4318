// E17 — batch serving throughput (ROADMAP north star: many independent
// solves per second, not one big solve).
//
// core::BatchSolver fans a vector of instances across the thread pool: one
// task per instance, a thread_local GsWorkspace per worker (allocation-free
// GS after warm-up), a per-item GsEdgeCache, and a per-item ExecControl so a
// poisoned instance times out alone. This experiment measures instances/sec
// at 1, 2, 4, and hardware-concurrency threads (the registered benchmarks
// emit the same series as items_per_second in BENCH_e17.json), plus the
// per-item deadline isolation property.

#include <numeric>
#include <thread>
#include <vector>

#include "bench_common.hpp"

#include "core/batch_solver.hpp"
#include "gs/gale_shapley.hpp"
#include "parallel/thread_pool.hpp"
#include "prefs/generators.hpp"
#include "prefs/kpartite.hpp"
#include "resilience/control.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

namespace {

using namespace kstable;

std::vector<KPartiteInstance> make_workload(std::size_t count, Gender k,
                                            Index n) {
  // "Random Stable Matchings" (PAPERS.md) grounds the uniform random-instance
  // throughput workload: every request is an independent uniform instance.
  std::vector<KPartiteInstance> instances;
  instances.reserve(count);
  for (std::size_t seed = 0; seed < count; ++seed) {
    Rng rng(static_cast<std::uint64_t>(seed) * 6271 + 31);
    instances.push_back(gen::uniform(k, n, rng));
  }
  return instances;
}

void report() {
  std::cout << "E17: batch serving throughput (core::BatchSolver)\n\n";

  const std::size_t batch = 64;
  const Gender k = 5;
  const Index n = 64;
  const auto instances = make_workload(batch, k, n);
  const auto hw = std::max(1u, std::thread::hardware_concurrency());

  TableWriter table("Batch throughput, 64 uniform instances (k=5, n=64), "
                    "path tree, queue engine",
                    {"threads", "wall ms", "instances/sec", "ok items"});
  std::vector<std::size_t> thread_counts{1, 2, 4};
  if (hw != 1 && hw != 2 && hw != 4) thread_counts.push_back(hw);
  for (const std::size_t threads : thread_counts) {
    ThreadPool pool(threads);
    core::BatchSolver solver(pool);
    // One warm-up pass so thread_local workspaces exist, then a timed pass.
    (void)solver.solve(instances);
    WallTimer timer;
    const auto results = solver.solve(instances);
    const double ms = timer.millis();
    std::int64_t ok = 0;
    for (const auto& item : results) ok += item.status.ok() ? 1 : 0;
    table.add_row({static_cast<double>(threads), ms,
                   static_cast<double>(batch) / (ms / 1000.0),
                   static_cast<double>(ok)});
  }
  table.print(std::cout);
  std::cout << "(hardware_concurrency = " << hw << "; single-core machines "
            << "show flat scaling — the PRAM-style model costs in E7 are the "
            << "hardware-independent signal)\n\n";

  // Per-item deadline isolation: starving half the batch must not affect the
  // other half's outcomes.
  ThreadPool pool(hw);
  core::BatchSolver solver(pool);
  core::BatchOptions options;
  for (std::size_t i = 0; i < batch; ++i) {
    options.per_item_budgets.push_back(
        i % 2 == 0 ? resilience::Budget{}
                   : resilience::Budget::proposals(3));
  }
  const auto mixed = solver.solve(instances, options);
  std::int64_t ok = 0, aborted = 0;
  for (const auto& item : mixed) {
    (item.status.ok() ? ok : aborted) += 1;
  }
  std::cout << "Deadline isolation: " << ok << " unlimited items ok, "
            << aborted << " starved items aborted(proposal-budget), "
            << "statuses independent per item.\n";
}

void bm_batch_throughput(benchmark::State& state) {
  const auto requested = static_cast<std::size_t>(state.range(0));
  const std::size_t threads =
      requested == 0 ? std::max(1u, std::thread::hardware_concurrency())
                     : requested;
  const auto instances = make_workload(32, 5, 64);
  ThreadPool pool(threads);
  core::BatchSolver solver(pool);
  for (auto _ : state) {
    const auto results = solver.solve(instances);
    benchmark::DoNotOptimize(results.size());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(instances.size()));
  state.counters["threads"] = static_cast<double>(threads);
}
// Arg(0) = hardware concurrency, resolved at run time. UseRealTime: the work
// happens on pool threads, so rates must divide by wall time, not the main
// thread's CPU time.
BENCHMARK(bm_batch_throughput)->Arg(1)->Arg(2)->Arg(4)->Arg(0)
    ->UseRealTime()->Unit(benchmark::kMillisecond);

void bm_batch_cost_aware(benchmark::State& state) {
  const auto requested = static_cast<std::size_t>(state.range(0));
  const std::size_t threads =
      requested == 0 ? std::max(1u, std::thread::hardware_concurrency())
                     : requested;
  const auto instances = make_workload(16, 5, 64);
  ThreadPool pool(threads);
  core::BatchSolver solver(pool);
  core::BatchOptions options;
  options.tree = core::BatchTree::cost_aware;
  for (auto _ : state) {
    const auto results = solver.solve(instances, options);
    benchmark::DoNotOptimize(results.size());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(instances.size()));
  state.counters["threads"] = static_cast<double>(threads);
}
BENCHMARK(bm_batch_cost_aware)->Arg(1)->Arg(0)->UseRealTime()
    ->Unit(benchmark::kMillisecond);

void bm_gs_workspace_reuse(benchmark::State& state) {
  // The zero-allocation hot path in isolation: one warm workspace + result,
  // solving the same binding repeatedly (the per-worker serving shape).
  Rng rng(97);
  const auto inst = gen::uniform(2, static_cast<Index>(state.range(0)), rng);
  gs::GsWorkspace workspace;
  gs::GsResult result;
  const gs::GsOptions options;
  gs::gale_shapley_queue(inst, 0, 1, options, workspace, result);  // warm
  for (auto _ : state) {
    gs::gale_shapley_queue(inst, 0, 1, options, workspace, result);
    benchmark::DoNotOptimize(result.proposals);
  }
}
BENCHMARK(bm_gs_workspace_reuse)->Arg(64)->Arg(256)->Arg(1024)
    ->Unit(benchmark::kMicrosecond);

void bm_gs_fresh_alloc(benchmark::State& state) {
  // Baseline for bm_gs_workspace_reuse: the by-value API allocates workspace
  // and result every solve.
  Rng rng(97);
  const auto inst = gen::uniform(2, static_cast<Index>(state.range(0)), rng);
  for (auto _ : state) {
    const auto result = gs::gale_shapley_queue(inst, 0, 1);
    benchmark::DoNotOptimize(result.proposals);
  }
}
BENCHMARK(bm_gs_fresh_alloc)->Arg(64)->Arg(256)->Arg(1024)
    ->Unit(benchmark::kMicrosecond);

}  // namespace

KSTABLE_BENCH_MAIN(report)
