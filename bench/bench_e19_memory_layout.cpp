// E19 — large-n memory layout: compact rank tables, arena storage and the
// queue engine's prefetch pipeline (docs/PERFORMANCE.md §Compact memory
// layout).
//
// Claims regenerated:
//  * the compact layout (no same-gender diagonal rows + uint16_t ranks)
//    shrinks per-instance table bytes by 8/3 ≈ 2.67× for bipartite
//    instances vs the seed layout (k·k rows × 4-byte ranks);
//  * the queue engine's wall clock and bytes per proposal on that layout
//    as the rank table outgrows the LLC, with exact proposal counters.
//
// The n sweep is CI-safe by default (max n = 8192 ≈ 0.8 GB per instance);
// set KSTABLE_E19_MAX_N (e.g. 32768) for big-memory runs.

#include <cstdlib>
#include <string>

#include "bench_common.hpp"
#include "gs/gale_shapley.hpp"
#include "gs/scan_gs.hpp"
#include "prefs/generators.hpp"
#include "prefs/kpartite.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

namespace {

using namespace kstable;

Index e19_max_n() {
  if (const char* env = std::getenv("KSTABLE_E19_MAX_N")) {
    const long long v = std::atoll(env);
    if (v >= 1024 && v < 65536) return static_cast<Index>(v);
  }
  return 8192;
}

/// Table bytes of the seed layout this PR replaced: k·k·n·n rows (dead
/// same-gender diagonal included) and 4-byte ranks at every n.
std::int64_t seed_layout_bytes(Gender k, Index n) {
  const auto cells = static_cast<std::int64_t>(k) * k * n * n;
  return cells * static_cast<std::int64_t>(sizeof(Index) + sizeof(std::int32_t));
}

/// Bytes a single proposal touches: one pref cell, the responder-match slot,
/// the responder's held-rank slot, and the proposer's rank cell of the
/// accept/reject compare.
constexpr std::int64_t kBytesPerProposal =
    sizeof(Index) + sizeof(Index) + sizeof(std::uint32_t) +
    sizeof(std::uint16_t);

void report() {
  const Index max_n = e19_max_n();
  std::cout << "E19: large-n memory layout — compact ranks, arena storage, "
               "queue engine\n"
            << "(max n = " << max_n
            << "; extend with KSTABLE_E19_MAX_N)\n\n";

  TableWriter footprint(
      "Table footprint vs the seed layout (k=2, uniform)",
      {"n", "seed bytes", "compact bytes", "shrink", "arena bytes", "width"});
  TableWriter timing(
      "GS wall clock and bytes/proposal (k=2, uniform, seed 191)",
      {"n", "queue16 ms", "B/proposal 16"});
  Rng rng(191);
  for (Index n = 1024; n <= max_n; n *= 4) {
    const auto inst = gen::uniform(2, n, rng);
    const auto compact_bytes =
        static_cast<std::int64_t>(inst.pref_bytes() + inst.rank_bytes());
    footprint.add_row(
        {std::int64_t{n}, seed_layout_bytes(2, n), compact_bytes,
         static_cast<double>(seed_layout_bytes(2, n)) /
             static_cast<double>(compact_bytes),
         static_cast<std::int64_t>(inst.arena_bytes()), std::string("u16")});
    timing.add_row({std::int64_t{n}, gs::gale_shapley_queue(inst, 0, 1).wall_ms,
                    kBytesPerProposal});
  }
  footprint.print(std::cout);
  timing.print(std::cout);
}

/// Warm into-style solve loop shared by the engine benchmarks: measures the
/// steady-state zero-allocation path, not construction.
template <typename Solve>
void run_warm(benchmark::State& state, const KPartiteInstance& inst,
              Solve&& solve) {
  gs::GsWorkspace workspace;
  gs::GsResult result;
  solve(inst, workspace, result);  // warm-up outside the timed region
  std::int64_t proposals = 0;
  for (auto _ : state) {
    solve(inst, workspace, result);
    proposals += result.proposals;
    benchmark::DoNotOptimize(result.proposer_match.data());
  }
  state.counters["proposals"] =
      benchmark::Counter(static_cast<double>(proposals),
                         benchmark::Counter::kAvgIterations);
  state.counters["table_mb"] = static_cast<double>(
      inst.pref_bytes() + inst.rank_bytes()) / (1024.0 * 1024.0);
  state.SetBytesProcessed(proposals * kBytesPerProposal);
}

void bm_gs_queue_narrow(benchmark::State& state) {
  Rng rng(193);
  const auto inst = gen::uniform(2, static_cast<Index>(state.range(0)), rng);
  run_warm(state, inst, [](const auto& in, auto& w, auto& r) {
    gs::gale_shapley_queue(in, 0, 1, {}, w, r);
  });
}

void e19_sizes(benchmark::internal::Benchmark* bench) {
  for (Index n = 1024; n <= e19_max_n(); n *= 2) bench->Arg(n);
}

BENCHMARK(bm_gs_queue_narrow)->Apply(e19_sizes);

// The scan ablation at E19 sizes: O(n) list walks in place of the rank
// table's O(1) compare.
void bm_scan_scalar(benchmark::State& state) {
  Rng rng(194);
  const auto inst = gen::uniform(2, static_cast<Index>(state.range(0)), rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(gs::gale_shapley_scan(inst, 0, 1).proposals);
  }
}
BENCHMARK(bm_scan_scalar)->Arg(1024)->Arg(2048);

}  // namespace

KSTABLE_BENCH_MAIN(report)
