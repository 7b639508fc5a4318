// E21 — implicit preference backend: n >= 10^5 instances with O(n) memory
// via lazy rank evaluation (docs/PERFORMANCE.md §Implicit preferences).
//
// Claims regenerated:
//  * a generator-backed instance stores ZERO table bytes — pref_at/rank_of
//    are O(1) Feistel PRP evaluations — so uniform-random bipartite
//    instances at n = 10^5..2·10^5 solve in O(n) process memory, where the
//    explicit layout would need ~75-300 GiB of tables;
//  * the implicit and materialized-explicit solves are bitwise identical
//    (matching AND proposal count) across the queue, rounds and scan
//    engines — the self-check line below is grepped by CI;
//  * the per-proposal generator overhead vs hot explicit tables is a small
//    constant factor (pinned as a within-file time ratio by the
//    compare_bench gate, so it cannot silently blow up);
//  * at large n the mean proposer partner rank tracks ln n and the mean
//    responder partner rank tracks n/ln n (Mertens, cond-mat/0509221),
//    regenerated here and explorable via `kmatch mertens`.
//
// The n sweep is CI-safe by default only in the benchmark section; the
// report sweep reaches n = 2·10^5 (~minutes of proposals, still O(n)
// memory) and can be capped with KSTABLE_E21_MAX_N for smoke runs.
//
// This binary replaces the aligned global operator new so that explicit
// table slabs sit on transparent huge pages (see below).

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <string>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif
#if defined(__linux__)
#include <sys/mman.h>
#endif

#include "bench_common.hpp"
#include "gs/gale_shapley.hpp"
#include "gs/scan_gs.hpp"
#include "prefs/implicit/implicit_prefs.hpp"
#include "prefs/kpartite.hpp"
#include "util/table.hpp"

namespace {

using namespace kstable;

constexpr std::uint64_t kSeed = 0x5eedULL;

Index e21_max_n() {
  if (const char* env = std::getenv("KSTABLE_E21_MAX_N")) {
    const long long v = std::atoll(env);
    if (v >= 4096 && v <= 4'000'000) return static_cast<Index>(v);
  }
  return 200000;
}

/// Peak resident set of this process in MiB (getrusage; Linux reports KiB,
/// macOS bytes). 0.0 where unsupported.
double peak_rss_mib() {
#if defined(__unix__) || defined(__APPLE__)
  rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) == 0) {
#if defined(__APPLE__)
    return static_cast<double>(usage.ru_maxrss) / (1024.0 * 1024.0);
#else
    return static_cast<double>(usage.ru_maxrss) / 1024.0;
#endif
  }
#endif
  return 0.0;
}

KPartiteInstance implicit_uniform(Index n) {
  return KPartiteInstance::make_implicit(
      2, n, {prefs::imp::Family::uniform, kSeed});
}

/// Table bytes an explicit layout would need for the same k=2 instance:
/// k·(k-1)·n² cells of prefs plus as many ranks, each in the smallest
/// unsigned type that holds a rank below n. Above
/// KPartiteInstance::kMaxExplicitN that is 4 bytes, for tables no explicit
/// instance can be built with.
std::int64_t explicit_table_bytes(Index n) {
  const auto cells = 2LL * static_cast<std::int64_t>(n) *
                     static_cast<std::int64_t>(n);
  const std::size_t rank_bytes = n <= KPartiteInstance::kMaxExplicitN
                                     ? sizeof(std::uint16_t)
                                     : sizeof(std::uint32_t);
  return cells * static_cast<std::int64_t>(sizeof(Index) + rank_bytes);
}

/// Mean rank each side holds of its partner in `result` (proposer side in
/// the proposers' own lists, responder side in the responders').
struct PartnerRanks {
  double proposer_mean = 0.0;
  double responder_mean = 0.0;
};
PartnerRanks partner_ranks(const KPartiteInstance& inst,
                           const gs::GsResult& result) {
  const Index n = inst.per_gender();
  double psum = 0.0;
  double rsum = 0.0;
  for (Index p = 0; p < n; ++p) {
    const Index r = result.proposer_match[static_cast<std::size_t>(p)];
    psum += inst.rank_of({0, p}, {1, r});
    rsum += inst.rank_of({1, r}, {0, p});
  }
  return {psum / static_cast<double>(n), rsum / static_cast<double>(n)};
}

void report() {
  const Index max_n = e21_max_n();
  std::cout << "E21: implicit preference backend — O(n)-memory large-n "
               "solves via lazy Feistel rank evaluation\n"
            << "(report sweep up to n = " << max_n
            << "; cap with KSTABLE_E21_MAX_N)\n\n";

  // --- implicit vs materialized tables at small n (where explicit fits) ---
  TableWriter duel("Implicit vs materialized explicit tables (k=2, uniform)",
                   {"n", "implicit ms", "explicit ms", "proposals",
                    "implicit bytes", "explicit bytes"});
  bool all_identical = true;
  for (const Index n : {512, 2048}) {
    const auto imp = implicit_uniform(n);
    const auto tables = imp.materialized();
    const auto a = gs::gale_shapley_queue(imp, 0, 1);
    const auto b = gs::gale_shapley_queue(tables, 0, 1);
    const auto c = gs::gale_shapley_scan(imp, 0, 1);
    const auto d = gs::gale_shapley_rounds(imp, 0, 1);
    const auto e = gs::gale_shapley_rounds(tables, 0, 1);
    all_identical = all_identical &&
                    a.proposer_match == b.proposer_match &&
                    a.responder_match == b.responder_match &&
                    a.proposals == b.proposals &&
                    c.proposer_match == b.proposer_match &&
                    c.proposals == b.proposals &&
                    d.proposer_match == b.proposer_match &&
                    d.proposals == e.proposals && d.rounds == e.rounds &&
                    e.proposer_match == b.proposer_match;
    duel.add_row({std::int64_t{n}, a.wall_ms, b.wall_ms, a.proposals,
                  static_cast<std::int64_t>(imp.pref_bytes() +
                                            imp.rank_bytes()),
                  static_cast<std::int64_t>(tables.pref_bytes() +
                                            tables.rank_bytes())});
  }
  duel.print(std::cout);
  std::cout << "implicit/explicit queue+rounds+scan outcomes bitwise "
               "identical: "
            << (all_identical ? "yes (backend is semantics-free)"
                              : "NO (BUG)")
            << "\n\n";

  // --- the large-n sweep explicit tables cannot reach -------------------
  TableWriter sweep(
      "Large-n implicit sweep (k=2, uniform; explicit shown as what tables "
      "WOULD cost)",
      {"n", "queue ms", "proposals", "props/(n ln n)", "explicit GiB",
       "peak RSS MiB"});
  Index last_n = 0;
  gs::GsResult last;
  for (Index n = 25000; n <= max_n; n *= 2) {
    const auto inst = implicit_uniform(n);
    const auto result = gs::gale_shapley_queue(inst, 0, 1);
    const double nlogn =
        static_cast<double>(n) * std::log(static_cast<double>(n));
    sweep.add_row({std::int64_t{n}, result.wall_ms, result.proposals,
                   static_cast<double>(result.proposals) / nlogn,
                   static_cast<double>(explicit_table_bytes(n)) /
                       (1024.0 * 1024.0 * 1024.0),
                   peak_rss_mib()});
    last_n = n;
    last = result;
  }
  sweep.print(std::cout);

  // --- Mertens asymptotics at the sweep's largest n ---------------------
  if (last_n > 0) {
    const auto inst = implicit_uniform(last_n);
    const auto ranks = partner_ranks(inst, last);
    const double ln_n = std::log(static_cast<double>(last_n));
    std::cout << "Mertens check at n = " << last_n
              << ": mean proposer partner rank = " << ranks.proposer_mean
              << " (" << ranks.proposer_mean / ln_n << "x ln n), "
              << "mean responder partner rank = " << ranks.responder_mean
              << " (" << ranks.responder_mean / (last_n / ln_n)
              << "x n/ln n) — see `kmatch mertens` for seed sweeps\n\n";
  }
}

/// Warm into-style solve loop (same discipline as E19): steady-state path,
/// no construction in the timed region.
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
  state.counters["peak_rss_mb"] = peak_rss_mib();
}

void bm_implicit_queue(benchmark::State& state) {
  const auto inst = implicit_uniform(static_cast<Index>(state.range(0)));
  run_warm(state, inst, [](const auto& in, auto& w, auto& r) {
    gs::gale_shapley_queue(in, 0, 1, {}, w, r);
  });
}
// The 100000 row is the ROADMAP's n >= 10^5 acceptance point: its proposal
// counter is gated exactly and its peak_rss_mb counter documents the O(n)
// footprint in the committed BENCH_E21.json (explicit tables would need
// ~150 GiB there).
BENCHMARK(bm_implicit_queue)->Arg(1024)->Arg(8192)->Arg(32768)->Arg(100000);

/// Explicit twin: the SAME instances materialized, so the proposal counters
/// match bm_implicit_queue row for row (gated exactly) and the within-file
/// implicit/explicit time ratio is the generator's true overhead factor.
/// At 8192 the twin's time also depends on the last-level cache: each
/// proposal reads a random cell of the responders' 128 MiB rank table, an L3
/// hit where the L3 holds it and a DRAM load where it does not.
void bm_explicit_queue(benchmark::State& state) {
  const auto inst =
      implicit_uniform(static_cast<Index>(state.range(0))).materialized();
  run_warm(state, inst, [](const auto& in, auto& w, auto& r) {
    gs::gale_shapley_queue(in, 0, 1, {}, w, r);
  });
}
// Capped at 8192: the 32768 twin alone would materialize ~13 GiB of tables,
// which is exactly the wall the implicit backend exists to remove (and more
// than CI runners have).
BENCHMARK(bm_explicit_queue)->Arg(1024)->Arg(8192);

}  // namespace

// An explicit instance keeps both tables in one slab from the aligned
// ::operator new (prefs/arena.hpp). Blocks of a huge page or more are
// allocated huge-page aligned and advised MADV_HUGEPAGE before their first
// touch, so the 768 MiB bm_explicit_queue/8192 twin gets huge pages whether
// the kernel's THP mode is "always" or "madvise". Without this most of the
// twin's cache misses also miss the TLB under "madvise" (10-15 ms per solve
// against 8-9 ms on huge pages, 4-vCPU x86-64 VM with a 105 MiB L3), and the
// gated implicit/explicit ratio would measure the machine's THP mode on top
// of the generator's overhead. Implicit instances allocate no such block.
void* operator new(std::size_t size, std::align_val_t align) {
  constexpr std::size_t kHugePage = std::size_t{2} << 20;
  const bool huge = size >= kHugePage;
  const std::size_t alignment = std::max(static_cast<std::size_t>(align),
                                         huge ? kHugePage : sizeof(void*));
  if (size > SIZE_MAX - alignment) throw std::bad_alloc();
  // aligned_alloc wants a size that is a multiple of the alignment.
  const std::size_t bytes =
      std::max(alignment, (size + alignment - 1) & ~(alignment - 1));
  void* p = std::aligned_alloc(alignment, bytes);
  if (p == nullptr) throw std::bad_alloc();
#if defined(__linux__)
  if (huge) ::madvise(p, bytes, MADV_HUGEPAGE);  // advice only; may be refused
#endif
  return p;
}
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }

int main(int argc, char** argv) {
  if (::kstable::benchsupport::refuse_non_release_export(argc, argv)) {
    return 2;
  }
  // This binary benches generator-backed instances (plus their materialized
  // twins); stamp the context so compare_bench.py refuses cross-backend
  // baseline comparisons.
  ::kstable::benchsupport::set_pref_backend("implicit");
  report();
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  ::kstable::benchsupport::attach_metrics_context();
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
