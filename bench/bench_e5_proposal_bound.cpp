// E5 — Theorem 3 / §IV.B: the iterative binding GS algorithm takes at most
// (k-1)n² accumulated proposals; there are k^(k-2) binding trees (Cayley).
//
// Paper claims regenerated:
//  * measured proposals never exceed (k-1)n² and typically sit far below on
//    uniform instances (≈ (k-1) · n·H(n) ≈ (k-1)·n·ln n);
//  * master-list preferences push the count to (k-1)·n(n+1)/2 — the same
//    quadratic order as the bound;
//  * Cayley's k^(k-2) tree count, cross-checked by explicit enumeration.

#include "bench_common.hpp"

#include "core/binding.hpp"
#include "graph/binding_structure.hpp"
#include "graph/prufer.hpp"
#include "prefs/generators.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

namespace {

using namespace kstable;

void report() {
  std::cout << "E5: Theorem 3 proposal bound and Cayley tree counts\n\n";

  TableWriter bound("Accumulated proposals vs the (k-1)n^2 bound (path trees)",
                    {"k", "n", "prefs", "proposals", "bound", "ratio"});
  Rng rng(41);
  for (const auto& [k, n] : std::vector<std::pair<Gender, Index>>{
           {3, 64}, {3, 256}, {3, 1024}, {5, 256}, {8, 256}, {8, 1024}}) {
    const auto uniform_inst = gen::uniform(k, n, rng);
    const auto u = core::iterative_binding(uniform_inst, trees::path(k));
    const std::int64_t cap = static_cast<std::int64_t>(k - 1) * n * n;
    bound.add_row({std::int64_t{k}, std::int64_t{n}, std::string("uniform"),
                   u.total_proposals, cap,
                   static_cast<double>(u.total_proposals) /
                       static_cast<double>(cap)});
    const auto master_inst = gen::master_list(k, n, rng);
    const auto m = core::iterative_binding(master_inst, trees::path(k));
    bound.add_row({std::int64_t{k}, std::int64_t{n}, std::string("master"),
                   m.total_proposals, cap,
                   static_cast<double>(m.total_proposals) /
                       static_cast<double>(cap)});
  }
  bound.print(std::cout);

  TableWriter shape("Proposal counts by tree shape (k=8, n=256, uniform)",
                    {"tree", "max degree", "proposals"});
  Rng rng2(42);
  const auto inst = gen::uniform(8, 256, rng2);
  const auto add = [&](const std::string& name, const BindingStructure& t) {
    const auto r = core::iterative_binding(inst, t);
    shape.add_row({name, std::int64_t{t.max_degree()}, r.total_proposals});
  };
  add("path", trees::path(8));
  add("star(0)", trees::star(8, 0));
  add("caterpillar(4)", trees::caterpillar(8, 4));
  Rng tr(43);
  add("random", prufer::random_tree(8, tr));
  shape.print(std::cout);

  TableWriter cayley("Cayley counts k^(k-2) (enumeration cross-check to k=7)",
                     {"k", "k^(k-2)", "enumerated"});
  for (Gender k = 2; k <= 8; ++k) {
    std::int64_t enumerated = -1;
    if (k <= 7) {
      enumerated = 0;
      prufer::enumerate_trees(k, [&](const BindingStructure&) { ++enumerated; });
    }
    cayley.add_row({std::int64_t{k}, prufer::cayley_count(k),
                    enumerated < 0 ? std::string("(skipped)")
                                   : std::to_string(enumerated)});
  }
  cayley.print(std::cout);
}

void bm_binding_uniform(benchmark::State& state) {
  const auto k = static_cast<Gender>(state.range(0));
  const auto n = static_cast<Index>(state.range(1));
  Rng rng(44);
  const auto inst = gen::uniform(k, n, rng);
  const auto tree = trees::path(k);
  std::int64_t proposals = 0;
  for (auto _ : state) {
    const auto r = core::iterative_binding(inst, tree);
    proposals = r.total_proposals;
    benchmark::DoNotOptimize(proposals);
  }
  state.counters["proposals"] = static_cast<double>(proposals);
  state.counters["bound"] = static_cast<double>(k - 1) * n * n;
}
BENCHMARK(bm_binding_uniform)->Args({3, 256})->Args({5, 256})->Args({8, 256});

void bm_binding_master(benchmark::State& state) {
  const auto k = static_cast<Gender>(state.range(0));
  const auto n = static_cast<Index>(state.range(1));
  Rng rng(45);
  const auto inst = gen::master_list(k, n, rng);
  const auto tree = trees::path(k);
  for (auto _ : state) {
    const auto r = core::iterative_binding(inst, tree);
    benchmark::DoNotOptimize(r.total_proposals);
  }
}
BENCHMARK(bm_binding_master)->Args({3, 256})->Args({8, 256});

void bm_prufer_roundtrip(benchmark::State& state) {
  const auto k = static_cast<Gender>(state.range(0));
  Rng rng(46);
  for (auto _ : state) {
    const auto tree = prufer::random_tree(k, rng);
    const auto seq = prufer::encode(tree);
    benchmark::DoNotOptimize(seq.data());
  }
}
BENCHMARK(bm_prufer_roundtrip)->Arg(8)->Arg(16)->Arg(26);

}  // namespace

KSTABLE_BENCH_MAIN(report)
