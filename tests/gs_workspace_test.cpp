// Allocation tests: this binary replaces the global operator new/delete with
// counting hooks so the tests can assert that gale_shapley_queue /
// gale_shapley_rounds with a warm GsWorkspace and a warm GsResult perform
// ZERO heap allocations per solve, that traced runs reserve the Theorem 3
// bound (n² events) up front instead of growing geometrically, that the
// instance loader allocates a fixed number of times per instance, not per
// preference row, that Algorithm 1's class derivation allocates exactly its
// three flat tables, not one vector per class, that a warm edge-cache
// lookup allocates nothing, that a binding on a warm thread allocates only
// the match arrays it returns, and how many times one serve body's ladder
// allocates.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "core/binding.hpp"
#include "core/equivalence.hpp"
#include "core/gs_cache.hpp"
#include "graph/prufer.hpp"
#include "gs/gale_shapley.hpp"
#include "prefs/generators.hpp"
#include "observability/metrics.hpp"
#include "prefs/io.hpp"
#include "resilience/solve_ladder.hpp"
#include "serve/client.hpp"
#include "util/rng.hpp"

namespace {
/// Counts every global allocation in this test binary. Relaxed is enough:
/// the tests snapshot/compare on one thread.
std::atomic<std::int64_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size > 0 ? size : 1)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size > 0 ? size : 1)) return p;
  throw std::bad_alloc();
}

// Over-aligned allocations (the instance arena) are counted too.
void* operator new(std::size_t size, std::align_val_t align) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  const auto a = static_cast<std::size_t>(align);
  // aligned_alloc wants a nonzero multiple of the alignment.
  if (void* p = std::aligned_alloc(a, (size / a + 1) * a)) return p;
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace kstable::gs {
namespace {

/// Runs `fn` and returns how many allocations it performed.
template <typename Fn>
std::int64_t allocations_during(Fn&& fn) {
  const std::int64_t before = g_allocations.load(std::memory_order_relaxed);
  fn();
  return g_allocations.load(std::memory_order_relaxed) - before;
}

TEST(GsWorkspace, QueueEngineZeroAllocationsWhenWarm) {
  Rng rng(71);
  const auto inst = gen::uniform(4, 64, rng);
  GsWorkspace workspace;
  GsResult result;
  const GsOptions options;
  // Warm-up: the first solve may allocate the workspace and result buffers.
  gale_shapley_queue(inst, 0, 1, options, workspace, result);

  // Every subsequent solve — same pair, new pair, either orientation — must
  // allocate nothing.
  for (const GenderEdge edge :
       {GenderEdge{0, 1}, GenderEdge{2, 3}, GenderEdge{3, 0}}) {
    const std::int64_t allocs = allocations_during([&] {
      gale_shapley_queue(inst, edge.a, edge.b, options, workspace, result);
    });
    EXPECT_EQ(allocs, 0) << "GS(" << edge.a << ',' << edge.b << ") allocated";
    const auto expected = gale_shapley_queue(inst, edge.a, edge.b);
    EXPECT_EQ(result.proposer_match, expected.proposer_match);
    EXPECT_EQ(result.responder_match, expected.responder_match);
    EXPECT_EQ(result.proposals, expected.proposals);
  }
}

TEST(GsWorkspace, RoundsEngineZeroAllocationsWhenWarm) {
  Rng rng(72);
  const auto inst = gen::uniform(3, 48, rng);
  GsWorkspace workspace;
  GsResult result;
  const GsOptions options;
  gale_shapley_rounds(inst, 0, 1, options, workspace, result);

  for (const GenderEdge edge : {GenderEdge{1, 2}, GenderEdge{2, 0}}) {
    const std::int64_t allocs = allocations_during([&] {
      gale_shapley_rounds(inst, edge.a, edge.b, options, workspace, result);
    });
    EXPECT_EQ(allocs, 0) << "GS(" << edge.a << ',' << edge.b << ") allocated";
    const auto expected = gale_shapley_rounds(inst, edge.a, edge.b);
    EXPECT_EQ(result.proposer_match, expected.proposer_match);
    EXPECT_EQ(result.proposals, expected.proposals);
    EXPECT_EQ(result.rounds, expected.rounds);
  }
}

TEST(GsWorkspace, ImplicitBackendZeroAllocationsWhenWarm) {
  // The implicit backend must keep the engines' zero-allocation warm-path
  // contract: generator evaluation is pure arithmetic, so a warm solve over
  // a generator-backed instance heap-allocates exactly as much as one over
  // arena tables — nothing.
  const auto inst = KPartiteInstance::make_implicit(
      3, 64, {prefs::imp::Family::uniform, 0x5eedULL});
  GsWorkspace workspace;
  GsResult result;
  const GsOptions options;
  gale_shapley_queue(inst, 0, 1, options, workspace, result);

  for (const GenderEdge edge :
       {GenderEdge{0, 1}, GenderEdge{1, 2}, GenderEdge{2, 0}}) {
    const std::int64_t allocs = allocations_during([&] {
      gale_shapley_queue(inst, edge.a, edge.b, options, workspace, result);
    });
    EXPECT_EQ(allocs, 0) << "implicit GS(" << edge.a << ',' << edge.b
                         << ") allocated";
    const auto expected = gale_shapley_queue(inst, edge.a, edge.b);
    EXPECT_EQ(result.proposer_match, expected.proposer_match);
    EXPECT_EQ(result.proposals, expected.proposals);
  }
}

TEST(GsWorkspace, ArenaInstancesAllocateNothingPerSolve) {
  // The arena layout concentrates every byte of instance storage in one slab
  // carved at construction: a warm queue solve over a freshly *generated*
  // instance still allocates nothing, because reading pref/rank rows never
  // touches the allocator.
  Rng rng(78);
  const auto first = gen::uniform(3, 32, rng);
  const auto second = gen::uniform(3, 32, rng);
  GsWorkspace workspace;
  GsResult result;
  gale_shapley_queue(first, 0, 1, {}, workspace, result);
  const std::int64_t allocs = allocations_during([&] {
    gale_shapley_queue(second, 2, 0, {}, workspace, result);
    gale_shapley_queue(first, 1, 2, {}, workspace, result);
  });
  EXPECT_EQ(allocs, 0);
}

TEST(GsWorkspace, WarmHelpersPreallocate) {
  Rng rng(73);
  const Index n = 32;
  const auto inst = gen::uniform(2, n, rng);
  GsWorkspace workspace;
  GsResult result;
  workspace.warm(n);
  warm_result(result, n);
  // Explicit warming removes even the first solve's allocations.
  const std::int64_t allocs = allocations_during(
      [&] { gale_shapley_queue(inst, 0, 1, {}, workspace, result); });
  EXPECT_EQ(allocs, 0);
}

TEST(GsWorkspace, SmallerInstancesReuseWarmCapacity) {
  Rng rng(74);
  const auto big = gen::uniform(3, 64, rng);
  const auto small = gen::uniform(3, 16, rng);
  GsWorkspace workspace;
  GsResult result;
  gale_shapley_queue(big, 0, 1, {}, workspace, result);
  // A different, smaller instance fits inside the warm capacity.
  const std::int64_t allocs = allocations_during(
      [&] { gale_shapley_queue(small, 1, 2, {}, workspace, result); });
  EXPECT_EQ(allocs, 0);
  const auto expected = gale_shapley_queue(small, 1, 2);
  EXPECT_EQ(result.proposer_match, expected.proposer_match);
}

TEST(GsWorkspace, WorkspaceThreadedThroughRunBinding) {
  Rng rng(75);
  const auto inst = gen::uniform(3, 64, rng);
  // The first binding on this thread may grow its workspace.
  (void)core::run_binding(inst, {0, 1}, {});
  // After that an uncached binding allocates only the two match arrays of
  // the result it returns.
  GsResult result;
  EXPECT_EQ(allocations_during(
                [&] { result = core::run_binding(inst, {1, 2}, {}); }),
            2);
  const auto expected = gale_shapley_queue(inst, 1, 2);
  EXPECT_EQ(result.proposer_match, expected.proposer_match);
  EXPECT_EQ(result.responder_match, expected.responder_match);
  EXPECT_EQ(result.proposals, expected.proposals);
  EXPECT_EQ(result.rounds, expected.rounds);
  EXPECT_STREQ(result.engine, expected.engine);
}

TEST(GsTrace, TracedRunsReserveTheTheorem3Bound) {
  Rng rng(76);
  const Index n = 24;
  const auto inst = gen::uniform(2, n, rng);
  std::vector<ProposalEvent> trace;
  GsOptions options;
  options.trace = &trace;
  gale_shapley_queue(inst, 0, 1, options);
  // One up-front reserve of n² events instead of geometric growth.
  EXPECT_GE(trace.capacity(),
            static_cast<std::size_t>(n) * static_cast<std::size_t>(n));
  EXPECT_LE(trace.size(),
            static_cast<std::size_t>(n) * static_cast<std::size_t>(n));

  // Appending a second traced run extends the reservation past the events
  // already recorded.
  const std::size_t first_run = trace.size();
  gale_shapley_rounds(inst, 1, 0, options);
  EXPECT_GE(trace.capacity(),
            first_run + static_cast<std::size_t>(n) * static_cast<std::size_t>(n));
}

TEST(IoAllocations, FromStringAllocatesPerInstanceNotPerRow) {
  // A k = 3, n = 64 SOLVE body of the serve workload: 384 preference rows.
  serve::PingOptions ping;
  ping.requests = 2;
  ping.n = 64;
  const auto bodies = serve::make_request_bodies(ping);
  // The first load on this thread may grow set_pref_list's reused rank
  // buffer. After that a load makes three allocations: the instance arena,
  // the loader's filled[] row bitmap and its one reused row buffer.
  (void)io::from_string(bodies[0]);
  const std::int64_t allocs =
      allocations_during([&] { (void)io::from_string(bodies[1]); });
  EXPECT_EQ(allocs, 3);
}

TEST(GsEdgeCacheAllocations, WarmHitsAllocateOnlyTheResultCopy) {
  Rng rng(80);
  const auto inst = gen::uniform(3, 32, rng);
  core::GsEdgeCache cache(inst);
  core::BindingOptions options;
  options.cache = &cache;
  const GenderEdge edge{1, 2};
  const GsOptions gs_options;
  // Four references, as many as run_binding's own compute captures: more
  // than a std::function holds without allocating.
  const auto compute = [&inst, &a = edge.a, &b = edge.b, &gs_options] {
    return gale_shapley_queue(inst, a, b, gs_options);
  };
  // Warm-up: a miss fills the key, a hit registers the hit counter.
  (void)core::run_binding(inst, edge, options);
  (void)core::run_binding(inst, edge, options);

  // A lookup that hits allocates nothing.
  bool hit = false;
  EXPECT_EQ(allocations_during([&] {
              (void)cache.get_or_compute(edge, compute, &hit);
            }),
            0);
  EXPECT_TRUE(hit);

  // A cached run_binding allocates only its copy of the result's two match
  // arrays.
  hit = false;
  GsResult copy;
  EXPECT_EQ(allocations_during(
                [&] { copy = core::run_binding(inst, edge, options, &hit); }),
            2);
  EXPECT_TRUE(hit);
  EXPECT_EQ(copy.proposer_match,
            gale_shapley_queue(inst, edge.a, edge.b).proposer_match);
}

/// Allocations of one derive_families call over a fresh uniform instance with
/// n members per gender, bound along `tree`.
std::int64_t derive_allocations(const BindingStructure& tree, Index n,
                                Rng& rng) {
  const auto inst = gen::uniform(tree.genders(), n, rng);
  std::vector<GsResult> results;
  for (const GenderEdge& e : tree.edges()) {
    results.push_back(gale_shapley_queue(inst, e.a, e.b));
  }
  core::EquivalenceReport report;
  const std::int64_t allocs = allocations_during(
      [&] { report = core::derive_families(inst, tree, results); });
  EXPECT_TRUE(report.consistent) << report.inconsistency;
  return allocs;
}

TEST(DeriveFamiliesAllocations, SameCountAtEverySize) {
  // The families are walked column by column into one flat table, so
  // deriving them allocates that table, the edge marks and KaryMatching's
  // member index, whatever n is.
  Rng rng(79);
  for (const auto& tree : {trees::path(3), prufer::random_tree(5, rng)}) {
    const std::int64_t small = derive_allocations(tree, 16, rng);
    const std::int64_t large = derive_allocations(tree, 512, rng);
    EXPECT_EQ(small, large) << "k = " << tree.genders();
    EXPECT_EQ(large, 3) << "k = " << tree.genders();
  }
}

TEST(LadderAllocations, OneServeBodyOnAWarmThread) {
  // One k = 3, n = 64 serve body's cache and ladder: a GsEdgeCache bound to
  // the instance and solve_with_fallback at ServeLimits' 2 strict rungs,
  // where the first rung succeeds.
  Rng rng(81);
  const auto inst = gen::uniform(3, 64, rng);
  const auto body = [&inst] {
    core::GsEdgeCache cache(inst);
    resilience::FallbackOptions options;
    options.max_tree_attempts = 2;
    options.cache = &cache;
    return resilience::solve_with_fallback(inst, options);
  };
  // The first body warms the thread's GS workspace and the metric series.
  (void)body();
  resilience::FallbackReport report;
  const std::int64_t allocs = allocations_during([&] { report = body(); });
  ASSERT_TRUE(report.succeeded);
  EXPECT_EQ(report.rung, resilience::Rung::strict_tree);
  EXPECT_EQ(report.attempts.size(), 1u);
  // The cache's slot table, the options' cancellation token, the path tree
  // (7), the attempt log (2), two is_spanning_tree checks (4), the two
  // edges' match arrays, their copies out of the cache and the edge_results
  // vector (9), and derive_families (3) — plus, with metrics compiled in,
  // the binding's and the ladder's obs::record (15). The later rungs' trees
  // are drawn only when a rung fails, the report is not copied on return,
  // and the GS runs reuse the thread's workspace (docs/PERFORMANCE.md).
#if KSTABLE_METRICS_ENABLED
  EXPECT_EQ(allocs, 42);
#else
  EXPECT_EQ(allocs, 27);
#endif
}

}  // namespace
}  // namespace kstable::gs
