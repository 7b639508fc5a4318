// Overhead tests for the observability layer: this binary replaces the global
// operator new/delete with counting hooks and asserts that the instrumented
// GS hot path stays allocation-free once its handles are resolved — i.e. the
// macros cost one relaxed fetch_add, never a registry lookup or a heap
// allocation — and that obs::record, once a label's series exist, finds
// them without building a heap string.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "core/binding.hpp"
#include "gs/gale_shapley.hpp"
#include "observability/metrics.hpp"
#include "observability/telemetry.hpp"
#include "prefs/generators.hpp"
#include "util/rng.hpp"

namespace {
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

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace kstable {
namespace {

template <typename Fn>
std::int64_t allocations_during(Fn&& fn) {
  const std::int64_t before = g_allocations.load(std::memory_order_relaxed);
  fn();
  return g_allocations.load(std::memory_order_relaxed) - before;
}

TEST(MetricsOverhead, CounterBumpAllocatesNothing) {
  // Resolve the handles once (may allocate: registry growth + name strings).
  KSTABLE_COUNTER_ADD("overhead.test.counter", 1);
  KSTABLE_GAUGE_SET("overhead.test.counter2", 0);
  KSTABLE_HISTOGRAM_OBSERVE("overhead.test.hist", 0);
  const std::int64_t allocs = allocations_during([&] {
    for (int i = 0; i < 1000; ++i) {
      KSTABLE_COUNTER_ADD("overhead.test.counter", 1);
      KSTABLE_GAUGE_SET("overhead.test.counter2", i);
      KSTABLE_HISTOGRAM_OBSERVE("overhead.test.hist", i);
    }
  });
  EXPECT_EQ(allocs, 0);
}

TEST(MetricsOverhead, RegistryLookupHitAllocatesNothing) {
  auto& registry = obs::MetricsRegistry::global();
  registry.counter("overhead.test.lookup");
  // Heterogeneous string_view lookup: a repeat lookup must not build a
  // temporary std::string.
  const std::int64_t allocs = allocations_during([&] {
    for (int i = 0; i < 100; ++i) registry.counter("overhead.test.lookup");
  });
  EXPECT_EQ(allocs, 0);
}

TEST(MetricsOverhead, RecordAllocatesNothingOnceItsSeriesExist) {
  // Every optional series set: executed proposals, rounds, rung (ladder
  // gauge and attempts) and deadline margin.
  obs::SolveTelemetry t;
  t.engine = "overhead.test.record";
  t.wall_ms = 0.5;
  t.proposals = 40;
  t.executed_proposals = 30;
  t.rounds = 4;
  t.attempts = 1;
  t.rung = 0;
  t.deadline_margin_ms = 2.0;
  obs::record(t);  // registers the series (allocates names and map nodes)
  EXPECT_EQ(allocations_during([&] { obs::record(t); }), 0);
}

TEST(MetricsOverhead, InstrumentedGsHotPathStaysAllocationFree) {
  Rng rng(81);
  const Index n = 48;
  const auto inst = gen::uniform(3, n, rng);
  gs::GsWorkspace workspace;
  gs::GsResult result;
  workspace.warm(n);
  gs::warm_result(result, n);
  // The engines' instruments register at static-init time, so with a warm
  // workspace even the FIRST instrumented solve allocates nothing — the
  // macros cost one relaxed fetch_add each.
  const std::int64_t first = allocations_during(
      [&] { gs::gale_shapley_queue(inst, 0, 1, {}, workspace, result); });
  EXPECT_EQ(first, 0);
  const std::int64_t steady = allocations_during([&] {
    for (int i = 0; i < 10; ++i) {
      gs::gale_shapley_queue(inst, 1, 2, {}, workspace, result);
      gs::gale_shapley_rounds(inst, 2, 0, {}, workspace, result);
    }
  });
  EXPECT_EQ(steady, 0);
}

TEST(MetricsOverhead, TelemetryStructIsHeapFree) {
  // Embedding SolveTelemetry in result structs must not add allocations:
  // labels are static strings and phases are a fixed array. (SolveStatus's
  // detail string is empty for ok solves, so no allocation there either.)
  volatile int observed_phases = 0;
  const std::int64_t allocs = allocations_during([&] {
    obs::SolveTelemetry t;
    t.engine = "overhead.test";
    t.add_phase("a", 1.0);
    t.add_phase("b", 2.0);
    t.proposals = 100;
    observed_phases = t.phase_count;
  });
  EXPECT_EQ(allocs, 0);
  EXPECT_EQ(observed_phases, 2);
}

}  // namespace
}  // namespace kstable
