// Tests for the observability subsystem: the MetricsRegistry instruments and
// exporters, and the SolveTelemetry records every top-level driver attaches
// to its result (GS engines, iterative/priority/parallel binding, roommates,
// the fallback ladder, and the batch solver).

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "core/batch_solver.hpp"
#include "core/binding.hpp"
#include "core/gs_cache.hpp"
#include "core/parallel_binding.hpp"
#include "core/priority_binding.hpp"
#include "graph/binding_structure.hpp"
#include "gs/gale_shapley.hpp"
#include "observability/metrics.hpp"
#include "observability/telemetry.hpp"
#include "parallel/thread_pool.hpp"
#include "prefs/generators.hpp"
#include "prefs/kpartite.hpp"
#include "resilience/control.hpp"
#include "resilience/solve_ladder.hpp"
#include "roommates/adapters.hpp"
#include "util/rng.hpp"

namespace {

using namespace kstable;

KPartiteInstance uniform_instance(Gender k, Index n, std::uint64_t seed) {
  Rng rng(seed);
  return gen::uniform(k, n, rng);
}

// --------------------------------------------------------------------------
// MetricsRegistry instruments
// --------------------------------------------------------------------------

TEST(MetricsRegistry, CountersGaugesHistogramsRoundTrip) {
  obs::MetricsRegistry registry;
  registry.counter("a.count").add(3);
  registry.counter("a.count").add(2);
  registry.gauge("b.gauge").set(-7);
  registry.histogram("c.hist").observe(0);
  registry.histogram("c.hist").observe(5);
  registry.histogram("c.hist").observe(1000);

  EXPECT_EQ(registry.size(), 3u);
  EXPECT_EQ(registry.counter("a.count").value(), 5);
  EXPECT_EQ(registry.gauge("b.gauge").value(), -7);
  EXPECT_EQ(registry.histogram("c.hist").count(), 3);
  EXPECT_EQ(registry.histogram("c.hist").sum(), 1005);
}

TEST(MetricsRegistry, InstrumentReferencesAreStable) {
  obs::MetricsRegistry registry;
  obs::Counter& first = registry.counter("stable");
  // Force storage growth: deque-backed instruments never move.
  for (int i = 0; i < 200; ++i) {
    registry.counter("filler." + std::to_string(i));
  }
  EXPECT_EQ(&first, &registry.counter("stable"));
}

TEST(MetricsRegistry, KindMismatchIsContractChecked) {
  obs::MetricsRegistry registry;
  registry.counter("x");
  EXPECT_THROW(registry.gauge("x"), ContractViolation);
  EXPECT_THROW(registry.histogram("x"), ContractViolation);
}

TEST(MetricsRegistry, SnapshotIsNameSorted) {
  obs::MetricsRegistry registry;
  registry.counter("zeta");
  registry.counter("alpha");
  registry.gauge("mid");
  const auto samples = registry.snapshot();
  ASSERT_EQ(samples.size(), 3u);
  EXPECT_EQ(samples[0].name, "alpha");
  EXPECT_EQ(samples[1].name, "mid");
  EXPECT_EQ(samples[2].name, "zeta");
}

TEST(MetricsRegistry, ResetZeroesEverything) {
  obs::MetricsRegistry registry;
  registry.counter("c").add(9);
  registry.gauge("g").set(9);
  registry.histogram("h").observe(9);
  registry.reset();
  EXPECT_EQ(registry.counter("c").value(), 0);
  EXPECT_EQ(registry.gauge("g").value(), 0);
  EXPECT_EQ(registry.histogram("h").count(), 0);
  EXPECT_EQ(registry.histogram("h").sum(), 0);
}

TEST(MetricsRegistry, HistogramBucketsAreExponential) {
  obs::Histogram h;
  h.observe(0);   // bucket 0
  h.observe(1);   // bucket 1: [1, 2)
  h.observe(2);   // bucket 2: [2, 4)
  h.observe(3);   // bucket 2
  h.observe(4);   // bucket 3: [4, 8)
  EXPECT_EQ(h.bucket(0), 1);
  EXPECT_EQ(h.bucket(1), 1);
  EXPECT_EQ(h.bucket(2), 2);
  EXPECT_EQ(h.bucket(3), 1);
  EXPECT_EQ(obs::Histogram::bucket_bound(0), 0);
  EXPECT_EQ(obs::Histogram::bucket_bound(3), 7);
}

TEST(MetricsRegistry, JsonExportIsWellFormed) {
  obs::MetricsRegistry registry;
  registry.counter("solve.count").add(4);
  registry.gauge("margin").set(12);
  registry.histogram("wall").observe(3);
  std::ostringstream os;
  registry.write_json(os);
  const std::string json = os.str();
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  EXPECT_NE(json.find("\"solve.count\":4"), std::string::npos);
  EXPECT_NE(json.find("\"margin\":12"), std::string::npos);
  EXPECT_NE(json.find("\"wall\":{\"count\":1,\"sum\":3,\"buckets\":"),
            std::string::npos);
  EXPECT_EQ(json.find('\n'), std::string::npos) << "must be single-line";
}

TEST(MetricsRegistry, PrometheusExportFollowsConventions) {
  obs::MetricsRegistry registry;
  registry.counter("solve.count").add(4);
  registry.gauge("deadline.margin_us").set(250);
  registry.histogram("wall_us").observe(3);
  std::ostringstream os;
  registry.write_prometheus(os);
  const std::string text = os.str();
  // Counters: kstable_ prefix, dots sanitized, _total suffix.
  EXPECT_NE(text.find("# TYPE kstable_solve_count_total counter"),
            std::string::npos);
  EXPECT_NE(text.find("kstable_solve_count_total 4"), std::string::npos);
  EXPECT_NE(text.find("kstable_deadline_margin_us 250"), std::string::npos);
  // Histograms: cumulative buckets plus _sum/_count.
  EXPECT_NE(text.find("kstable_wall_us_bucket{le=\"+Inf\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("kstable_wall_us_sum 3"), std::string::npos);
  EXPECT_NE(text.find("kstable_wall_us_count 1"), std::string::npos);
}

#if KSTABLE_METRICS_ENABLED
TEST(MetricsMacros, FeedTheGlobalRegistry) {
  auto& counter = obs::MetricsRegistry::global().counter("test.macro.counter");
  const std::int64_t before = counter.value();
  KSTABLE_COUNTER_ADD("test.macro.counter", 2);
  KSTABLE_COUNTER_ADD("test.macro.counter", 3);
  EXPECT_EQ(counter.value(), before + 5);

  KSTABLE_GAUGE_SET("test.macro.gauge", 42);
  EXPECT_EQ(obs::MetricsRegistry::global().gauge("test.macro.gauge").value(),
            42);
  KSTABLE_GAUGE_SET_MS("test.macro.gauge_ms", 1.25);
  EXPECT_EQ(
      obs::MetricsRegistry::global().gauge("test.macro.gauge_ms").value(),
      1250);
}
#endif

// --------------------------------------------------------------------------
// SolveTelemetry: record shape and exporters
// --------------------------------------------------------------------------

void expect_valid_solved_telemetry(const obs::SolveTelemetry& t,
                                   const char* context) {
  SCOPED_TRACE(context);
  EXPECT_STRNE(t.engine, "") << "driver must label its telemetry";
  EXPECT_GT(t.wall_ms, 0.0) << "timing must be nonzero";
  EXPECT_GT(t.proposals, 0) << "a real solve spends proposals";
  EXPECT_TRUE(t.status.ok());
  // JSON and Prometheus exports agree with the record.
  const std::string json = t.to_json();
  EXPECT_NE(json.find(std::string("\"engine\":\"") + t.engine + '"'),
            std::string::npos);
  EXPECT_NE(json.find("\"proposals\":" + std::to_string(t.proposals)),
            std::string::npos);
  const std::string prom = t.to_prometheus();
  EXPECT_NE(prom.find(std::string("engine=\"") + t.engine + "\"}"),
            std::string::npos);
  EXPECT_NE(prom.find("kstable_solve_proposals"), std::string::npos);
}

TEST(SolveTelemetry, GsEnginesProduceTelemetry) {
  const auto inst = uniform_instance(3, 16, 5);
  const auto queue = gs::gale_shapley_queue(inst, 0, 1);
  const auto t1 = gs::solve_telemetry(queue, inst.genders(), inst.per_gender());
  expect_valid_solved_telemetry(t1, "gs.queue");
  EXPECT_STREQ(t1.engine, "gs.queue");
  EXPECT_EQ(t1.proposals, queue.proposals);

  const auto rounds = gs::gale_shapley_rounds(inst, 0, 1);
  const auto t2 =
      gs::solve_telemetry(rounds, inst.genders(), inst.per_gender());
  expect_valid_solved_telemetry(t2, "gs.rounds");
  EXPECT_STREQ(t2.engine, "gs.rounds");
  EXPECT_GT(t2.rounds, 0);
}

TEST(SolveTelemetry, IterativeBindingAttachesTelemetry) {
  const auto inst = uniform_instance(4, 12, 7);
  const auto result = core::iterative_binding(inst, trees::path(4));
  expect_valid_solved_telemetry(result.telemetry, "iterative_binding");
  EXPECT_STREQ(result.telemetry.engine, "binding.queue");
  EXPECT_EQ(result.telemetry.genders, 4);
  EXPECT_EQ(result.telemetry.size, 12);
  EXPECT_EQ(result.telemetry.proposals, result.total_proposals);
  ASSERT_GE(result.telemetry.phase_count, 1);
  EXPECT_STREQ(result.telemetry.phases[0].name, "bind");
}

TEST(SolveTelemetry, PriorityBindingRelabelsPhases) {
  const auto inst = uniform_instance(4, 10, 11);
  const auto result = core::priority_binding(inst);
  expect_valid_solved_telemetry(result.binding.telemetry, "priority_binding");
  EXPECT_STREQ(result.binding.telemetry.engine, "binding.priority");
  ASSERT_EQ(result.binding.telemetry.phase_count, 2);
  EXPECT_STREQ(result.binding.telemetry.phases[0].name, "grow-tree");
  EXPECT_STREQ(result.binding.telemetry.phases[1].name, "bind");
}

TEST(SolveTelemetry, ParallelBindingReportsScheduleEngine) {
  const auto inst = uniform_instance(4, 10, 13);
  ThreadPool pool(2);
  const auto report = core::execute_binding(
      inst, trees::path(4), core::ExecutionMode::erew_rounds, pool);
  expect_valid_solved_telemetry(report.binding.telemetry, "execute_binding");
  EXPECT_STREQ(report.binding.telemetry.engine, "parallel.erew");
  EXPECT_EQ(report.binding.telemetry.rounds, report.rounds_executed);
}

TEST(SolveTelemetry, RoommatesSolverAttachesTelemetry) {
  const auto inst = uniform_instance(2, 8, 17);
  const auto result =
      rm::solve_kpartite_binary(inst, rm::Linearization::round_robin);
  ASSERT_TRUE(result.has_stable);
  expect_valid_solved_telemetry(result.detail.telemetry, "roommates");
  EXPECT_STREQ(result.detail.telemetry.engine, "roommates");
  EXPECT_EQ(result.detail.telemetry.genders, 0)
      << "roommates graphs are non-partite";
  ASSERT_GE(result.detail.telemetry.phase_count, 1);
  EXPECT_STREQ(result.detail.telemetry.phases[0].name, "phase1");
}

TEST(SolveTelemetry, FallbackLadderRecordsRungAndAttempts) {
  const auto inst = uniform_instance(3, 10, 19);
  const auto report = resilience::solve_with_fallback(inst);
  ASSERT_TRUE(report.succeeded);
  expect_valid_solved_telemetry(report.telemetry, "solve_with_fallback");
  EXPECT_STREQ(report.telemetry.engine, "ladder");
  EXPECT_GE(report.telemetry.rung, 0);
  EXPECT_EQ(report.telemetry.attempts,
            static_cast<std::int64_t>(report.attempts.size()));
}

TEST(SolveTelemetry, BatchSolverRecordsPerItemTelemetry) {
  std::vector<KPartiteInstance> instances;
  for (std::uint64_t seed = 0; seed < 3; ++seed) {
    instances.push_back(uniform_instance(3, 8, 23 + seed));
  }
  ThreadPool pool(2);
  core::BatchSolver solver(pool);
  const auto results = solver.solve(instances);
  ASSERT_EQ(results.size(), instances.size());
  for (std::size_t i = 0; i < results.size(); ++i) {
    expect_valid_solved_telemetry(results[i].telemetry, "batch item");
    EXPECT_STREQ(results[i].telemetry.engine, "batch.item");
    EXPECT_EQ(results[i].telemetry.proposals, results[i].total_proposals);
  }
}

TEST(SolveTelemetry, AbortedSolveCarriesAbortStatus) {
  const auto inst = uniform_instance(4, 24, 29);
  resilience::ExecControl control{resilience::Budget::proposals(5)};
  core::BindingOptions options;
  options.control = &control;
  EXPECT_THROW(core::iterative_binding(inst, trees::path(4), options),
               ExecutionAborted);
  // The batch driver surfaces the same abort as telemetry instead of a throw.
  std::vector<KPartiteInstance> one;
  one.push_back(inst);
  ThreadPool pool(1);
  core::BatchSolver solver(pool);
  core::BatchOptions bopts;
  bopts.per_item_budgets = {resilience::Budget::proposals(5)};
  const auto results = solver.solve(one, bopts);
  ASSERT_EQ(results.size(), 1u);
  EXPECT_FALSE(results[0].telemetry.status.ok());
  const std::string json = results[0].telemetry.to_json();
  EXPECT_NE(json.find("\"outcome\":\"aborted\""), std::string::npos);
}

#if KSTABLE_METRICS_ENABLED
TEST(SolveTelemetry, RecordFoldsIntoGlobalRegistry) {
  auto& registry = obs::MetricsRegistry::global();
  const std::int64_t count_before =
      registry.counter("solve.test.record.count").value();
  const std::int64_t proposals_before =
      registry.counter("solve.test.record.proposals").value();

  obs::SolveTelemetry t;
  t.engine = "test.record";
  t.wall_ms = 1.5;
  t.proposals = 12;
  t.executed_proposals = 12;
  t.rounds = 3;
  t.attempts = 2;
  t.rung = 1;
  t.deadline_margin_ms = 4.0;
  obs::record(t);

  EXPECT_EQ(registry.counter("solve.test.record.count").value(),
            count_before + 1);
  EXPECT_EQ(registry.counter("solve.test.record.proposals").value(),
            proposals_before + 12);
  EXPECT_EQ(registry.gauge("ladder.last_rung").value(), 1);
  EXPECT_EQ(registry.gauge("deadline.margin_us").value(), 4000);
}

TEST(SolveTelemetry, CacheCountersComeFromTheCacheItself) {
  auto& registry = obs::MetricsRegistry::global();
  const std::int64_t hits_before = registry.counter("cache.hits").value();
  const std::int64_t misses_before = registry.counter("cache.misses").value();

  const auto inst = uniform_instance(3, 8, 31);
  core::GsEdgeCache cache(inst.genders());
  core::BindingOptions options;
  options.cache = &cache;
  const auto first = core::iterative_binding(inst, trees::path(3), options);
  const auto second = core::iterative_binding(inst, trees::path(3), options);
  EXPECT_GT(second.telemetry.cache_hits, 0);

  const std::int64_t hits = registry.counter("cache.hits").value();
  const std::int64_t misses = registry.counter("cache.misses").value();
  EXPECT_EQ(hits - hits_before,
            first.telemetry.cache_hits + second.telemetry.cache_hits);
  EXPECT_EQ(misses - misses_before,
            first.telemetry.cache_misses + second.telemetry.cache_misses);
}
#endif

}  // namespace
