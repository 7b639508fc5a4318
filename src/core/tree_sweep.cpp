#include "core/tree_sweep.hpp"

#include <algorithm>
#include <atomic>
#include <limits>
#include <mutex>
#include <utility>

#include "analysis/metrics.hpp"
#include "graph/prufer.hpp"
#include "observability/metrics.hpp"
#include "util/check.hpp"
#include "util/timer.hpp"

namespace kstable::core {

namespace {

/// Trees per work-stealing claim: small enough to balance, large enough that
/// the per-claim lock is noise next to k-1 GS runs per tree. E18's exact
/// chunk counters (BENCH_E18.json) are computed with this value.
constexpr std::int64_t kChunkTrees = 8;

/// Produces candidate `index` (pure: callable from any worker).
using TreeProvider = std::function<BindingStructure(std::int64_t)>;

/// Per-worker partial fold. Merged in worker order at the end; every field
/// merges through an order-insensitive operation (sum, or the fold's total
/// order on (cost, index)), which is what makes the sweep schedule-invariant.
struct WorkerLocal {
  std::int64_t trees = 0;
  std::int64_t total_proposals = 0;
  std::int64_t executed_proposals = 0;
  std::int64_t cache_hits = 0;
  std::int64_t cache_misses = 0;
  std::int64_t best_index = -1;
  std::int64_t best_cost = std::numeric_limits<std::int64_t>::max();
  std::optional<BindingResult> best;
  std::optional<BindingStructure> best_tree;
  std::vector<TreePoint> points;
};

/// Evaluates candidate `index` into `local`. An ExecutionAborted from the
/// whole-sweep control propagates: it aborts the sweep, never one tree.
void evaluate_tree(const KPartiteInstance& inst, std::int64_t index,
                   const TreeProvider& provider, const TreeSweepOptions& opt,
                   gs::GsWorkspace& workspace, WorkerLocal& local) {
  if (opt.control != nullptr) opt.control->check_now();

  const BindingStructure tree = provider(index);

  BindingOptions bopts;
  bopts.control = opt.control;
  bopts.cache = opt.cache;
  bopts.workspace = &workspace;
  BindingResult result = iterative_binding(inst, tree, bopts);
  const std::int64_t cost =
      analysis::kary_tree_costs(inst, result.matching(), tree).total_cost;

  ++local.trees;
  local.total_proposals += result.total_proposals;
  local.executed_proposals += result.executed_proposals;
  local.cache_hits += result.cache_hits;
  local.cache_misses += result.cache_misses;

  if (opt.fold == SweepFold::score_table) {
    TreePoint point;
    point.index = index;
    point.prufer = prufer::encode(tree);
    point.bound_pair_cost = cost;
    point.all_pairs_cost =
        analysis::kary_costs(inst, result.matching()).total_cost;
    point.total_proposals = result.total_proposals;
    point.executed_proposals = result.executed_proposals;
    point.cache_hits = result.cache_hits;
    point.cache_misses = result.cache_misses;
    if (opt.keep_matchings) point.matching = result.matching();
    local.points.push_back(std::move(point));
  }
  const bool wins = cost < local.best_cost ||
                    (cost == local.best_cost &&
                     (local.best_index < 0 || index < local.best_index));
  if (wins) {
    local.best_index = index;
    local.best_cost = cost;
    local.best = std::move(result);
    local.best_tree = tree;
  }
}

TreeSweepResult sweep_indexed(const KPartiteInstance& inst, std::int64_t count,
                              const TreeProvider& provider,
                              const TreeSweepOptions& opt) {
  if (opt.cache != nullptr) {
    KSTABLE_REQUIRE(opt.cache->genders() == inst.genders(),
                    "cache built for k=" << opt.cache->genders()
                                         << ", instance has k="
                                         << inst.genders());
  }

  TreeSweepResult out;
  const WallTimer timer;
  const GsEdgeCache::Stats cache_before =
      opt.cache != nullptr ? opt.cache->stats() : GsEdgeCache::Stats{};

  const bool nested = opt.pool != nullptr && ThreadPool::in_worker_thread();
  const bool parallel_run = opt.pool != nullptr && !nested &&
                            opt.pool->thread_count() > 1 && count > 1;

  std::vector<WorkerLocal> locals;
  if (parallel_run) {
    locals.resize(opt.pool->thread_count());
    const SweepSchedule schedule = sweep_index_space(
        count, *opt.pool, kChunkTrees,
        [&](std::size_t worker, std::int64_t begin, std::int64_t end) {
          // One warm workspace per pool thread, reused across sweeps (the
          // BatchSolver pattern): every per-edge GS run is allocation-free.
          thread_local gs::GsWorkspace workspace;
          WorkerLocal& local = locals[worker];
          for (std::int64_t i = begin; i < end; ++i) {
            evaluate_tree(inst, i, provider, opt, workspace, local);
          }
        });
    out.stats.chunks = schedule.chunks;
    out.stats.steals = schedule.steals;
    out.stats.workers = schedule.workers;
  } else {
    locals.resize(1);
    gs::GsWorkspace workspace;
    for (std::int64_t i = 0; i < count; ++i) {
      evaluate_tree(inst, i, provider, opt, workspace, locals[0]);
    }
    out.stats.workers = 1;
    out.stats.nested_fallback = nested;
  }

  // Deterministic merge of the per-worker partials: sums plus the fold's
  // total order, both independent of which worker saw which tree.
  TreeSweepStats& st = out.stats;
  for (auto& local : locals) {
    st.trees += local.trees;
    st.total_proposals += local.total_proposals;
    st.executed_proposals += local.executed_proposals;
    st.cache_hits += local.cache_hits;
    st.cache_misses += local.cache_misses;
    if (!local.best.has_value()) continue;
    const bool wins = !out.best.has_value() ||
                      local.best_cost < out.best_cost ||
                      (local.best_cost == out.best_cost &&
                       local.best_index < out.best_index);
    if (wins) {
      out.best_index = local.best_index;
      out.best_cost = local.best_cost;
      out.best = std::move(local.best);
      out.best_tree = std::move(local.best_tree);
    }
  }
  if (opt.fold == SweepFold::score_table) {
    for (auto& local : locals) {
      for (auto& point : local.points) {
        out.per_tree.push_back(std::move(point));
      }
    }
    std::sort(out.per_tree.begin(), out.per_tree.end(),
              [](const TreePoint& x, const TreePoint& y) {
                return x.index < y.index;
              });
  }

  if (opt.cache != nullptr) {
    st.single_flight_waits = opt.cache->stats().single_flight_waits -
                             cache_before.single_flight_waits;
  }
  st.wall_ms = timer.millis();
  st.trees_per_sec = st.wall_ms > 0.0
                         ? static_cast<double>(st.trees) / (st.wall_ms / 1e3)
                         : 0.0;

  obs::SolveTelemetry& t = out.telemetry;
  t.engine = "sweep";
  t.genders = inst.genders();
  t.size = inst.per_gender();
  t.wall_ms = st.wall_ms;
  t.add_phase("sweep", st.wall_ms);
  if (out.best.has_value()) t.status = out.best->status;
  t.proposals = st.total_proposals;
  t.executed_proposals = st.executed_proposals;
  t.cache_hits = st.cache_hits;
  t.cache_misses = st.cache_misses;
  t.attempts = st.trees;
  obs::record(t);
  KSTABLE_COUNTER_ADD("sweep.trees", st.trees);
  KSTABLE_COUNTER_ADD("sweep.chunks", st.chunks);
  KSTABLE_COUNTER_ADD("sweep.steals", st.steals);
  if (st.nested_fallback) KSTABLE_COUNTER_ADD("sweep.nested_fallback", 1);
  KSTABLE_GAUGE_SET("sweep.trees_per_sec", st.trees_per_sec);
  return out;
}

}  // namespace

SweepSchedule sweep_index_space(
    std::int64_t count, ThreadPool& pool, std::int64_t chunk,
    const std::function<void(std::size_t worker, std::int64_t begin,
                             std::int64_t end)>& run) {
  KSTABLE_REQUIRE(count >= 0, "negative index space: " << count);
  KSTABLE_REQUIRE(chunk >= 1, "chunk must be >= 1, got " << chunk);
  SweepSchedule schedule;
  const std::size_t workers = std::max<std::size_t>(1, pool.thread_count());
  schedule.workers = workers;
  if (count == 0) return schedule;

  // One contiguous range per worker; a claim needs only the range's own
  // mutex, so claims on different ranges never contend. Ranges are fixed at
  // construction (the vector never grows: Range holds a mutex).
  struct Range {
    std::int64_t next = 0;
    std::int64_t end = 0;
    std::mutex m;
  };
  std::vector<Range> ranges(workers);
  const auto worker_count = static_cast<std::int64_t>(workers);
  const std::int64_t base = count / worker_count;
  const std::int64_t rem = count % worker_count;
  std::int64_t cursor = 0;
  for (std::size_t w = 0; w < workers; ++w) {
    const std::int64_t len =
        base + (static_cast<std::int64_t>(w) < rem ? 1 : 0);
    ranges[w].next = cursor;
    ranges[w].end = cursor + len;
    cursor += len;
  }

  std::atomic<std::int64_t> chunks{0};
  std::atomic<std::int64_t> steals{0};

  pool.for_each_index(workers, [&](std::size_t w) {
    // Drain our own range front-to-back...
    for (;;) {
      std::int64_t begin = -1;
      std::int64_t end = -1;
      {
        std::scoped_lock lock(ranges[w].m);
        if (ranges[w].next < ranges[w].end) {
          begin = ranges[w].next;
          end = std::min(ranges[w].end, begin + chunk);
          ranges[w].next = end;
        }
      }
      if (begin < 0) break;
      chunks.fetch_add(1, std::memory_order_relaxed);
      run(w, begin, end);
    }
    // ...then steal off the other ranges' backs (opposite end from the
    // owner, so a steal and an owner claim only collide on the last block).
    for (std::size_t off = 1; off < workers; ++off) {
      const std::size_t victim = (w + off) % workers;
      for (;;) {
        std::int64_t begin = -1;
        std::int64_t end = -1;
        {
          std::scoped_lock lock(ranges[victim].m);
          if (ranges[victim].next < ranges[victim].end) {
            end = ranges[victim].end;
            begin = std::max(ranges[victim].next, end - chunk);
            ranges[victim].end = begin;
          }
        }
        if (begin < 0) break;
        chunks.fetch_add(1, std::memory_order_relaxed);
        steals.fetch_add(1, std::memory_order_relaxed);
        run(w, begin, end);
      }
    }
  });

  schedule.chunks = chunks.load(std::memory_order_relaxed);
  schedule.steals = steals.load(std::memory_order_relaxed);
  return schedule;
}

TreeSweepResult sweep_all_trees(const KPartiteInstance& inst,
                                const TreeSweepOptions& options) {
  const Gender k = inst.genders();
  const std::int64_t count = prufer::cayley_count(k);
  KSTABLE_REQUIRE(count <= kMaxSweepTrees,
                  "full sweep of k=" << k << " spans " << count
                                     << " trees, above the " << kMaxSweepTrees
                                     << "-tree guard");
  return sweep_indexed(
      inst, count,
      [k](std::int64_t index) { return prufer::tree_at(index, k); }, options);
}

TreeSweepResult sweep_trees(const KPartiteInstance& inst,
                            const std::vector<BindingStructure>& candidates,
                            const TreeSweepOptions& options) {
  for (const auto& tree : candidates) {
    KSTABLE_REQUIRE(tree.genders() == inst.genders(),
                    "candidate tree has " << tree.genders()
                                          << " genders, instance "
                                          << inst.genders());
    KSTABLE_REQUIRE(tree.is_spanning_tree(),
                    "sweep candidates must be spanning binding trees");
  }
  return sweep_indexed(inst, static_cast<std::int64_t>(candidates.size()),
                       [&candidates](std::int64_t index) {
                         return candidates[static_cast<std::size_t>(index)];
                       },
                       options);
}

}  // namespace kstable::core
