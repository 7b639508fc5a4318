#include "resilience/solve_ladder.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <optional>
#include <set>
#include <utility>
#include <vector>

#include "core/gs_cache.hpp"
#include "core/priority_binding.hpp"
#include "graph/prufer.hpp"
#include "observability/metrics.hpp"
#include "util/check.hpp"
#include "util/timer.hpp"

namespace kstable::resilience {

namespace {

Budget scaled(const Budget& base, double scale) {
  Budget b = base;
  if (b.wall_ms > 0.0) b.wall_ms *= scale;
  if (b.max_proposals > 0) {
    b.max_proposals =
        static_cast<std::int64_t>(static_cast<double>(b.max_proposals) * scale);
  }
  return b;
}

/// How one attempt ended: its log entry, its result on success, and the
/// proposals it actually executed (cache hits are never charged).
struct Attempt {
  AttemptLog log;
  std::optional<core::BindingResult> result;
  std::int64_t executed = 0;
};

/// Runs `bind` as the ladder's `step`-th attempt: its own ExecControl with
/// per_attempt scaled by backoff^step on the shared token. An
/// ExecutionAborted becomes a recorded failure; anything else propagates.
template <class Bind>
void run_attempt(const FallbackOptions& options, std::size_t step,
                 Attempt& out, Bind&& bind) {
  ExecControl control(
      scaled(options.per_attempt,
             std::pow(options.backoff, static_cast<double>(step))),
      options.token);
  core::BindingOptions bopts{options.engine, options.pool, &control};
  bopts.cache = options.cache;
  try {
    out.result = bind(bopts);
    out.log.status = out.result->status;
    out.executed = out.result->executed_proposals;
  } catch (const ExecutionAborted& e) {
    out.log.status = control.aborted_status(e.reason(), e.what());
    out.executed = out.log.status.proposals;
  }
}

/// Seed of the deterministic candidate-tree stream.
constexpr std::uint64_t kTreeSeed = 0x5eed;

/// The strict rungs' candidate trees, deduplicated by Prüfer code and capped
/// by Cayley's k^(k-2) (cayley_count saturates at INT64_MAX for large k).
/// Candidate 0 is the path tree (the library default); later ones are drawn
/// from the seeded Prüfer-random stream, skipping repeats.
std::vector<BindingStructure> candidate_trees(Gender k,
                                              const FallbackOptions& options) {
  const std::int64_t count = std::min<std::int64_t>(
      options.max_tree_attempts, prufer::cayley_count(k));
  Rng rng(kTreeSeed);
  std::set<std::vector<Gender>> tried;
  std::vector<BindingStructure> candidates;
  candidates.reserve(static_cast<std::size_t>(count));
  while (static_cast<std::int64_t>(candidates.size()) < count) {
    BindingStructure tree =
        candidates.empty() ? trees::path(k) : prufer::random_tree(k, rng);
    if (tried.insert(prufer::encode(tree)).second) {
      candidates.push_back(std::move(tree));
    }
  }
  return candidates;
}

}  // namespace

FallbackReport solve_with_fallback(const KPartiteInstance& inst,
                                   const FallbackOptions& options) {
  KSTABLE_REQUIRE(options.backoff >= 1.0,
                  "backoff must be >= 1, got " << options.backoff);
  KSTABLE_REQUIRE(options.max_tree_attempts >= 1,
                  "need at least one strict attempt");

  FallbackReport report;
  // Cache counters are read as a delta off the cache's own stats so that
  // hits inside *aborted* attempts (whose BindingResult is lost to the
  // unwinding) are still accounted for.
  const core::GsEdgeCache::Stats cache_before =
      options.cache != nullptr ? options.cache->stats()
                               : core::GsEdgeCache::Stats{};
  const WallTimer ladder_timer;
  const auto finalize = [&](FallbackReport& r) -> FallbackReport& {
    if (options.cache != nullptr) {
      const auto now = options.cache->stats();
      r.cache_hits = now.hits - cache_before.hits;
      r.cache_misses = now.misses - cache_before.misses;
    }
    obs::SolveTelemetry& t = r.telemetry;
    t.engine = "ladder";
    t.genders = inst.genders();
    t.size = inst.per_gender();
    t.wall_ms = ladder_timer.millis();
    t.add_phase("ladder", t.wall_ms);
    t.status = r.status;
    // The ladder's proposal total is the semantic count of the winning
    // attempt; executed covers every attempt (failed rungs included).
    t.proposals = r.result.has_value() ? r.result->total_proposals : 0;
    t.executed_proposals = r.executed_proposals;
    t.cache_hits = r.cache_hits;
    t.cache_misses = r.cache_misses;
    t.attempts = static_cast<std::int64_t>(r.attempts.size());
    t.rung = static_cast<std::int32_t>(r.rung);
    obs::record(t);
    switch (r.rung) {
      case Rung::strict_tree:
        KSTABLE_COUNTER_ADD("ladder.rung.strict", 1);
        break;
      case Rung::degraded_priority:
        KSTABLE_COUNTER_ADD("ladder.rung.degraded", 1);
        break;
      case Rung::none:
        KSTABLE_COUNTER_ADD("ladder.rung.none", 1);
        break;
    }
    return r;
  };
  const auto log_attempt = [&report](Attempt& a) {
    report.executed_proposals += a.executed;
    report.status = a.log.status;
    if (a.result.has_value()) {
      report.succeeded = true;
      report.rung = a.log.rung;
      report.result = std::move(a.result);
    }
    report.attempts.push_back(std::move(a.log));
  };

  // Strict rungs. `stop` is the lowest candidate that succeeded or was
  // cancelled; the log ends there, so no candidate above it starts. Without
  // a pool the candidates run in order, which stops at the first success or
  // cancellation. With one they race, and since `stop` only falls, every
  // candidate at or below its final value has run: the race logs exactly
  // what the in-order loop logs.
  const std::vector<BindingStructure> candidates =
      candidate_trees(inst.genders(), options);
  const std::size_t count = candidates.size();
  std::vector<Attempt> strict(count);
  std::atomic<std::size_t> stop{count};
  const auto attempt = [&](std::size_t i) {
    if (i > stop.load(std::memory_order_relaxed)) return;
    Attempt& a = strict[i];
    a.log.tree_edges = candidates[i].edges();
    run_attempt(options, i, a, [&](const core::BindingOptions& bopts) {
      return core::iterative_binding(inst, candidates[i], bopts);
    });
    if (a.result.has_value() ||
        a.log.status.abort_reason == AbortReason::cancelled) {
      std::size_t seen = stop.load(std::memory_order_relaxed);
      while (i < seen && !stop.compare_exchange_weak(
                             seen, i, std::memory_order_relaxed)) {
      }
    }
  };
  const bool race = options.pool != nullptr &&
                    !ThreadPool::in_worker_thread() &&
                    options.pool->thread_count() > 1 && count > 1 &&
                    options.engine != core::GsEngine::parallel;
  if (race) {
    options.pool->for_each_index(count, attempt);
  } else {
    for (std::size_t i = 0; i < count; ++i) attempt(i);
  }
  const std::size_t last = stop.load(std::memory_order_relaxed);
  for (std::size_t i = 0; i < count; ++i) {
    if (i <= last) {
      log_attempt(strict[i]);
    } else {
      // Race overshoot: a candidate the in-order ladder would never have
      // started. Its work is waste, not an attempt.
      report.executed_proposals += strict[i].executed;
      report.speculative_waste += strict[i].executed;
    }
  }
  if (report.succeeded) return finalize(report);

  // A cancellation is a caller decision, not a per-tree failure: it also
  // skips the degraded rung.
  if (options.allow_degraded && !options.token.cancelled()) {
    // Every strict rung failed, so the degraded attempt's budget continues
    // the escalation: backoff^(failed strict attempts).
    Attempt degraded;
    degraded.log.rung = Rung::degraded_priority;
    run_attempt(options, report.attempts.size(), degraded,
                [&](const core::BindingOptions& bopts) {
                  core::PriorityBindingOptions popts;
                  popts.binding = bopts;
                  auto pr = core::priority_binding(inst, popts);
                  degraded.log.tree_edges = pr.tree.edges();
                  return std::move(pr.binding);
                });
    log_attempt(degraded);
  }
  return finalize(report);
}

}  // namespace kstable::resilience
