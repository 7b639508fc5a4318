#include "resilience/solve_ladder.hpp"

#include <algorithm>
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

/// How one attempt ended: its log entry, its result on success, and the
/// proposals it actually executed (cache hits are never charged).
struct Attempt {
  AttemptLog log;
  std::optional<core::BindingResult> result;
  std::int64_t executed = 0;
};

/// Runs `bind` as one ladder attempt: its own ExecControl with per_attempt
/// on the shared token. An ExecutionAborted becomes a recorded failure;
/// anything else propagates.
template <class Bind>
void run_attempt(const FallbackOptions& options, Attempt& out, Bind&& bind) {
  ExecControl control(options.per_attempt, options.token);
  core::BindingOptions bopts;
  bopts.control = &control;
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

}  // namespace

FallbackReport solve_with_fallback(const KPartiteInstance& inst,
                                   const FallbackOptions& options) {
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

  // Strict rungs, in order, up to the first success or cancellation, capped
  // by Cayley's k^(k-2) distinct trees (cayley_count saturates at INT64_MAX
  // for large k). The first binds the path tree (the library default); each
  // later rung's tree is drawn only after the rung before it failed, from the
  // seeded Prüfer-random stream, skipping codes already tried.
  const Gender k = inst.genders();
  const std::int64_t rungs = std::min<std::int64_t>(
      options.max_tree_attempts, prufer::cayley_count(k));
  Rng rng(kTreeSeed);
  std::set<std::vector<Gender>> tried;
  BindingStructure tree = trees::path(k);
  for (std::int64_t attempt = 0; attempt < rungs; ++attempt) {
    if (attempt > 0) {
      if (attempt == 1) tried.insert(prufer::encode(tree));  // the path tree
      do {
        tree = prufer::random_tree(k, rng);
      } while (!tried.insert(prufer::encode(tree)).second);
    }
    Attempt a;
    a.log.tree_edges = tree.edges();
    run_attempt(options, a, [&](const core::BindingOptions& bopts) {
      return core::iterative_binding(inst, tree, bopts);
    });
    log_attempt(a);
    if (report.succeeded ||
        report.status.abort_reason == AbortReason::cancelled) {
      break;
    }
  }

  // A cancellation is a caller decision, not a per-tree failure: it also
  // skips the degraded rung.
  if (!report.succeeded && options.allow_degraded &&
      !options.token.cancelled()) {
    Attempt degraded;
    degraded.log.rung = Rung::degraded_priority;
    run_attempt(options, degraded, [&](const core::BindingOptions& bopts) {
      core::PriorityBindingOptions popts;
      popts.binding = bopts;
      auto pr = core::priority_binding(inst, popts);
      degraded.log.tree_edges = pr.tree.edges();
      return std::move(pr.binding);
    });
    log_attempt(degraded);
  }

  if (options.cache != nullptr) {
    const auto now = options.cache->stats();
    report.cache_hits = now.hits - cache_before.hits;
    report.cache_misses = now.misses - cache_before.misses;
  }
  obs::SolveTelemetry& t = report.telemetry;
  t.engine = "ladder";
  t.genders = k;
  t.size = inst.per_gender();
  t.wall_ms = ladder_timer.millis();
  t.add_phase("ladder", t.wall_ms);
  t.status = report.status;
  // The ladder's proposal total is the semantic count of the winning
  // attempt; executed covers every attempt (failed rungs included).
  t.proposals = report.result.has_value() ? report.result->total_proposals : 0;
  t.executed_proposals = report.executed_proposals;
  t.cache_hits = report.cache_hits;
  t.cache_misses = report.cache_misses;
  t.attempts = static_cast<std::int64_t>(report.attempts.size());
  t.rung = static_cast<std::int32_t>(report.rung);
  obs::record(t);
  switch (report.rung) {
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
  return report;
}

}  // namespace kstable::resilience
