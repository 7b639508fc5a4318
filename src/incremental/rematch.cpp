#include "incremental/rematch.hpp"

#include <vector>

#include "observability/metrics.hpp"
#include "util/check.hpp"
#include "util/timer.hpp"

namespace kstable::incremental {

namespace {

/// Proposer row test: the walk 0..rank(previous match) lies below the
/// window, so the proposer's walked prefix is the one GS read before.
bool proposer_replays(const KPartiteInstance& inst,
                      const gs::GsResult& previous, const RowDelta& row) {
  const Index match = previous.proposer_match[static_cast<std::size_t>(
      row.member.index)];
  return inst.rank_row(row.member, row.target)[static_cast<std::size_t>(
             match)] < row.lo;
}

/// Responder row test: the row's order over its inclusive suitors — every
/// proposer that ranks it at or above its own previous match — is intact.
bool responder_replays(const KPartiteInstance& inst,
                       const gs::GsResult& previous, const RowDelta& row) {
  const Gender proposers = row.target;
  const Gender responders = row.member.gender;
  const auto responder = static_cast<std::size_t>(row.member.index);
  const auto ranks = inst.rank_row(row.member, proposers);
  const auto suitor = [&](Index q) {
    const auto walk = inst.rank_row({proposers, q}, responders);
    return walk[responder] <=
           walk[static_cast<std::size_t>(
               previous.proposer_match[static_cast<std::size_t>(q)])];
  };
  int in_window = 0;
  for (Index q = 0; q < inst.per_gender(); ++q) {
    const Index rank = ranks[static_cast<std::size_t>(q)];
    if (rank < row.lo || rank > row.hi || !suitor(q)) continue;
    if (++in_window > 1) break;
  }
  if (in_window <= 1) return true;
  // A single swap moved only the two entries at lo and hi; if neither is a
  // suitor, no suitor's rank changed.
  const auto entries = inst.pref_row(row.member, proposers);
  return row.single_swap &&
         !suitor(entries[static_cast<std::size_t>(row.lo)]) &&
         !suitor(entries[static_cast<std::size_t>(row.hi)]);
}

/// What a previous per-edge result is worth on the mutated instance.
enum class EdgeVerdict : std::uint8_t {
  reused,    ///< the delta changed no row over the edge's gender pair
  replayed,  ///< rows changed outside the region GS read: previous is exact
  resolved,  ///< an edit reached the read region: re-solve cold
  cold,      ///< no previous result for this edge (another tree, another n)
};

/// Index of oriented `edge` in previous.edge_results, or -1.
std::ptrdiff_t find(const core::BindingResult& previous, GenderEdge edge) {
  const auto& results = previous.edge_results;
  for (std::size_t i = 0; i < results.size(); ++i) {
    if (results[i].proposer_gender == edge.a &&
        results[i].responder_gender == edge.b) {
      return static_cast<std::ptrdiff_t>(i);
    }
  }
  return -1;
}

}  // namespace

bool replays(const KPartiteInstance& inst, const gs::GsResult& previous,
             const MutationDelta& delta) {
  const Gender a = previous.proposer_gender;
  const Gender b = previous.responder_gender;
  for (const RowDelta& row : delta.rows) {
    const Gender observer = row.member.gender;
    if (observer == a && row.target == b) {
      if (!proposer_replays(inst, previous, row)) return false;
    } else if (observer == b && row.target == a) {
      if (!responder_replays(inst, previous, row)) return false;
    }
  }
  return true;
}

RematchReport rematch(const KPartiteInstance& inst,
                      const BindingStructure& tree,
                      const core::BindingResult& previous,
                      const MutationDelta& delta,
                      const RematchOptions& options) {
  KSTABLE_REQUIRE(tree.is_spanning_tree() &&
                      tree.genders() == inst.genders(),
                  "rematch re-stabilizes a spanning binding tree over the "
                  "instance's genders");
  KSTABLE_REQUIRE(delta.to_generation == inst.generation(),
                  "delta ends at generation "
                      << delta.to_generation << " but instance is at "
                      << inst.generation()
                      << " — rematch needs the delta covering every mutation "
                         "since the previous solve");
  RematchReport report;
  core::BindingOptions bopts;
  bopts.cache = options.cache;

  const auto emit = [&report] {
    KSTABLE_COUNTER_ADD("rematch.edges_reused", report.edges_reused);
    KSTABLE_COUNTER_ADD("rematch.edges_replayed", report.edges_replayed);
    KSTABLE_COUNTER_ADD("rematch.edges_resolved", report.edges_warm);
    KSTABLE_COUNTER_ADD("rematch.edges_cold", report.edges_cold);
    KSTABLE_COUNTER_ADD(
        "rematch.slots_invalidated",
        static_cast<std::int64_t>(report.slots_invalidated));
    KSTABLE_COUNTER_ADD("rematch.binding_skipped",
                        report.binding_skipped ? 1 : 0);
  };

  if (delta.shape_changed) {
    // Membership churn: every slot result is sized for the old n.
    if (options.cache != nullptr) {
      report.slots_invalidated = options.cache->clear();
      options.cache->rebind(inst);
    }
    report.cold_fallback = true;
    report.edges_cold = static_cast<std::int64_t>(tree.edges().size());
    report.result = core::iterative_binding(inst, tree, bopts);
    emit();
    return report;
  }

  // Step 1: one verdict per previous edge result, so one per tree edge.
  std::vector<EdgeVerdict> verdicts;
  verdicts.reserve(previous.edge_results.size());
  for (const gs::GsResult& r : previous.edge_results) {
    if (r.proposer_match.size() !=
        static_cast<std::size_t>(inst.per_gender())) {
      verdicts.push_back(EdgeVerdict::cold);
    } else if (!delta.touches(r.proposer_gender, r.responder_gender)) {
      verdicts.push_back(EdgeVerdict::reused);
    } else {
      verdicts.push_back(replays(inst, r, delta) ? EdgeVerdict::replayed
                                                 : EdgeVerdict::resolved);
    }
  }
  const auto verdict = [&](std::ptrdiff_t at) {
    return at < 0 ? EdgeVerdict::cold : verdicts[static_cast<std::size_t>(at)];
  };
  // An untouched or replayed tree edge's previous result is known exact.
  const auto& edges = tree.edges();
  std::vector<const gs::GsResult*> known(edges.size(), nullptr);
  bool aligned = previous.edge_results.size() == edges.size();
  for (std::size_t i = 0; i < edges.size(); ++i) {
    const std::ptrdiff_t at = find(previous, edges[i]);
    const EdgeVerdict v = verdict(at);
    switch (v) {
      case EdgeVerdict::reused: ++report.edges_reused; break;
      case EdgeVerdict::replayed: ++report.edges_replayed; break;
      case EdgeVerdict::resolved: ++report.edges_warm; break;
      case EdgeVerdict::cold: ++report.edges_cold; break;
    }
    if (v == EdgeVerdict::reused || v == EdgeVerdict::replayed) {
      known[i] = &previous.edge_results[static_cast<std::size_t>(at)];
    }
    aligned = aligned && previous.edge_results[i].proposer_gender ==
                             edges[i].a &&
              previous.edge_results[i].responder_gender == edges[i].b;
  }

  // Step 2: bring the cache forward. Responder preferences decide
  // accept/reject, so both orientations of a touched pair are stale
  // (gs_cache.hpp contract), unless the orientation is a replayed tree edge:
  // its slot holds the result the replay proved exact.
  if (options.cache != nullptr) {
    for (const GenderEdge pair : delta.touched_pairs()) {
      for (const GenderEdge slot :
           {GenderEdge{pair.a, pair.b}, GenderEdge{pair.b, pair.a}}) {
        if (verdict(find(previous, slot)) != EdgeVerdict::replayed) {
          report.slots_invalidated += options.cache->invalidate(slot);
        }
      }
    }
    options.cache->rebind(inst);
  }

  // Step 3: nothing to re-solve means Algorithm 1 would rebuild `previous`.
  if (aligned && report.edges_warm == 0 && report.edges_cold == 0) {
    report.result = previous;
    report.result.executed_proposals = 0;
    report.result.cache_hits = 0;
    report.result.cache_misses = 0;
    report.binding_skipped = true;
    emit();
    return report;
  }

  // Step 4: Algorithm 1 over the tree, known edges handed in.
  const WallTimer timer;
  core::BindingResult& result = report.result;
  result.edge_results.resize(edges.size());
  for (std::size_t i = 0; i < edges.size(); ++i) {
    core::bind_edge(inst, edges[i], bopts, result.edge_results[i], result,
                    known[i]);
  }
  core::finish_binding(result, inst, tree, bopts, nullptr, "bind", timer);
  obs::record(result.telemetry);
  report.warm_executed_proposals = result.executed_proposals;
  emit();
  return report;
}

}  // namespace kstable::incremental
