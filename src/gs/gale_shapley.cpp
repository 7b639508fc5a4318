#include "gs/gale_shapley.hpp"

#include <algorithm>

#include "observability/metrics.hpp"
#include "prefs/implicit/pref_view.hpp"
#include "util/check.hpp"
#include "util/timer.hpp"

namespace kstable::gs {

namespace {

#if KSTABLE_METRICS_ENABLED
/// Eagerly registers this TU's instruments at static-init time: the
/// KSTABLE_COUNTER_ADD call sites then resolve against already-registered
/// names, so even the very FIRST warm solve performs zero heap allocations
/// (asserted by GsWorkspace.WarmHelpersPreallocate).
const bool kInstrumentsWarm = [] {
  auto& registry = obs::MetricsRegistry::global();
  registry.counter("gs.queue.solves");
  registry.counter("gs.queue.proposals");
  registry.counter("gs.rounds.solves");
  registry.counter("gs.rounds.proposals");
  registry.counter("gs.rounds.rounds");
  return true;
}();
#endif

/// Traced runs reserve the Theorem 3 per-binding bound (n² events) up front.
void reserve_trace(const GsOptions& options, Index n) {
  if (options.trace != nullptr) {
    options.trace->reserve(options.trace->size() +
                           static_cast<std::size_t>(n) *
                               static_cast<std::size_t>(n));
  }
}

/// The per-solve arrays the proposal step reads and updates.
struct MatchArrays {
  Index* proposer_match;
  Index* responder_match;
  std::uint32_t* held_rank;  ///< GsWorkspace::held_rank
};

/// One §II.A proposal p -> r with its accept/reject decision: r keeps the
/// better of p (at `rank`, p's rank in r's list) and its current holder,
/// whose rank held_rank remembers, so the decision evaluates p's rank only;
/// the match arrays and the trace record the outcome. Returns the proposer
/// it frees — the displaced holder, p itself if rejected, -1 if r was free.
/// The one definition of the step every rank-table engine runs; forced
/// inline, since it is the body of every engine's hot loop.
[[gnu::always_inline]] inline Index resolve_proposal(
    Index p, Index r, std::uint32_t rank, const MatchArrays& m,
    const GsOptions& options) {
  const auto rs = static_cast<std::size_t>(r);
  const Index holder = m.responder_match[rs];
  ProposalEvent event{p, r, false, -1};
  Index freed = p;
  if (rank < m.held_rank[rs]) {
    m.responder_match[rs] = p;
    m.held_rank[rs] = rank;
    m.proposer_match[static_cast<std::size_t>(p)] = r;
    event.accepted = true;
    freed = holder;
    if (holder >= 0) {
      m.proposer_match[static_cast<std::size_t>(holder)] = -1;
      event.displaced = holder;
    }
  }
  if (options.trace != nullptr) options.trace->push_back(event);
  return freed;
}

/// The queue loop, monomorphized on the preference view
/// (prefs/implicit/pref_view.hpp): ExplicitView<R> compiles to raw
/// hoisted-pointer loads, ImplicitView evaluates the same entries from the
/// seeded generator in O(1) each. Every proposer starts free, pushed so pops
/// ascend by index, and every responder unmatched (held_rank kFree). Stack
/// discipline: a freed proposer (the displaced holder or a rejected p)
/// proposes next, otherwise the stack top. A proposer keeps its row handle
/// while it is rejected, and every proposal fetches p's next choice together
/// with p's rank (rank_and_next), so a rejected p proposes again at once;
/// the fetched choice is dropped when p is accepted. Each proposal
/// prefetches its rank cell as soon as the responder is known, and the pref
/// cell of the likely proposal-after-next (the stack top); a mispredicted
/// prefetch wastes a cache line, never changes the outcome. The hooks
/// compile to nothing on the implicit backend.
template <typename View>
void queue_loop(const View view, Index n, const GsOptions& options,
                GsWorkspace& workspace, GsResult& result) {
  workspace.next_choice.assign(static_cast<std::size_t>(n), Index{0});
  auto& free_stack = workspace.free_list;
  free_stack.resize(static_cast<std::size_t>(n));
  for (Index p = 0; p < n; ++p) {
    free_stack[static_cast<std::size_t>(p)] = n - 1 - p;
  }
  workspace.held_rank.assign(static_cast<std::size_t>(n), GsWorkspace::kFree);

  const MatchArrays arrays{result.proposer_match.data(),
                           result.responder_match.data(),
                           workspace.held_rank.data()};
  Index* const next_choice = workspace.next_choice.data();

  Index p = free_stack.back();
  free_stack.pop_back();
  // Pigeonhole: a proposer is never displaced off the end of its list
  // (responders once matched stay matched).
  KSTABLE_ASSERT(next_choice[static_cast<std::size_t>(p)] < n);
  auto prow = view.prop_row(p);
  Index r = view.choice_in(prow, next_choice[static_cast<std::size_t>(p)]);
  while (true) {
    // r is p's choice at rank next_choice[p]; proposing consumes that rank.
    const Index c = ++next_choice[static_cast<std::size_t>(p)];
    const auto row = view.resp_row(r);
    view.prefetch_rank(row, p);
    if (!free_stack.empty()) {
      const Index spec = free_stack.back();
      view.prefetch_pref(spec, next_choice[static_cast<std::size_t>(spec)]);
    }
    ++result.proposals;
    if (options.control != nullptr) options.control->charge();

    // c == n only when p cannot be rejected (pigeonhole); the clamp keeps
    // the unused fetch inside p's list.
    const auto [rank, next] =
        view.rank_and_next(row, p, prow, std::min(c, n - 1));
    const Index freed = resolve_proposal(p, r, rank, arrays, options);
    if (freed == p) {
      KSTABLE_ASSERT(c < n);
      r = next;
      continue;
    }
    p = freed;
    if (p < 0) {
      if (free_stack.empty()) break;
      p = free_stack.back();
      free_stack.pop_back();
    }
    KSTABLE_ASSERT(next_choice[static_cast<std::size_t>(p)] < n);
    prow = view.prop_row(p);
    r = view.choice_in(prow, next_choice[static_cast<std::size_t>(p)]);
  }
}

/// Rounds-engine loop, monomorphized on the preference view (same dispatch
/// as queue_loop).
template <typename View>
void rounds_loop(const View view, Index n, const GsOptions& options,
                 GsWorkspace& workspace, GsResult& result) {
  workspace.next_choice.assign(static_cast<std::size_t>(n), Index{0});
  auto& free_list = workspace.free_list;
  free_list.resize(static_cast<std::size_t>(n));
  for (Index p = 0; p < n; ++p) free_list[static_cast<std::size_t>(p)] = p;
  auto& still_free = workspace.still_free;
  still_free.clear();
  still_free.reserve(static_cast<std::size_t>(n));
  workspace.held_rank.assign(static_cast<std::size_t>(n), GsWorkspace::kFree);

  const MatchArrays arrays{result.proposer_match.data(),
                           result.responder_match.data(),
                           workspace.held_rank.data()};
  Index* const next_choice = workspace.next_choice.data();

  while (!free_list.empty()) {
    ++result.rounds;
    // One batched charge per round (every free proposer proposes once).
    if (options.control != nullptr) {
      options.control->charge(static_cast<std::int64_t>(free_list.size()));
    }
    still_free.clear();
    // Phase 1 of the round: every unengaged proposer proposes to the
    // most-preferred responder it has not yet proposed to (§II.A verbatim);
    // phase 2 folded in: the responder replies "maybe" only to the best
    // suitor seen so far (including its current provisional partner).
    for (const Index p : free_list) {
      const Index r =
          view.pref_at(p, next_choice[static_cast<std::size_t>(p)]++);
      ++result.proposals;
      const auto rank =
          static_cast<std::uint32_t>(view.rank_in(view.resp_row(r), p));
      const Index freed = resolve_proposal(p, r, rank, arrays, options);
      if (freed >= 0) still_free.push_back(freed);
    }
    free_list.swap(still_free);
  }
}

}  // namespace

void check_genders(const KPartiteInstance& inst, Gender i, Gender j) {
  KSTABLE_REQUIRE(i >= 0 && i < inst.genders() && j >= 0 && j < inst.genders(),
                  "GS(" << i << ',' << j << ") out of range, k="
                        << inst.genders());
  KSTABLE_REQUIRE(i != j, "GS(" << i << ',' << i << "): a gender cannot bind "
                                   "to itself");
}

void reset_result(GsResult& result, Gender i, Gender j, Index n) {
  result.proposer_gender = i;
  result.responder_gender = j;
  result.proposer_match.assign(static_cast<std::size_t>(n), Index{-1});
  result.responder_match.assign(static_cast<std::size_t>(n), Index{-1});
  result.proposals = 0;
  result.rounds = 0;
}

void finish_engine(const KPartiteInstance& inst, const char* engine,
                   double wall_ms, GsResult& result) {
  result.engine = engine;
  result.wall_ms = wall_ms;
  const Index n = inst.per_gender();
  for (Index p = 0; p < n; ++p) {
    KSTABLE_ENSURE(result.proposer_match[static_cast<std::size_t>(p)] >= 0,
                   engine << ": proposer " << p << " left unmatched");
  }
  for (Index r = 0; r < n; ++r) {
    const Index p = result.responder_match[static_cast<std::size_t>(r)];
    KSTABLE_ENSURE(p >= 0, engine << ": responder " << r << " left unmatched");
    KSTABLE_ENSURE(result.proposer_match[static_cast<std::size_t>(p)] == r,
                   engine << ": match arrays inconsistent at responder " << r);
  }
}

void gale_shapley_queue(const KPartiteInstance& inst, Gender i, Gender j,
                        const GsOptions& options, GsWorkspace& workspace,
                        GsResult& result) {
  check_genders(inst, i, j);
  const WallTimer timer;
  const Index n = inst.per_gender();
  reset_result(result, i, j, n);
  reserve_trace(options, n);
  // One backend + width dispatch per solve; identical matchings every way
  // (the DiffRunner layout and implicit batteries pin this bitwise).
  prefs::with_pref_view(inst, i, j, [&](const auto view) {
    queue_loop(view, n, options, workspace, result);
  });
  result.rounds = result.proposals;
  finish_engine(inst, "gs.queue", timer.millis(), result);
  KSTABLE_COUNTER_ADD("gs.queue.solves", 1);
  KSTABLE_COUNTER_ADD("gs.queue.proposals", result.proposals);
}

GsResult gale_shapley_queue(const KPartiteInstance& inst, Gender i, Gender j,
                            const GsOptions& options) {
  GsWorkspace workspace;
  GsResult result;
  gale_shapley_queue(inst, i, j, options, workspace, result);
  return result;
}

void gale_shapley_rounds(const KPartiteInstance& inst, Gender i, Gender j,
                         const GsOptions& options, GsWorkspace& workspace,
                         GsResult& result) {
  check_genders(inst, i, j);
  const WallTimer timer;
  const Index n = inst.per_gender();
  reset_result(result, i, j, n);
  reserve_trace(options, n);

  prefs::with_pref_view(inst, i, j, [&](const auto view) {
    rounds_loop(view, n, options, workspace, result);
  });
  finish_engine(inst, "gs.rounds", timer.millis(), result);
  KSTABLE_COUNTER_ADD("gs.rounds.solves", 1);
  KSTABLE_COUNTER_ADD("gs.rounds.proposals", result.proposals);
  KSTABLE_COUNTER_ADD("gs.rounds.rounds", result.rounds);
}

GsResult gale_shapley_rounds(const KPartiteInstance& inst, Gender i, Gender j,
                             const GsOptions& options) {
  GsWorkspace workspace;
  GsResult result;
  gale_shapley_rounds(inst, i, j, options, workspace, result);
  return result;
}

obs::SolveTelemetry solve_telemetry(const GsResult& result, Gender k,
                                    Index n) {
  obs::SolveTelemetry t;
  t.engine = result.engine[0] != '\0' ? result.engine : "gs";
  t.genders = k;
  t.size = n;
  t.wall_ms = result.wall_ms;
  t.add_phase("gs", result.wall_ms);
  t.proposals = result.proposals;
  t.executed_proposals = result.proposals;
  t.rounds = result.rounds;
  t.attempts = 1;
  t.status.proposals = result.proposals;
  t.status.wall_ms = result.wall_ms;
  return t;
}

bool is_stable_binding(const KPartiteInstance& inst, const GsResult& result) {
  const Index n = inst.per_gender();
  const Gender i = result.proposer_gender;
  const Gender j = result.responder_gender;
  for (Index p = 0; p < n; ++p) {
    const Index matched = result.proposer_match[static_cast<std::size_t>(p)];
    if (matched < 0) return false;
    const std::int32_t matched_rank = inst.rank_of({i, p}, {j, matched});
    // Any responder p strictly prefers to its partner forms a blocking pair
    // iff that responder also prefers p to its own partner. pref_at keeps
    // this verifier backend-agnostic (implicit instances store no lists).
    for (std::int32_t rank = 0; rank < matched_rank; ++rank) {
      const Index r = inst.pref_at({i, p}, j, static_cast<Index>(rank));
      const Index r_partner = result.responder_match[static_cast<std::size_t>(r)];
      if (r_partner < 0 || inst.prefers({j, r}, {i, p}, {i, r_partner})) {
        return false;
      }
    }
  }
  return true;
}

}  // namespace kstable::gs
