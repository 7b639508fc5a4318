#include "verify/diff_runner.hpp"

#include <algorithm>
#include <sstream>
#include <utility>

#include "core/binding.hpp"
#include "core/gs_cache.hpp"
#include "core/tree_sweep.hpp"
#include "graph/binding_structure.hpp"
#include "gs/parallel_gs.hpp"
#include "gs/scan_gs.hpp"
#include "incremental/mutation.hpp"
#include "incremental/rematch.hpp"
#include "resilience/control.hpp"
#include "resilience/errors.hpp"
#include "resilience/solve_ladder.hpp"
#include "roommates/adapters.hpp"
#include "roommates/solver.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"
#include "verify/cert_checker.hpp"

namespace kstable::verify {
namespace {

/// Accumulates mismatches with the battery's replay provenance attached.
struct Recorder {
  BatteryResult* out;
  Shape shape;
  Dist dist;
  std::uint64_t seed;
  Gender k;
  Index n;

  void check(bool ok, const char* id, const std::string& detail) const {
    ++out->checks;
    if (!ok) {
      out->mismatches.push_back(
          Mismatch{id, detail, shape, dist, seed, k, n});
    }
  }

  /// Certificate check as one relation: nullopt is agreement.
  void cert(const std::optional<CertFailure>& failure, const char* id) const {
    check(!failure.has_value(), id, failure ? failure->what : "");
  }
};

std::string describe_diff(const std::vector<Index>& expected,
                          const std::vector<Index>& got) {
  std::ostringstream os;
  const std::size_t limit = std::min(expected.size(), got.size());
  for (std::size_t i = 0; i < limit; ++i) {
    if (expected[i] != got[i]) {
      os << "first divergence at index " << i << ": expected " << expected[i]
         << ", got " << got[i];
      return os.str();
    }
  }
  os << "length mismatch: expected " << expected.size() << ", got "
     << got.size();
  return os.str();
}

/// "GS(i,j)": names an ordered gender pair in mismatch details.
std::string gs_pair(Gender i, Gender j) {
  return "GS(" + std::to_string(i) + "," + std::to_string(j) + ")";
}

/// GS agreement: `got` must reproduce `want`'s match arrays bitwise (GS is
/// confluent), checked as `id`. Sequential engines must also make the same
/// number of proposals (each proposer walks exactly the prefix of its list
/// down to its final partner, whatever the order): checked as `props_id`, or
/// inside `id` itself when `props_id` names that same check. A null
/// `props_id` exempts the count (the parallel engine's speculative
/// proposals).
void gs_agree(const Recorder& rec, const std::string& where,
              const gs::GsResult& want, const gs::GsResult& got,
              const char* id, const char* props_id = nullptr) {
  const bool same_count = got.proposals == want.proposals;
  const bool fold = props_id != nullptr && std::string_view(props_id) == id;
  const auto count_detail = [&] {
    std::ostringstream os;
    os << where << ": " << want.engine << " made " << want.proposals
       << " proposals, " << got.engine << " made " << got.proposals;
    return os.str();
  };
  std::string detail;
  if (got.proposer_match != want.proposer_match) {
    detail = describe_diff(want.proposer_match, got.proposer_match);
  } else if (got.responder_match != want.responder_match) {
    detail = describe_diff(want.responder_match, got.responder_match);
  }
  if (!detail.empty()) {
    detail = where + ": " + got.engine + " diverges from " + want.engine +
             ": " + detail;
  } else if (fold && !same_count) {
    detail = count_detail();
  }
  rec.check(detail.empty(), id, detail);
  if (props_id != nullptr && !fold) {
    rec.check(same_count, props_id, same_count ? "" : count_detail());
  }
}

/// k-ary agreement: `got` must be `want`'s matching, bitwise, checked as `id`.
void kary_agree(const Recorder& rec, const char* id, const KaryMatching& want,
                const KaryMatching& got, std::string_view what) {
  const bool ok = got == want;
  rec.check(ok, id,
            ok ? "" : std::string(what) + ": " +
                          describe_diff(want.raw(), got.raw()));
}

/// Check ids of one family's engine legs.
struct LegIds {
  const char* rounds;
  const char* rounds_props;
  const char* scan;
  const char* scan_props;
  const char* parallel;
};

/// Engine legs: the rounds, scan and (given a pool) parallel engines must
/// each agree with the queue engine's `reference` on GS(i, j). `sabotage`
/// corrupts the scan result before the comparison.
void engine_legs(const Recorder& rec, const KPartiteInstance& inst, Gender i,
                 Gender j, const gs::GsResult& reference, ThreadPool* pool,
                 bool sabotage, const std::string& where, const LegIds& ids) {
  gs_agree(rec, where, reference, gs::gale_shapley_rounds(inst, i, j),
           ids.rounds, ids.rounds_props);
  auto scan = gs::gale_shapley_scan(inst, i, j);
  if (sabotage) sabotage_gs_result(scan);
  gs_agree(rec, where, reference, scan, ids.scan, ids.scan_props);
  if (pool != nullptr) {
    gs_agree(rec, where, reference,
             gs::gale_shapley_parallel(inst, i, j, *pool, 8), ids.parallel);
  }
}

/// The rank width `inst` is not laid out in, which every width check solves
/// a twin at; nullopt when that is narrow16 and cannot hold n's ranks.
std::optional<prefs::RankWidth> other_width(const KPartiteInstance& inst) {
  if (inst.rank_width() == prefs::RankWidth::narrow16) {
    return prefs::RankWidth::wide32;
  }
  if (prefs::natural_rank_width(inst.per_gender()) ==
      prefs::RankWidth::narrow16) {
    return prefs::RankWidth::narrow16;
  }
  return std::nullopt;
}

/// GS engine cross-checks for one ordered gender pair, against the queue
/// engine. Returns the reference result so the bipartite fair-SMP check can
/// reuse it.
gs::GsResult gs_engine_checks(const KPartiteInstance& inst, Gender i, Gender j,
                              const Recorder& rec,
                              const DiffOptions& options) {
  auto reference = gs::gale_shapley_queue(inst, i, j);
  rec.cert(check_gs_certificate(inst, i, j, reference), "gs.queue.cert");
  engine_legs(rec, inst, i, j, reference, options.pool,
              options.sabotage == Sabotage::gs_swap && i == 0 && j == 1,
              gs_pair(i, j),
              {"gs.engine.rounds.bitwise", "gs.engine.rounds.proposals",
               "gs.engine.scan.bitwise", "gs.engine.scan.proposals",
               "gs.engine.parallel.bitwise"});
  return reference;
}

/// Memory-layout agreement: the same instance re-laid at the other rank
/// width (prefs/compact_ranks.hpp) must stay semantically equal and must
/// produce bitwise-identical solves from the width-monomorphized queue
/// engine — rank width is a layout choice, never a semantic one.
void layout_checks(const KPartiteInstance& inst, const Recorder& rec) {
  const auto width = other_width(inst);
  if (!width) return;
  const auto relaid = KPartiteInstance::relaid(inst, *width);
  rec.check(relaid == inst, "layout.relaid.equal",
            "re-laid copy is not semantically equal to the original");
  gs_agree(rec,
           gs_pair(0, 1) + " on " + prefs::to_string(inst.rank_width()) +
               " vs " + prefs::to_string(*width) + " ranks",
           gs::gale_shapley_queue(inst, 0, 1),
           gs::gale_shapley_queue(relaid, 0, 1), "layout.width.queue.bitwise",
           "layout.width.queue.bitwise");
}

/// Implicit-backend cross-checks (docs/PERFORMANCE.md §Implicit
/// preferences). An implicit instance derived from the battery's replay seed
/// is materialized into explicit tables; the generator and the tables must
/// then be indistinguishable to every consumer: bitwise-equal matchings,
/// identical proposal counts AND identical proposal traces from every
/// sequential engine (the strongest confluence pin: not just the same fixed
/// point, the same path to it), rank_of inverting pref_at exactly, and the
/// binding/ladder layers agreeing across backends. Runs for both generator
/// families so the Feistel path and the closed-form path are each pinned.
void implicit_checks(const Recorder& rec, const DiffOptions& options) {
  const Gender k = rec.k;
  const Index n = rec.n;
  for (const auto family :
       {prefs::imp::Family::uniform, prefs::imp::Family::cyclic}) {
    // Derived seed: decoupled from the generator's own stream.
    const prefs::imp::ImplicitSpec spec{family,
                                        rec.seed ^ 0x8f1bbcdc9aab5a2dULL};
    const auto implicit = KPartiteInstance::make_implicit(k, n, spec);
    const std::string fam = prefs::imp::to_string(family);

    // Materialization doubles as the bijectivity certificate: set_pref_list
    // rejects any row that is not a permutation, so a broken PRP cannot
    // produce an explicit twin at all.
    const auto wide = implicit.materialized(prefs::RankWidth::wide32);
    rec.check(wide == implicit, "implicit.materialized.equal",
              "materialized explicit copy (" + fam +
                  ") is not element-wise equal to its implicit source");

    {  // pref_at and rank_of must be exact inverses on the generator.
      bool inverse_ok = true;
      std::ostringstream os;
      for (Gender g = 0; inverse_ok && g < k; ++g) {
        for (Index m = 0; inverse_ok && m < n; ++m) {
          for (Gender h = 0; inverse_ok && h < k; ++h) {
            if (h == g) continue;
            for (Index r = 0; r < n; ++r) {
              const Index p = implicit.pref_at({g, m}, h, r);
              const std::int32_t back = implicit.rank_of({g, m}, {h, p});
              if (back != static_cast<std::int32_t>(r)) {
                os << fam << ": rank_of(pref_at(" << g << ',' << m << ','
                   << h << ',' << r << ")=" << p << ") = " << back;
                inverse_ok = false;
                break;
              }
            }
          }
        }
      }
      rec.check(inverse_ok, "implicit.rank.inverse", os.str());
    }

    // Engine sweep over every ordered gender pair: queue-with-trace on the
    // implicit instance vs queue-with-trace on the materialized twin, then
    // every other engine on the implicit backend against that reference.
    for (Gender i = 0; i < k; ++i) {
      for (Gender j = 0; j < k; ++j) {
        if (i == j) continue;
        std::vector<gs::ProposalEvent> trace_imp;
        std::vector<gs::ProposalEvent> trace_exp;
        gs::GsOptions topt;
        topt.trace = &trace_imp;
        const auto reference = gs::gale_shapley_queue(implicit, i, j, topt);
        topt.trace = &trace_exp;
        const auto explicit_ref = gs::gale_shapley_queue(wide, i, j, topt);
        const std::string where = fam + ": implicit " + gs_pair(i, j);

        gs_agree(rec, where, reference, explicit_ref, "implicit.queue.bitwise",
                 "implicit.queue.proposals");
        rec.check(trace_imp == trace_exp, "implicit.queue.trace",
                  where + ": implicit and materialized queue solves emitted "
                          "different proposal traces");
        engine_legs(rec, implicit, i, j, reference, options.pool, false,
                    where,
                    {"implicit.rounds.bitwise", "implicit.rounds.proposals",
                     "implicit.scan.bitwise", "implicit.scan.proposals",
                     "implicit.parallel.bitwise"});
      }
    }

    // narrow16 twin: width stays a pure layout choice.
    if (const auto narrow = other_width(wide)) {
      gs_agree(rec, fam + ": implicit vs narrow16 twin " + gs_pair(0, 1),
               gs::gale_shapley_queue(implicit, 0, 1),
               gs::gale_shapley_queue(implicit.materialized(*narrow), 0, 1),
               "implicit.narrow16.bitwise", "implicit.narrow16.bitwise");
    }

    {  // Binding + ladder layers across backends.
      const auto path = trees::path(k);
      const auto bound_imp = core::iterative_binding(implicit, path);
      const auto bound_exp = core::iterative_binding(wide, path);
      kary_agree(rec, "implicit.binding.bitwise", bound_exp.matching(),
                 bound_imp.matching(),
                 fam + ": implicit vs materialized binding");
      rec.cert(check_kary_certificate(implicit, bound_imp.matching(), path),
               "implicit.binding.cert");

      // Cached binding: the implicit instance's generation is fixed at 0, so
      // the generation-bound cache must replay hits bitwise and for free.
      core::GsEdgeCache cache(implicit);
      core::BindingOptions copts;
      copts.cache = &cache;
      (void)core::iterative_binding(implicit, path, copts);
      const auto replay = core::iterative_binding(implicit, path, copts);
      std::ostringstream rs;
      rs << fam << ": cached implicit replay executed "
         << replay.executed_proposals << " proposals";
      rec.check(replay.matching() == bound_imp.matching() &&
                    replay.executed_proposals == 0,
                "implicit.binding.cache.replay", rs.str());

      resilience::FallbackOptions fopts;
      const auto report = resilience::solve_with_fallback(implicit, fopts);
      rec.check(report.succeeded &&
                    report.matching() == bound_imp.matching(),
                "implicit.ladder.bitwise",
                fam + ": fallback ladder on the implicit backend diverges "
                      "from sequential binding");
    }
  }
}

/// Binding-layer cross-checks on the path tree: sequential Algorithm 1 is
/// the reference; TreeSweep, the edge cache, a cached replay and the
/// fallback ladder must all reproduce its matching bitwise.
void binding_checks(const KPartiteInstance& inst, const Recorder& rec,
                    const DiffOptions& options) {
  const Gender k = inst.genders();
  const auto path = trees::path(k);
  const auto reference = core::iterative_binding(inst, path);
  rec.cert(check_kary_certificate(inst, reference.matching(), path),
           "binding.sequential.cert");

  {  // TreeSweep over the singleton candidate list.
    const std::vector<BindingStructure> candidates{path};
    auto sweep = core::sweep_trees(inst, candidates);
    rec.check(sweep.succeeded() && sweep.best_index == 0,
              "binding.sweep.winner",
              "single-candidate sweep did not pick candidate 0");
    if (sweep.succeeded()) {
      KaryMatching swept = sweep.matching();
      if (options.sabotage == Sabotage::kary_swap) {
        swept = sabotage_kary(swept);
      }
      kary_agree(rec, "binding.sweep.bitwise", reference.matching(), swept,
                 "tree-sweep vs sequential binding");
    }
  }

  {
    core::GsEdgeCache cache(inst);
    core::BindingOptions copts;
    copts.cache = &cache;
    const auto cached = core::iterative_binding(inst, path, copts);
    kary_agree(rec, "binding.cache.bitwise", reference.matching(),
               cached.matching(), "cached vs sequential binding");
    // Second pass replays every edge from the memo (all hits) — the replay
    // must still be bitwise-identical and must execute zero proposals.
    const auto replay = core::iterative_binding(inst, path, copts);
    kary_agree(rec, "binding.cache.replay.bitwise", reference.matching(),
               replay.matching(), "cache-replay vs sequential binding");
    std::ostringstream os;
    os << "cache replay executed " << replay.executed_proposals
       << " proposals (hits " << replay.cache_hits << ", misses "
       << replay.cache_misses << ")";
    rec.check(replay.executed_proposals == 0 &&
                  replay.cache_hits == static_cast<std::int64_t>(k) - 1,
              "binding.cache.replay.free", os.str());
  }

  {  // Unconstrained ladder: attempt 0 is the path tree and must win.
    resilience::FallbackOptions fopts;
    const auto report = resilience::solve_with_fallback(inst, fopts);
    rec.check(report.succeeded && report.rung == resilience::Rung::strict_tree,
              "ladder.first-rung",
              "unconstrained ladder did not succeed on the strict first rung");
    if (report.succeeded) {
      kary_agree(rec, "ladder.bitwise", reference.matching(),
                 report.matching(), "ladder vs sequential binding");
    }
  }

  // Abort paths. Half the reference's own proposal budget must abort the
  // solve, and the exhausted control must KEEP reporting the abort from
  // check_now() (the bug class where check_now ignored the proposal budget).
  if (reference.total_proposals >= 2) {
    resilience::Budget budget;
    budget.max_proposals = reference.total_proposals / 2;
    resilience::ExecControl control(budget);
    core::BindingOptions copts;
    copts.control = &control;
    bool threw = false;
    try {
      const auto partial = core::iterative_binding(inst, path, copts);
      (void)partial;
    } catch (const ExecutionAborted&) {
      threw = true;
    }
    rec.check(threw, "abort.budget.thrown",
              "binding under half its own proposal budget did not abort");
    if (threw) {
      bool still_aborted = false;
      try {
        control.check_now();
      } catch (const ExecutionAborted& e) {
        still_aborted = e.reason() == AbortReason::proposal_budget;
      }
      rec.check(still_aborted, "abort.check_now.budget",
                "check_now() on an exhausted control did not re-report the "
                "proposal-budget abort");
    }
  }

  {  // A failed strict-only ladder must not claim any matching stable.
    resilience::FallbackOptions fopts;
    fopts.per_attempt.max_proposals = 1;
    fopts.max_tree_attempts = 1;
    fopts.allow_degraded = false;
    const auto report = resilience::solve_with_fallback(inst, fopts);
    const bool starved = inst.per_gender() >= 2;  // n = 1 fits in 1 proposal
    if (starved) {
      rec.check(!report.succeeded && !report.result.has_value(),
                "abort.no-partial-result",
                "exhausted strict-only ladder still carries a result");
    }
  }
}

/// The additive identity behind `kary best`: the best_cost fold's edge-table
/// argmin names the tree, cost and matching that binding every tree
/// (score_table) names.
void sweep_table_checks(const KPartiteInstance& inst, const Recorder& rec) {
  core::TreeSweepOptions options;
  const auto table = core::sweep_all_trees(inst, options);
  options.fold = core::SweepFold::score_table;
  const auto every = core::sweep_all_trees(inst, options);
  std::ostringstream os;
  os << "table argmin: tree " << table.best_index << ", cost "
     << table.best_cost << "; every tree bound: tree " << every.best_index
     << ", cost " << every.best_cost;
  rec.check(table.succeeded() && every.succeeded() &&
                table.best_index == every.best_index &&
                table.best_cost == every.best_cost &&
                table.matching() == every.matching(),
            "binding.sweep.table.bitwise", os.str());
}

/// Per-edge agreement of two binding results over one tree: both match
/// arrays and the proposal count of every edge, so a reused or replayed
/// edge must carry the right counter, not only the right matching. Writes
/// the first divergence to `detail`.
bool edges_agree(const core::BindingResult& want,
                 const core::BindingResult& got, std::ostringstream& detail) {
  if (got.edge_results.size() != want.edge_results.size()) {
    detail << "edge count " << got.edge_results.size() << " vs "
           << want.edge_results.size();
    return false;
  }
  for (std::size_t e = 0; e < want.edge_results.size(); ++e) {
    const gs::GsResult& mine = got.edge_results[e];
    const gs::GsResult& theirs = want.edge_results[e];
    if (mine.proposer_match != theirs.proposer_match ||
        mine.responder_match != theirs.responder_match ||
        mine.proposals != theirs.proposals) {
      detail << "per-edge divergence at tree edge " << e;
      return false;
    }
  }
  return true;
}

/// Incremental re-stabilization legs (src/incremental/, docs/INCREMENTAL.md).
/// A mutable copy of the instance absorbs `churn_steps` seeded random
/// preference deltas; after every step the incremental pipeline must agree
/// bitwise with a cold solve of the mutated instance, the generation-bound
/// cache must refuse stale lookups, and rematch must provably do less work
/// than starting over (the counter checks are scoped to single-pair deltas
/// at k >= 3, where "strictly fewer" is a theorem, not a heuristic: only the
/// touched tree edge, if any, is re-solved).
void churn_checks(const KPartiteInstance& original, const Recorder& rec,
                  const DiffOptions& options) {
  const Gender k = original.genders();
  const auto path = trees::path(k);
  KPartiteInstance inst = original;
  // Derived stream: decoupled from the generator's seed usage so adding
  // churn legs does not perturb what the other batteries see.
  Rng rng(rec.seed ^ 0xc1124e5ab17e5eedULL);

  core::GsEdgeCache cache(inst);  // generation-bound
  core::BindingOptions cached_opts;
  cached_opts.cache = &cache;
  core::BindingResult previous = core::iterative_binding(inst, path,
                                                         cached_opts);

  for (std::int32_t step = 0; step < options.churn_steps; ++step) {
    auto delta = incremental::random_mutation(inst, rng);
    if (step % 3 == 2) {
      // Every third step stacks a second mutation before re-stabilizing, so
      // the merged-delta path is exercised too.
      delta.merge(incremental::random_mutation(inst, rng));
    }

    // Stale-cache guard: the cache is still bound to the pre-delta
    // generation, so a cached solve must throw instead of serving memoized
    // results for rewritten rows.
    {
      bool threw = false;
      try {
        (void)core::iterative_binding(inst, path, cached_opts);
      } catch (const std::logic_error&) {
        threw = true;
      }
      rec.check(threw, "churn.cache.stale-guard",
                "generation-bound cache served a mutated instance without "
                "throwing");
    }

    // Cold reference: full re-solve of the mutated instance, no cache.
    const auto cold = core::iterative_binding(inst, path);
    const std::size_t ready_before = cache.size();
    const bool single_pair = !delta.shape_changed &&
                             delta.touched_pairs().size() == 1;

    {  // Cached rematch: the headline incremental path.
      incremental::RematchOptions ropts;
      ropts.cache = &cache;
      const auto warm = incremental::rematch(inst, path, previous, delta,
                                             ropts);
      kary_agree(rec, "churn.rematch.bitwise", cold.matching(),
                 warm.result.matching(),
                 "cached rematch vs cold re-solve");
      std::ostringstream es;
      const bool edges_ok = edges_agree(cold, warm.result, es);
      rec.check(edges_ok, "churn.rematch.edges.bitwise", es.str());
      if (single_pair && k >= 3) {
        std::ostringstream os;
        os << "targeted invalidation dropped " << warm.slots_invalidated
           << " slots, clear() would have dropped " << ready_before;
        rec.check(warm.slots_invalidated < ready_before,
                  "churn.cache.invalidate.targeted", os.str());
        std::ostringstream ps;
        ps << "rematch executed " << warm.result.executed_proposals
           << " proposals, cold re-solve " << cold.total_proposals;
        rec.check(warm.result.executed_proposals < cold.total_proposals,
                  "churn.cache.executed.fewer", ps.str());
      }
    }

    {  // Uncached path: the queue engine re-solves the touched edges that
       // fail replay — reused + replayed + re-solved verdicts cover the
       // whole tree.
      const auto warm = incremental::rematch(inst, path, previous, delta);
      // `previous`'s own results are what this leg returns for reused and
      // replayed edges, so their per-edge arrays and counts are checked with
      // the matching.
      std::ostringstream ms;
      ms << "uncached rematch vs cold re-solve: ";
      const bool same_matching = warm.result.matching() == cold.matching();
      if (!same_matching) {
        ms << describe_diff(cold.matching().raw(),
                            warm.result.matching().raw());
      }
      const bool agree = same_matching && edges_agree(cold, warm.result, ms);
      rec.check(agree, "churn.rematch.engine.bitwise", ms.str());
      std::ostringstream es;
      es << "edges reused " << warm.edges_reused << " + replayed "
         << warm.edges_replayed << " + re-solved " << warm.edges_warm
         << " + cold " << warm.edges_cold << " != " << (k - 1)
         << " tree edges";
      rec.check(warm.edges_reused + warm.edges_replayed + warm.edges_warm +
                        warm.edges_cold ==
                    static_cast<std::int64_t>(k) - 1,
                "churn.rematch.edge-accounting", es.str());
    }

    {  // Width twin: the relaid copy shares the generation, so the same
       // delta rematches it — and must land on the same matching.
      if (const auto width = other_width(inst)) {
        const auto twin = KPartiteInstance::relaid(inst, *width);
        const auto warm = incremental::rematch(twin, path, previous, delta);
        kary_agree(rec, "churn.width.bitwise", cold.matching(),
                   warm.result.matching(),
                   "relaid-width rematch vs cold re-solve");
      }
    }

    previous = cold;  // the next step reuses this solve
  }
}

/// Bipartite-only: Irving-based fair SMP against Gale-Shapley. man_oriented
/// rotation elimination is documented to equal men-proposing GS, and
/// woman_oriented women-proposing GS — a cross-algorithm agreement.
void fair_smp_checks(const KPartiteInstance& inst, const gs::GsResult& gs01,
                     const gs::GsResult& gs10, const Recorder& rec) {
  const auto men = rm::solve_fair_smp(inst, 0, 1, rm::FairPolicy::man_oriented);
  rec.check(men.has_stable, "smp.man_oriented.exists",
            "fair SMP (man_oriented) found no stable matching on a bipartite "
            "instance");
  if (men.has_stable) {
    rec.check(men.man_match == gs01.proposer_match, "smp.man_oriented.bitwise",
              "fair SMP man_oriented diverges from men-proposing GS: " +
                  describe_diff(gs01.proposer_match, men.man_match));
  }
  const auto women =
      rm::solve_fair_smp(inst, 0, 1, rm::FairPolicy::woman_oriented);
  rec.check(women.has_stable, "smp.woman_oriented.exists",
            "fair SMP (woman_oriented) found no stable matching on a "
            "bipartite instance");
  if (women.has_stable) {
    rec.check(
        women.woman_match == gs10.proposer_match, "smp.woman_oriented.bitwise",
        "fair SMP woman_oriented diverges from women-proposing GS: " +
            describe_diff(gs10.proposer_match, women.woman_match));
  }
}

/// Roommates derivations: each linearization of the k-partite instance is
/// solved twice (bitwise determinism) and its verdict is cross-checked
/// against BOTH stability checkers — the solver's own is_stable_matching and
/// the independent raw-list certificate.
void roommates_checks(const KPartiteInstance& inst, const Recorder& rec) {
  for (const auto lin :
       {rm::Linearization::round_robin, rm::Linearization::gender_blocks}) {
    const char* label = lin == rm::Linearization::round_robin
                            ? "round_robin"
                            : "gender_blocks";
    const auto rinst = rm::to_roommates(inst, lin);
    const auto first = rm::solve(rinst);
    const auto second = rm::solve(rinst);
    std::ostringstream os;
    os << "roommates solve under " << label
       << " is not deterministic: has_stable " << first.has_stable << " vs "
       << second.has_stable;
    rec.check(first.has_stable == second.has_stable &&
                  first.match == second.match &&
                  first.phase1_proposals == second.phase1_proposals,
              "roommates.determinism", os.str());
    if (first.has_stable) {
      rec.cert(check_roommates_certificate(rinst, first.match),
               "roommates.cert");
      rec.check(rm::is_stable_matching(rinst, first.match),
                "roommates.self-check",
                "rm::is_stable_matching rejects a matching the independent "
                "certificate accepts");
    }
  }
}

}  // namespace

const char* to_string(Sabotage sabotage) noexcept {
  switch (sabotage) {
    case Sabotage::none: return "none";
    case Sabotage::gs_swap: return "gs_swap";
    case Sabotage::kary_swap: return "kary_swap";
  }
  return "unknown";
}

std::optional<Sabotage> parse_sabotage(std::string_view text) {
  if (text == "none") return Sabotage::none;
  if (text == "gs_swap") return Sabotage::gs_swap;
  if (text == "kary_swap") return Sabotage::kary_swap;
  return std::nullopt;
}

std::string Mismatch::to_json() const {
  std::ostringstream os;
  os << "{\"check\":";
  util::write_json_string(os, check);
  os << ",\"shape\":\"" << verify::to_string(shape) << "\",\"dist\":\""
     << verify::to_string(dist) << "\",\"seed\":" << seed << ",\"k\":" << k
     << ",\"n\":" << n << ",\"detail\":";
  util::write_json_string(os, detail);
  os << '}';
  return os.str();
}

void sabotage_gs_result(gs::GsResult& result) {
  if (result.proposer_match.size() < 2) return;
  std::swap(result.proposer_match[0], result.proposer_match[1]);
  for (std::size_t r = 0; r < result.responder_match.size(); ++r) {
    if (result.responder_match[r] == 0) {
      result.responder_match[r] = 1;
    } else if (result.responder_match[r] == 1) {
      result.responder_match[r] = 0;
    }
  }
}

KaryMatching sabotage_kary(const KaryMatching& matching) {
  if (matching.per_gender() < 2) return matching;
  auto families = matching.raw();
  // Swap the gender-0 members of families 0 and 1: columns stay
  // permutations (the corruption survives KaryMatching's constructor), but
  // the family composition changes.
  std::swap(families[0], families[static_cast<std::size_t>(matching.genders())]);
  return KaryMatching(matching.genders(), matching.per_gender(),
                      std::move(families));
}

BatteryResult run_battery(const KPartiteInstance& inst, Shape shape,
                          const DiffOptions& options, Dist dist,
                          std::uint64_t seed) {
  BatteryResult result;
  const Recorder rec{&result, shape, dist, seed,
                     inst.genders(), inst.per_gender()};

  std::optional<gs::GsResult> gs01;
  std::optional<gs::GsResult> gs10;
  for (Gender i = 0; i < inst.genders(); ++i) {
    for (Gender j = 0; j < inst.genders(); ++j) {
      if (i == j) continue;
      auto reference = gs_engine_checks(inst, i, j, rec, options);
      if (i == 0 && j == 1) gs01 = std::move(reference);
      if (i == 1 && j == 0) gs10 = std::move(reference);
    }
  }

  layout_checks(inst, rec);
  implicit_checks(rec, options);
  binding_checks(inst, rec, options);
  if (shape == Shape::kpartite) sweep_table_checks(inst, rec);
  if (options.churn_steps > 0) churn_checks(inst, rec, options);

  if (shape == Shape::bipartite && inst.genders() == 2) {
    fair_smp_checks(inst, *gs01, *gs10, rec);
  }
  if (shape == Shape::roommates) {
    roommates_checks(inst, rec);
  }
  return result;
}

BatteryResult run_battery(const GeneratedInstance& gen,
                          const DiffOptions& options) {
  return run_battery(gen.instance, gen.shape, options, gen.dist, gen.seed);
}

}  // namespace kstable::verify
