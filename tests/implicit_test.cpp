// Tests for the implicit preference backend (src/prefs/implicit/,
// docs/PERFORMANCE.md §Implicit preferences): the Feistel PRP is a bijection
// with an exact O(1) inverse, implicit instances are indistinguishable from
// their materialized explicit twins to every GS engine and to the binding /
// ladder / batch layers, the immutability contract holds, and the memory
// introspection reports the true O(1)-per-instance footprint.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <utility>
#include <vector>

#include "core/batch_solver.hpp"
#include "core/binding.hpp"
#include "core/gs_cache.hpp"
#include "graph/binding_structure.hpp"
#include "gs/gale_shapley.hpp"
#include "gs/parallel_gs.hpp"
#include "gs/scan_gs.hpp"
#include "prefs/implicit/feistel.hpp"
#include "prefs/implicit/implicit_prefs.hpp"
#include "prefs/kpartite.hpp"
#include "resilience/solve_ladder.hpp"
#include "util/check.hpp"

namespace kstable {
namespace {

using prefs::imp::Family;
using prefs::imp::ImplicitSpec;

// ---------------------------------------------------------------------------
// PRP layer

TEST(Feistel, GeometryCoversDomain) {
  for (const Index n : {1, 2, 3, 4, 5, 16, 17, 255, 256, 257, 512, 513, 1000,
                        1024, 1025, 2048, 2049, 4097, 20000, 32768, 32769,
                        65536}) {
    const auto g = prefs::imp::feistel_geometry(n);
    // The low half is v bits; the high half is v or v - 1 bits.
    EXPECT_EQ(g.low_mask, (1U << g.low_bits) - 1) << "n=" << n;
    EXPECT_TRUE(g.high_mask == g.low_mask || 2 * g.high_mask + 1 == g.low_mask)
        << "n=" << n;
    const std::uint64_t domain =
        (static_cast<std::uint64_t>(g.high_mask) + 1) << g.low_bits;
    EXPECT_GE(domain, static_cast<std::uint64_t>(n)) << "n=" << n;
    // Cycle-walking stays cheap: above n = 512 the domain is the tightest
    // power of two (< 2n); below it odd widths are raised by one (< 4n).
    // The expected walk length is below domain / n (docs/PERFORMANCE.md).
    if (n > 512) {
      EXPECT_LT(domain, 2ULL * static_cast<std::uint64_t>(n)) << "n=" << n;
    } else if (n > 1) {
      EXPECT_LT(domain, 4ULL * static_cast<std::uint64_t>(n)) << "n=" << n;
      EXPECT_EQ(g.high_mask, g.low_mask) << "n=" << n;
    }
  }
}

TEST(Feistel, PrpIsABijectionWithExactInverse) {
  // 1025, 2048 and 20000 have odd widths (11, 11 and 15 bits): unequal
  // halves.
  for (const Index n : {1, 2, 3, 5, 16, 255, 1000, 1025, 2048, 4097, 20000}) {
    const auto g = prefs::imp::feistel_geometry(n);
    for (const std::uint64_t row : {0ULL, 1ULL, 977ULL}) {
      const auto keys = prefs::imp::derive_row_keys(0x5eedULL, row);
      std::vector<bool> seen(static_cast<std::size_t>(n), false);
      for (Index x = 0; x < n; ++x) {
        const Index y = prefs::imp::prp_forward(g, keys, x);
        ASSERT_GE(y, 0);
        ASSERT_LT(y, n);
        EXPECT_FALSE(seen[static_cast<std::size_t>(y)])
            << "collision at n=" << n << " x=" << x;
        seen[static_cast<std::size_t>(y)] = true;
        EXPECT_EQ(prefs::imp::prp_inverse(g, keys, y), x)
            << "inverse mismatch at n=" << n << " x=" << x;
      }
    }
  }
}

TEST(Feistel, DistinctRowsGetDistinctPermutations) {
  const Index n = 64;
  const auto g = prefs::imp::feistel_geometry(n);
  const auto a = prefs::imp::derive_row_keys(7, 0);
  const auto b = prefs::imp::derive_row_keys(7, 1);
  bool differs = false;
  for (Index x = 0; x < n && !differs; ++x) {
    differs = prefs::imp::prp_forward(g, a, x) !=
              prefs::imp::prp_forward(g, b, x);
  }
  EXPECT_TRUE(differs) << "rows 0 and 1 produced the same permutation";
}

TEST(Feistel, LockstepWalkEqualsSeparateWalks) {
  // prp_forward_inverse must return exactly prp_forward(x) and
  // prp_inverse(y) for every pair, whichever of the two walks is longer.
  // The sizes cover tiny domains, both sides of each power of four, a
  // non-power, and two odd widths (1025 and 1100, 11 bits).
  for (const Index n :
       {1, 2, 3, 4, 5, 15, 16, 17, 255, 256, 257, 1000, 1025, 1100}) {
    const auto g = prefs::imp::feistel_geometry(n);
    for (const auto& [fwd_row, inv_row] :
         {std::pair{0ULL, 1ULL}, std::pair{977ULL, 3ULL},
          std::pair{5ULL, 5ULL}}) {
      const auto fk = prefs::imp::derive_row_keys(0x5eedULL, fwd_row);
      const auto ik = prefs::imp::derive_row_keys(0x5eedULL, inv_row);
      std::vector<Index> forward(static_cast<std::size_t>(n));
      std::vector<Index> inverse(static_cast<std::size_t>(n));
      for (Index v = 0; v < n; ++v) {
        forward[static_cast<std::size_t>(v)] = prefs::imp::prp_forward(g, fk, v);
        inverse[static_cast<std::size_t>(v)] = prefs::imp::prp_inverse(g, ik, v);
      }
      for (Index x = 0; x < n; ++x) {
        for (Index y = 0; y < n; ++y) {
          const auto both = prefs::imp::prp_forward_inverse(g, fk, x, ik, y);
          ASSERT_EQ(both.forward, forward[static_cast<std::size_t>(x)])
              << "n=" << n << " x=" << x << " y=" << y;
          ASSERT_EQ(both.inverse, inverse[static_cast<std::size_t>(y)])
              << "n=" << n << " x=" << x << " y=" << y;
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Generator pins: any change to Family::uniform's permutations (geometry,
// rounds, key schedule) fails these and is re-recorded as a declared
// generator change.

TEST(ImplicitGenerator, UniformRowsMatchGoldenValues) {
  struct Golden {
    std::uint64_t seed;
    Index n;
    std::vector<Index> first_row;  ///< member (0, 0) over gender 1
    std::vector<Index> last_row;   ///< member (2, n-1) over gender 0
  };
  const std::vector<Golden> golden = {
      {7, 1, {0}, {0}},
      {7, 2, {0, 1}, {1, 0}},
      {7, 3, {0, 2, 1}, {2, 0, 1}},
      {7, 5, {4, 2, 0, 1, 3}, {3, 1, 2, 0, 4}},
      {7, 17,
       {4, 1, 6, 8, 2, 13, 0, 7, 9, 15, 10, 12, 16, 11, 3, 5, 14},
       {5, 4, 11, 15, 16, 12, 2, 9, 7, 6, 13, 8, 1, 3, 0, 14, 10}},
      {0xfeed, 1, {0}, {0}},
      {0xfeed, 2, {0, 1}, {1, 0}},
      {0xfeed, 3, {0, 2, 1}, {1, 0, 2}},
      {0xfeed, 5, {0, 1, 2, 4, 3}, {3, 2, 1, 0, 4}},
      {0xfeed, 17,
       {9, 0, 3, 6, 16, 12, 1, 13, 5, 2, 4, 10, 15, 7, 8, 14, 11},
       {1, 11, 12, 3, 16, 15, 2, 14, 10, 6, 9, 5, 7, 0, 13, 8, 4}},
  };
  for (const Golden& g : golden) {
    const auto inst =
        KPartiteInstance::make_implicit(3, g.n, {Family::uniform, g.seed});
    std::vector<Index> first_row;
    std::vector<Index> last_row;
    for (Index r = 0; r < g.n; ++r) {
      first_row.push_back(inst.pref_at({0, 0}, 1, r));
      last_row.push_back(inst.pref_at({2, g.n - 1}, 0, r));
    }
    EXPECT_EQ(first_row, g.first_row) << "seed=" << g.seed << " n=" << g.n;
    EXPECT_EQ(last_row, g.last_row) << "seed=" << g.seed << " n=" << g.n;
  }
}

TEST(ImplicitGenerator, OddWidthRowMatchesGoldenValues) {
  // n = 1100 is an 11-bit domain: 5-bit and 6-bit halves, rounds alternating
  // their output widths. The first 16 choices of member (0, 0) over gender 1
  // pin that network.
  const Index n = 1100;
  const auto inst =
      KPartiteInstance::make_implicit(3, n, {Family::uniform, 7});
  std::vector<Index> head;
  for (Index r = 0; r < 16; ++r) head.push_back(inst.pref_at({0, 0}, 1, r));
  const std::vector<Index> golden = {726, 126, 494, 108, 922, 244, 166, 358,
                                     273, 744, 688, 551, 831, 636, 683, 809};
  EXPECT_EQ(head, golden);
}

/// First choices of every row of one k-gender generator, counted per target.
std::vector<std::int64_t> first_choice_counts(Gender k, Index n,
                                              std::uint64_t seed) {
  const prefs::imp::ImplicitPrefs prefs({Family::uniform, seed}, k, n);
  std::vector<std::int64_t> counts(static_cast<std::size_t>(n), 0);
  for (Gender g = 0; g < k; ++g) {
    for (Index m = 0; m < n; ++m) {
      for (Gender h = 0; h < k; ++h) {
        if (h != g) ++counts[static_cast<std::size_t>(prefs.pref({g, m}, h, 0))];
      }
    }
  }
  return counts;
}

TEST(ImplicitGenerator, UniformFirstChoicesAreNearUniform) {
  // n = 17: 50·49·17 = 41 650 rows, 2450 expected first choices per target.
  // Four balanced rounds over the 6-bit domain leave a real bias of a few
  // percent at this n (chi-square ≈ 360–400 on 16 degrees of freedom over
  // 676 600 rows, seeds 1–5); the ±10% bound catches anything grosser.
  {
    const auto counts = first_choice_counts(50, 17, 1);
    const double expected = 50.0 * 49.0;
    for (std::size_t t = 0; t < counts.size(); ++t) {
      EXPECT_NEAR(static_cast<double>(counts[t]), expected, 0.10 * expected)
          << "target " << t;
    }
  }
  // n = 1000 and n = 2000 (an 11-bit domain, so the unbalanced network with
  // 5-bit and 6-bit halves): 11·10·n rows, 110 per target. Pearson's
  // chi-square on n - 1 degrees of freedom has mean n - 1 and standard
  // deviation sqrt(2(n - 1)) (≈ 44.7 at n = 1000); the bound is six
  // deviations above.
  for (const Index n : {1000, 2000}) {
    const auto counts = first_choice_counts(11, n, 1);
    const double expected = 110.0;
    const double dof = static_cast<double>(n - 1);
    double chi_square = 0.0;
    for (const std::int64_t c : counts) {
      const double d = static_cast<double>(c) - expected;
      chi_square += d * d / expected;
    }
    EXPECT_LT(chi_square, dof + 6.0 * std::sqrt(2.0 * dof)) << "n=" << n;
  }
}

// ---------------------------------------------------------------------------
// Instance layer

TEST(ImplicitInstance, CyclicClosedForm) {
  const Index n = 9;
  const auto inst =
      KPartiteInstance::make_implicit(3, n, {Family::cyclic, 0});
  for (Index i = 0; i < n; ++i) {
    for (Index r = 0; r < n; ++r) {
      EXPECT_EQ(inst.pref_at({0, i}, 1, r), (i + r) % n);
      EXPECT_EQ(inst.rank_of({0, i}, {1, (i + r) % n}),
                static_cast<std::int32_t>(r));
    }
  }
}

TEST(ImplicitInstance, RankOfInvertsPrefAt) {
  for (const auto family : {Family::uniform, Family::cyclic}) {
    const Index n = 33;
    const auto inst =
        KPartiteInstance::make_implicit(3, n, {family, 0xfeedULL});
    for (Gender g = 0; g < 3; ++g) {
      for (Index m = 0; m < n; ++m) {
        for (Gender h = 0; h < 3; ++h) {
          if (h == g) continue;
          for (Index r = 0; r < n; ++r) {
            const Index p = inst.pref_at({g, m}, h, r);
            ASSERT_EQ(inst.rank_of({g, m}, {h, p}),
                      static_cast<std::int32_t>(r))
                << "family=" << prefs::imp::to_string(family) << " g=" << g
                << " m=" << m << " h=" << h << " r=" << r;
          }
        }
      }
    }
  }
}

TEST(ImplicitInstance, MaterializedIsSemanticallyEqual) {
  for (const auto family : {Family::uniform, Family::cyclic}) {
    const auto inst =
        KPartiteInstance::make_implicit(3, 21, {family, 42});
    const auto wide = inst.materialized(prefs::RankWidth::wide32);
    const auto narrow = inst.materialized(prefs::RankWidth::narrow16);
    EXPECT_TRUE(wide == inst);
    EXPECT_TRUE(narrow == inst);
    EXPECT_NO_THROW(wide.validate());
    EXPECT_EQ(wide.backend(), PrefBackend::explicit_tables);
  }
  // Different seeds generate different instances (element-wise comparison).
  const auto a = KPartiteInstance::make_implicit(2, 16, {Family::uniform, 1});
  const auto b = KPartiteInstance::make_implicit(2, 16, {Family::uniform, 2});
  EXPECT_FALSE(a == b);
  // Same spec compares equal without any evaluation.
  const auto c = KPartiteInstance::make_implicit(2, 16, {Family::uniform, 1});
  EXPECT_TRUE(a == c);
}

TEST(ImplicitInstance, ReportsZeroTableFootprint) {
  const auto inst =
      KPartiteInstance::make_implicit(2, 100000, {Family::uniform, 9});
  EXPECT_EQ(inst.backend(), PrefBackend::implicit_gen);
  EXPECT_EQ(inst.pref_bytes(), 0u);
  EXPECT_EQ(inst.rank_bytes(), 0u);
  EXPECT_EQ(inst.arena_bytes(), 0u);
  EXPECT_EQ(inst.generation(), 0);
  EXPECT_NO_THROW(inst.validate());
}

TEST(ImplicitInstance, MutatorsAndTableAccessorsThrow) {
  const auto inst =
      KPartiteInstance::make_implicit(2, 4, {Family::uniform, 3});
  EXPECT_THROW((void)inst.pref_list({0, 0}, 1), ContractViolation);
  EXPECT_THROW(
      (void)KPartiteInstance::relaid(inst, prefs::RankWidth::wide32),
      ContractViolation);
  auto copy = inst;
  EXPECT_THROW(copy.set_pref_list({0, 0}, 1, std::vector<Index>{0, 1, 2, 3}),
               ContractViolation);
  EXPECT_THROW(copy.swap_pref_entries({0, 0}, 1, 0, 1), ContractViolation);
}

// ---------------------------------------------------------------------------
// Engine equivalence battery

TEST(ImplicitEngines, AllEnginesMatchMaterializedBitwise) {
  ThreadPool pool(4);
  for (const Gender k : {2, 3, 4}) {
    for (const auto family : {Family::uniform, Family::cyclic}) {
      const Index n = 40;
      const auto inst = KPartiteInstance::make_implicit(
          k, n, {family, 0x9000ULL + static_cast<std::uint64_t>(k)});
      const auto wide = inst.materialized(prefs::RankWidth::wide32);
      const auto narrow = inst.materialized(prefs::RankWidth::narrow16);
      for (Gender i = 0; i < k; ++i) {
        for (Gender j = 0; j < k; ++j) {
          if (i == j) continue;
          const auto reference = gs::gale_shapley_queue(inst, i, j);
          EXPECT_TRUE(gs::is_stable_binding(inst, reference));
          auto expect_same = [&](const gs::GsResult& other,
                                 bool check_proposals) {
            EXPECT_EQ(other.proposer_match, reference.proposer_match)
                << other.engine << " k=" << k << " (" << i << "," << j << ")";
            EXPECT_EQ(other.responder_match, reference.responder_match)
                << other.engine;
            if (check_proposals) {
              EXPECT_EQ(other.proposals, reference.proposals) << other.engine;
            }
          };
          // Every engine on the implicit backend...
          expect_same(gs::gale_shapley_rounds(inst, i, j), true);
          expect_same(gs::gale_shapley_scan(inst, i, j), true);
          expect_same(gs::gale_shapley_parallel(inst, i, j, pool, 8), false);
          // ...and the queue engine on both explicit widths.
          expect_same(gs::gale_shapley_queue(wide, i, j), true);
          expect_same(gs::gale_shapley_queue(narrow, i, j), true);
        }
      }
    }
  }
}

TEST(ImplicitEngines, TracesMatchMaterializedExactly) {
  const auto inst =
      KPartiteInstance::make_implicit(2, 48, {Family::uniform, 77});
  const auto wide = inst.materialized(prefs::RankWidth::wide32);
  std::vector<gs::ProposalEvent> trace_imp;
  std::vector<gs::ProposalEvent> trace_exp;
  gs::GsOptions opt;
  opt.trace = &trace_imp;
  (void)gs::gale_shapley_queue(inst, 0, 1, opt);
  opt.trace = &trace_exp;
  (void)gs::gale_shapley_queue(wide, 0, 1, opt);
  EXPECT_EQ(trace_imp, trace_exp);
}

TEST(ImplicitEngines, ProposalBudgetAbortsWhereMaterializedDoes) {
  // A proposal budget must trip after the same number of proposals, with
  // the same events recorded, on the generator as on its tables: both
  // backends charge exactly one unit per real proposal (the rounds engine
  // one batch per round).
  const auto inst =
      KPartiteInstance::make_implicit(2, 64, {Family::uniform, 31});
  const auto wide = inst.materialized(prefs::RankWidth::wide32);
  const std::int64_t cold = gs::gale_shapley_queue(inst, 0, 1).proposals;
  using Engine = void (*)(const KPartiteInstance&, Gender, Gender,
                          const gs::GsOptions&, gs::GsWorkspace&,
                          gs::GsResult&);
  for (const Engine engine :
       {static_cast<Engine>(gs::gale_shapley_queue),
        static_cast<Engine>(gs::gale_shapley_rounds)}) {
    for (const std::int64_t budget : {std::int64_t{1}, cold / 2, cold - 1}) {
      struct Aborted {
        std::int64_t spent = -1;
        std::int64_t proposals = -1;
        std::vector<gs::ProposalEvent> trace;
      };
      auto run = [&](const KPartiteInstance& on) {
        Aborted out;
        resilience::ExecControl control{
            resilience::Budget::proposals(budget)};
        gs::GsOptions options;
        options.control = &control;
        options.trace = &out.trace;
        gs::GsWorkspace workspace;
        gs::GsResult result;
        try {
          engine(on, 0, 1, options, workspace, result);
          ADD_FAILURE() << "budget " << budget << " never tripped";
        } catch (const ExecutionAborted& e) {
          EXPECT_EQ(e.reason(), AbortReason::proposal_budget);
        }
        out.spent = control.spent();
        out.proposals = result.proposals;
        return out;
      };
      const Aborted a = run(inst);
      const Aborted b = run(wide);
      EXPECT_GT(a.spent, budget);
      EXPECT_EQ(a.spent, b.spent) << "budget " << budget;
      EXPECT_EQ(a.proposals, b.proposals) << "budget " << budget;
      EXPECT_EQ(a.trace, b.trace) << "budget " << budget;
    }
  }
}

// ---------------------------------------------------------------------------
// Binding / ladder / batch integration

TEST(ImplicitBinding, IterativeBindingMatchesMaterialized) {
  for (const Gender k : {3, 4}) {
    const auto inst =
        KPartiteInstance::make_implicit(k, 25, {Family::uniform, 1234});
    const auto wide = inst.materialized(prefs::RankWidth::wide32);
    const auto path = trees::path(k);
    const auto a = core::iterative_binding(inst, path);
    const auto b = core::iterative_binding(wide, path);
    EXPECT_TRUE(a.matching() == b.matching()) << "k=" << k;
    EXPECT_EQ(a.total_proposals, b.total_proposals);
  }
}

TEST(ImplicitBinding, GenerationBoundCacheReplaysForFree) {
  const auto inst =
      KPartiteInstance::make_implicit(3, 20, {Family::uniform, 5});
  const auto path = trees::path(3);
  core::GsEdgeCache cache(inst);
  core::BindingOptions opts;
  opts.cache = &cache;
  const auto first = core::iterative_binding(inst, path, opts);
  const auto replay = core::iterative_binding(inst, path, opts);
  EXPECT_TRUE(replay.matching() == first.matching());
  EXPECT_EQ(replay.executed_proposals, 0);
  EXPECT_EQ(replay.cache_hits, 2);
}

TEST(ImplicitLadder, FallbackSolvesImplicitInstances) {
  const auto inst =
      KPartiteInstance::make_implicit(3, 18, {Family::uniform, 321});
  const auto report = resilience::solve_with_fallback(inst, {});
  ASSERT_TRUE(report.succeeded);
  const auto reference = core::iterative_binding(inst, trees::path(3));
  EXPECT_TRUE(report.matching() == reference.matching());
}

TEST(ImplicitBatch, MixedBackendBatchMatchesSoloRuns) {
  std::vector<KPartiteInstance> instances;
  for (int s = 0; s < 3; ++s) {
    const auto imp = KPartiteInstance::make_implicit(
        3, 16, {Family::uniform, static_cast<std::uint64_t>(s)});
    instances.push_back(imp);
    instances.push_back(imp.materialized());
  }
  ThreadPool pool(4);
  core::BatchSolver solver(pool);
  const auto results = solver.solve(instances);
  ASSERT_EQ(results.size(), instances.size());
  for (std::size_t i = 0; i < instances.size(); ++i) {
    ASSERT_TRUE(results[i].status.ok()) << "item " << i;
    ASSERT_TRUE(results[i].matching.has_value());
    const auto solo = core::iterative_binding(instances[i], trees::path(3));
    EXPECT_TRUE(*results[i].matching == solo.matching()) << "item " << i;
  }
  // Implicit item 2s and explicit item 2s+1 share the spec, so they must
  // land on identical matchings.
  for (std::size_t s = 0; s + 1 < results.size(); s += 2) {
    EXPECT_TRUE(*results[s].matching == *results[s + 1].matching);
  }
}

// ---------------------------------------------------------------------------
// Scale smoke: the acceptance-criteria shape at a CI-friendly size. The
// E21 benchmark covers n = 10^5+; here we pin that a large implicit solve
// stays exact (perfect matching + stability spot check) without tables.

TEST(ImplicitScale, LargeBipartiteSolveIsStable) {
  const Index n = 20000;
  const auto inst =
      KPartiteInstance::make_implicit(2, n, {Family::uniform, 0xabcdULL});
  EXPECT_EQ(inst.pref_bytes() + inst.rank_bytes(), 0u);
  const auto result = gs::gale_shapley_queue(inst, 0, 1);
  // Perfect matching is enforced by the engine's postcondition; spot-check
  // stability on a band of proposers (full O(n²) check is too slow here).
  for (Index p = 0; p < 64; ++p) {
    const Index matched = result.proposer_match[static_cast<std::size_t>(p)];
    const std::int32_t matched_rank = inst.rank_of({0, p}, {1, matched});
    for (std::int32_t r = 0; r < matched_rank; ++r) {
      const Index w = inst.pref_at({0, p}, 1, static_cast<Index>(r));
      const Index w_partner =
          result.responder_match[static_cast<std::size_t>(w)];
      EXPECT_FALSE(inst.prefers({1, w}, {0, p}, {0, w_partner}))
          << "blocking pair (" << p << "," << w << ")";
    }
  }
}

}  // namespace
}  // namespace kstable
