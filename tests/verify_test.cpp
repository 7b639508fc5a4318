// Property suite for the differential verification harness (src/verify/):
// generator determinism, certificate-checker soundness (accepts real stable
// matchings, rejects every corruption class), a clean-battery sweep across
// all shapes, the sabotage self-test (a planted bug MUST be detected and the
// shrinker MUST emit a minimal loadable repro), shrinker move correctness,
// and the end-to-end run_verification exit contract.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <sstream>
#include <string>

#include "core/binding.hpp"
#include "core/tree_selection.hpp"
#include "graph/binding_structure.hpp"
#include "gs/gale_shapley.hpp"
#include "observability/metrics.hpp"
#include "parallel/thread_pool.hpp"
#include "prefs/generators.hpp"
#include "prefs/io.hpp"
#include "roommates/adapters.hpp"
#include "roommates/solver.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"
#include "verify/cert_checker.hpp"
#include "verify/diff_runner.hpp"
#include "verify/instance_gen.hpp"
#include "verify/shrinker.hpp"
#include "verify/verify.hpp"

namespace kstable::verify {
namespace {

// --- InstanceGen -----------------------------------------------------------

TEST(InstanceGen, DeterministicPerSeed) {
  GenOptions options;
  options.shape = Shape::kpartite;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    const auto a = generate(options, seed);
    const auto b = generate(options, seed);
    EXPECT_EQ(a.instance, b.instance) << "seed " << seed;
    EXPECT_EQ(a.dist, b.dist);
  }
}

TEST(InstanceGen, ShapesPinTheirGenderCounts) {
  GenOptions options;
  for (std::uint64_t seed = 1; seed <= 30; ++seed) {
    options.shape = Shape::bipartite;
    EXPECT_EQ(generate(options, seed).instance.genders(), 2);
    options.shape = Shape::kpartite;
    const auto kp = generate(options, seed);
    EXPECT_GE(kp.instance.genders(), 3);
    EXPECT_LE(kp.instance.genders(), 5);
    EXPECT_TRUE(kp.instance.is_complete());
  }
}

TEST(InstanceGen, MixedResolvesToConcreteDistributions) {
  GenOptions options;
  options.dist = Dist::mixed;
  bool saw_multiple = false;
  Dist first = generate(options, 1).dist;
  for (std::uint64_t seed = 2; seed <= 40 && !saw_multiple; ++seed) {
    const auto drawn = generate(options, seed);
    EXPECT_NE(drawn.dist, Dist::mixed);
    saw_multiple = drawn.dist != first;
  }
  EXPECT_TRUE(saw_multiple) << "40 mixed draws never varied the distribution";
}

TEST(InstanceGen, ParseRoundTrips) {
  for (const Shape s : {Shape::bipartite, Shape::kpartite, Shape::roommates}) {
    EXPECT_EQ(parse_shape(to_string(s)), s);
  }
  for (const Dist d : {Dist::uniform, Dist::master, Dist::skewed,
                       Dist::adversarial, Dist::mixed}) {
    EXPECT_EQ(parse_dist(to_string(d)), d);
  }
  EXPECT_FALSE(parse_shape("tripartite").has_value());
  EXPECT_FALSE(parse_dist("gaussian").has_value());
}

// --- CertChecker soundness -------------------------------------------------

TEST(CertChecker, AcceptsRealGsOutcomes) {
  Rng rng(11);
  for (int trial = 0; trial < 20; ++trial) {
    const auto inst = gen::uniform(2, 6, rng);
    const auto result = gs::gale_shapley_queue(inst, 0, 1);
    EXPECT_FALSE(check_gs_certificate(inst, 0, 1, result).has_value());
  }
}

TEST(CertChecker, RejectsEveryGsCorruptionClass) {
  Rng rng(12);
  const auto inst = gen::uniform(2, 5, rng);
  const auto good = gs::gale_shapley_queue(inst, 0, 1);

  auto broken = good;  // non-permutation proposer side
  broken.proposer_match[0] = broken.proposer_match[1];
  EXPECT_TRUE(check_gs_certificate(inst, 0, 1, broken).has_value());

  broken = good;  // inverse inconsistency
  std::swap(broken.responder_match[0], broken.responder_match[1]);
  EXPECT_TRUE(check_gs_certificate(inst, 0, 1, broken).has_value());

  broken = good;  // proposal count outside [n, n^2]
  broken.proposals = 3;  // n = 5
  EXPECT_TRUE(check_gs_certificate(inst, 0, 1, broken).has_value());

  broken = good;  // a valid matching that is NOT stable (partner swap)
  sabotage_gs_result(broken);
  const auto failure = check_gs_certificate(inst, 0, 1, broken);
  ASSERT_TRUE(failure.has_value());
  EXPECT_NE(failure->what.find("blocking pair"), std::string::npos);
}

TEST(CertChecker, AcceptsRealBindingAndRejectsSabotage) {
  Rng rng(13);
  for (int trial = 0; trial < 10; ++trial) {
    const auto inst = gen::uniform(4, 4, rng);
    const auto tree = trees::path(4);
    const auto result = core::iterative_binding(inst, tree);
    EXPECT_FALSE(
        check_kary_certificate(inst, result.matching(), tree).has_value());
    EXPECT_TRUE(
        check_kary_certificate(inst, sabotage_kary(result.matching()), tree)
            .has_value())
        << "trial " << trial << ": family swap passed the certificate";
  }
}

TEST(CertChecker, KaryShapeMismatchIsReported) {
  Rng rng(14);
  const auto inst = gen::uniform(3, 3, rng);
  const auto other = gen::uniform(3, 4, rng);
  const auto result =
      core::iterative_binding(other, trees::path(3));
  const auto failure =
      check_kary_certificate(inst, result.matching(), trees::path(3));
  ASSERT_TRUE(failure.has_value());
  EXPECT_NE(failure->what.find("shape"), std::string::npos);
}

TEST(CertChecker, BestTreeAcceptsEdmondsAndRejectsTampering) {
  Rng rng(16);
  const Gender k = 5;
  const auto inst = gen::uniform(k, 6, rng);
  const auto best = core::best_tree(inst);
  const auto failure = [&best](const BindingStructure& tree,
                               const std::vector<core::DualSet>& dual) {
    const auto f = check_best_tree_certificate(best.costs, tree, dual);
    return f ? f->what : std::string();
  };
  const auto& y = best.optimum.dual;
  EXPECT_EQ(failure(best.tree, y), "");

  auto raised = y;  // over-claims: a tight edge out of {0} goes negative
  raised.front().y += 1;
  EXPECT_NE(failure(best.tree, raised).find("reduced cost"), std::string::npos);
  auto negative = y;
  negative.front().y = -1;
  EXPECT_NE(failure(best.tree, negative).find("y < 0"), std::string::npos);
  auto rooted = y;
  rooted.push_back({{k - 1}, 0});
  EXPECT_NE(failure(best.tree, rooted).find("the root"), std::string::npos);

  BindingStructure flipped(k);  // the root proposes
  for (const auto& e : best.tree.edges()) {
    flipped.add_edge(e.b == k - 1 ? GenderEdge{e.b, e.a} : e);
  }
  EXPECT_NE(failure(flipped, y).find("in-arborescence"), std::string::npos);

  // A costlier in-arborescence cannot borrow the optimum's dual.
  const auto path = trees::path(k);
  std::int64_t path_cost = 0;
  for (const auto& e : path.edges()) {
    path_cost += best.costs[static_cast<std::size_t>(e.a * k + e.b)];
  }
  ASSERT_GT(path_cost, best.optimum.cost);
  EXPECT_NE(failure(path, y), "");
}

TEST(CertChecker, RoommatesAcceptsSolverOutputRejectsCorruption) {
  Rng rng(15);
  int solved = 0;
  for (int trial = 0; trial < 30; ++trial) {
    const auto inst = gen::uniform(2, 5, rng);
    const auto rinst = rm::to_roommates(inst, rm::Linearization::round_robin);
    const auto result = rm::solve(rinst);
    if (!result.has_stable) continue;
    ++solved;
    EXPECT_FALSE(check_roommates_certificate(rinst, result.match).has_value());
    auto corrupted = result.match;
    // Break the involution: point person 0 at its partner's partner.
    corrupted[0] = corrupted[static_cast<std::size_t>(corrupted[0])];
    EXPECT_TRUE(check_roommates_certificate(rinst, corrupted).has_value());
  }
  EXPECT_GT(solved, 0) << "no bipartite draw produced a stable matching";
}

TEST(CertChecker, ScanRankMatchesRankTable) {
  Rng rng(16);
  const auto inst = gen::uniform(3, 6, rng);
  for (Gender g = 0; g < 3; ++g) {
    for (Index i = 0; i < 6; ++i) {
      for (Gender h = 0; h < 3; ++h) {
        if (h == g) continue;
        for (Index j = 0; j < 6; ++j) {
          const MemberId m{g, i};
          const MemberId target{h, j};
          EXPECT_EQ(scan_rank(inst, m, target), inst.rank_of(m, target));
        }
      }
    }
  }
}

// --- DiffRunner ------------------------------------------------------------

// The battery's size is a pure function of (instance, options), so the exact
// check totals below pin every leg: one that silently stops running, or runs
// twice, moves them.

/// Runs the battery on seeds 1..seeds of `shape`, fails on any mismatch, and
/// returns the number of checks evaluated.
std::int64_t clean_checks(Shape shape, std::uint64_t seeds,
                          const DiffOptions& options = {}) {
  GenOptions gen_options;
  gen_options.shape = shape;
  std::int64_t checks = 0;
  for (std::uint64_t seed = 1; seed <= seeds; ++seed) {
    const auto battery = run_battery(generate(gen_options, seed), options);
    checks += battery.checks;
    for (const auto& m : battery.mismatches) {
      ADD_FAILURE() << "shape " << to_string(shape) << " seed " << seed
                    << ": " << m.check << " — " << m.detail;
    }
  }
  return checks;
}

TEST(DiffRunner, CleanSweepAcrossAllShapes) {
  EXPECT_EQ(clean_checks(Shape::bipartite, 15), 975);
  EXPECT_EQ(clean_checks(Shape::kpartite, 15), 4745);
  EXPECT_EQ(clean_checks(Shape::roommates, 15), 4157);
}

TEST(DiffRunner, ParallelEngineLegJoinsTheBattery) {
  ThreadPool pool(2);
  DiffOptions options;
  options.pool = &pool;
  EXPECT_EQ(clean_checks(Shape::kpartite, 5, options), 1621);
}

TEST(DiffRunner, ChurnLegsJoinTheBattery) {
  DiffOptions options;
  options.churn_steps = 3;
  EXPECT_EQ(clean_checks(Shape::kpartite, 5, options), 1522);
}

TEST(DiffRunner, GsSabotageIsDetected) {
  GenOptions gen_options;
  gen_options.shape = Shape::bipartite;
  DiffOptions options;
  options.sabotage = Sabotage::gs_swap;
  const auto battery = run_battery(generate(gen_options, 7), options);
  ASSERT_FALSE(battery.clean());
  EXPECT_EQ(battery.mismatches.front().check, "gs.engine.scan.bitwise");
}

TEST(DiffRunner, KarySabotageIsDetected) {
  GenOptions gen_options;
  gen_options.shape = Shape::kpartite;
  DiffOptions options;
  options.sabotage = Sabotage::kary_swap;
  const auto battery = run_battery(generate(gen_options, 7), options);
  ASSERT_FALSE(battery.clean());
  EXPECT_EQ(battery.mismatches.front().check, "binding.sweep.bitwise");
}

TEST(DiffRunner, MismatchJsonCarriesReplayProvenance) {
  Mismatch m;
  m.check = "gs.engine.scan.bitwise";
  m.detail = "first divergence at index 0: expected \"a\"\n";
  m.shape = Shape::kpartite;
  m.dist = Dist::skewed;
  m.seed = 42;
  m.k = 4;
  m.n = 3;
  const std::string json = m.to_json();
  EXPECT_NE(json.find("\"check\":\"gs.engine.scan.bitwise\""),
            std::string::npos);
  EXPECT_NE(json.find("\"seed\":42"), std::string::npos);
  EXPECT_NE(json.find("\"shape\":\"kpartite\""), std::string::npos);
  EXPECT_NE(json.find("\\\"a\\\"\\n"), std::string::npos)  // escaped quote+LF
      << json;
}

// --- Shrinker --------------------------------------------------------------

TEST(Shrinker, MovesPreserveValidity) {
  Rng rng(21);
  const auto inst = gen::uniform(4, 4, rng);
  const auto no_gender = remove_gender(inst, 1);
  ASSERT_TRUE(no_gender.has_value());
  EXPECT_EQ(no_gender->genders(), 3);
  EXPECT_EQ(no_gender->per_gender(), 4);
  EXPECT_TRUE(no_gender->is_complete());

  const auto no_member = remove_member(inst, 2);
  ASSERT_TRUE(no_member.has_value());
  EXPECT_EQ(no_member->genders(), 4);
  EXPECT_EQ(no_member->per_gender(), 3);
  EXPECT_TRUE(no_member->is_complete());

  EXPECT_FALSE(remove_gender(gen::uniform(2, 3, rng), 0).has_value());
  EXPECT_FALSE(remove_member(gen::uniform(3, 1, rng), 0).has_value());
}

TEST(Shrinker, RemoveMemberPreservesRelativeOrder) {
  Rng rng(22);
  const auto inst = gen::uniform(2, 5, rng);
  const Index removed = 2;
  const auto reduced = remove_member(inst, removed);
  ASSERT_TRUE(reduced.has_value());
  for (Index i = 0; i < 5; ++i) {
    if (i == removed) continue;
    const Index new_i = i > removed ? i - 1 : i;
    const auto before = inst.pref_list(MemberId{0, i}, 1);
    const auto after = reduced->pref_list(MemberId{0, new_i}, 1);
    std::size_t a = 0;
    for (const Index choice : before) {
      if (choice == removed) continue;
      const Index expected = choice > removed ? choice - 1 : choice;
      ASSERT_LT(a, after.size());
      EXPECT_EQ(after[a++], expected);
    }
  }
}

TEST(Shrinker, DescendsToTheKnownMinimalCore) {
  // Predicate: instance still has >= 2 genders and >= 2 members — the
  // shrinker must descend exactly to k = 2, n = 2 with canonical lists.
  Rng rng(23);
  const auto start = gen::uniform(5, 6, rng);
  const auto result = shrink(start, [](const KPartiteInstance& inst) {
    return inst.genders() >= 2 && inst.per_gender() >= 2;
  });
  EXPECT_EQ(result.instance.genders(), 2);
  EXPECT_EQ(result.instance.per_gender(), 2);
  EXPECT_GT(result.reductions, 0);
  EXPECT_GE(result.candidates_tried, result.reductions);
  // Every surviving list is canonical (identity): no uninformative entropy.
  for (Gender g = 0; g < 2; ++g) {
    for (Index i = 0; i < 2; ++i) {
      const auto list = result.instance.pref_list(MemberId{g, i}, 1 - g);
      EXPECT_EQ(list[0], 0);
      EXPECT_EQ(list[1], 1);
    }
  }
}

TEST(Shrinker, RejectsAPassingStart) {
  Rng rng(24);
  const auto inst = gen::uniform(3, 3, rng);
  EXPECT_THROW(shrink(inst, [](const KPartiteInstance&) { return false; }),
               ContractViolation);
}

// --- run_verification end to end -------------------------------------------

TEST(RunVerification, CleanSweepReportsZeroMismatches) {
  VerifyOptions options;
  options.seeds = 10;
  options.repro_dir = ::testing::TempDir();
  const auto summary = run_verification(options);
  EXPECT_TRUE(summary.clean());
  EXPECT_EQ(summary.seeds_run, 30);  // 3 shapes x 10 seeds
  EXPECT_GT(summary.checks, 0);
  EXPECT_TRUE(summary.repro_paths.empty());
  EXPECT_STREQ(summary.telemetry.engine, "verify");
  EXPECT_TRUE(summary.telemetry.status.ok());
}

TEST(RunVerification, SabotageProducesReportAndLoadableMinimalRepro) {
  // The acceptance-criteria demo: a deliberately re-introduced bug must be
  // detected, shrunk, and persisted as a repro the IO layer can load and on
  // which the battery still fails.
  VerifyOptions options;
  options.shapes = {Shape::kpartite};
  options.seeds = 2;
  options.sabotage = Sabotage::kary_swap;
  options.repro_dir = ::testing::TempDir();
  std::ostringstream report;
  options.report = &report;
  const auto summary = run_verification(options);
  EXPECT_FALSE(summary.clean());
  EXPECT_GT(summary.mismatch_count, 0);
  ASSERT_EQ(summary.repro_paths.size(), 1u);
  EXPECT_NE(report.str().find("\"check\":\"binding.sweep.bitwise\""),
            std::string::npos);
  EXPECT_NE(report.str().find("\"repro\":"), std::string::npos);

  const auto repro = io::load_file(summary.repro_paths.front());
  EXPECT_TRUE(repro.is_complete());
  // Minimality: the planted family swap needs only two families to diverge.
  EXPECT_EQ(repro.per_gender(), 2);
  DiffOptions diff;
  diff.sabotage = Sabotage::kary_swap;
  EXPECT_FALSE(run_battery(repro, Shape::kpartite, diff).clean());
  std::remove(summary.repro_paths.front().c_str());
}

TEST(RunVerification, ReproLineEscapesTheReproPath) {
  // A repro directory with a quote and a backslash in its name must still
  // yield a JSON repro line.
  const std::string dir = ::testing::TempDir() + "kverify q\"d\\e";
  std::filesystem::create_directories(dir);
  VerifyOptions options;
  options.shapes = {Shape::kpartite};
  options.seeds = 1;
  options.sabotage = Sabotage::kary_swap;
  options.repro_dir = dir;
  std::ostringstream report;
  options.report = &report;
  const auto summary = run_verification(options);
  ASSERT_EQ(summary.repro_paths.size(), 1u);
  EXPECT_NE(report.str().find(
                "kverify q\\\"d\\\\e/kverify_repro_kpartite_1.kp\","),
            std::string::npos)
      << report.str();
  std::filesystem::remove_all(dir);
}

TEST(RunVerification, MismatchCounterFeedsTheMetricsRegistry) {
  VerifyOptions options;
  options.shapes = {Shape::bipartite};
  options.seeds = 1;
  options.sabotage = Sabotage::gs_swap;
  options.repro_dir = ::testing::TempDir();
  const auto summary = run_verification(options);
  EXPECT_FALSE(summary.clean());
  for (const std::string& path : summary.repro_paths) {
    std::remove(path.c_str());
  }
  EXPECT_EQ(summary.telemetry.status.outcome,
            resilience::SolveOutcome::no_stable);
  std::ostringstream os;
  obs::MetricsRegistry::global().write_json(os);
  EXPECT_NE(os.str().find("verify.mismatches"), std::string::npos);
}

}  // namespace
}  // namespace kstable::verify
