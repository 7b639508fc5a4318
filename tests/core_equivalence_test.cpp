// Tests for union-find and the equivalence-class derivation of §IV.A.
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <utility>

#include "core/equivalence.hpp"
#include "graph/prufer.hpp"
#include "gs/gale_shapley.hpp"
#include "prefs/examples.hpp"
#include "prefs/generators.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace kstable::core {
namespace {

TEST(UnionFind, BasicOperations) {
  UnionFind uf(6);
  EXPECT_EQ(uf.size(), 6);
  EXPECT_NE(uf.find(0), uf.find(1));
  EXPECT_TRUE(uf.unite(0, 1));
  EXPECT_EQ(uf.find(0), uf.find(1));
  EXPECT_FALSE(uf.unite(1, 0));  // already joined
  EXPECT_TRUE(uf.unite(2, 3));
  EXPECT_TRUE(uf.unite(0, 3));
  EXPECT_EQ(uf.find(1), uf.find(2));
  EXPECT_NE(uf.find(4), uf.find(5));
}

TEST(UnionFind, Reflexivity) {
  UnionFind uf(3);
  for (int i = 0; i < 3; ++i) EXPECT_EQ(uf.find(i), uf.find(i));
}

/// Builds the GS results for a structure's edges.
std::vector<gs::GsResult> run_edges(const KPartiteInstance& inst,
                                    const BindingStructure& s) {
  std::vector<gs::GsResult> results;
  for (const auto& e : s.edges()) {
    results.push_back(gs::gale_shapley_queue(inst, e.a, e.b));
  }
  return results;
}

TEST(DeriveFamilies, Fig3TreeGivesPaperTuples) {
  // Bindings M-W and W-U on the Fig. 3 instance produce (m,w,u), (m',w',u').
  const auto inst = kstable::examples::fig3_instance();
  BindingStructure tree(3);
  tree.add_edge({0, 1});
  tree.add_edge({1, 2});
  const auto results = run_edges(inst, tree);
  const auto report = derive_families(inst, tree, results);
  ASSERT_TRUE(report.consistent);
  EXPECT_EQ(report.class_count, 2);
  const auto& m = *report.matching;
  // Family containing m must contain w and u.
  const Index fam_m = m.family_of({0, 0});
  EXPECT_EQ(m.member_at(fam_m, 1), (MemberId{1, 0}));
  EXPECT_EQ(m.member_at(fam_m, 2), (MemberId{2, 0}));
}

TEST(DeriveFamilies, SpanningTreesAlwaysConsistent) {
  Rng rng(200);
  for (int trial = 0; trial < 20; ++trial) {
    const Gender k = static_cast<Gender>(3 + rng.below(4));
    const Index n = static_cast<Index>(2 + rng.below(6));
    const auto inst = gen::uniform(k, n, rng);
    const auto tree = prufer::random_tree(k, rng);
    const auto results = run_edges(inst, tree);
    const auto report = derive_families(inst, tree, results);
    ASSERT_TRUE(report.consistent) << report.inconsistency;
    EXPECT_EQ(report.class_count, n);
    // Every member is in exactly one family (KaryMatching validated it).
    EXPECT_EQ(report.matching->family_count(), n);
  }
}

TEST(DeriveFamilies, ForestAssemblesByIndex) {
  Rng rng(201);
  const auto inst = gen::uniform(4, 3, rng);
  BindingStructure forest(4);
  forest.add_edge({0, 1});  // component {0,1}; genders 2, 3 isolated
  const auto results = run_edges(inst, forest);
  const auto report = derive_families(inst, forest, results);
  ASSERT_TRUE(report.consistent);
  // Classes: 3 pairs + 3 + 3 singletons = 9.
  EXPECT_EQ(report.class_count, 9);
  ASSERT_TRUE(report.matching.has_value());
  const auto& m = *report.matching;
  // Isolated genders are joined by index: family t gets (2, t) and (3, t).
  for (Index t = 0; t < 3; ++t) {
    EXPECT_EQ(m.member_at(t, 2).index, t);
    EXPECT_EQ(m.member_at(t, 3).index, t);
  }
  // The bound component's pairs stay together.
  for (Index t = 0; t < 3; ++t) {
    const MemberId a = m.member_at(t, 0);
    const MemberId b = m.member_at(t, 1);
    const auto& gs_result = results[0];
    EXPECT_EQ(gs_result.proposer_match[static_cast<std::size_t>(a.index)],
              b.index);
  }
}

TEST(DeriveFamilies, EmptyStructureIsIdentityAssembly) {
  Rng rng(202);
  const auto inst = gen::uniform(3, 4, rng);
  const BindingStructure empty(3);
  const auto report = derive_families(inst, empty, {});
  ASSERT_TRUE(report.consistent);
  EXPECT_EQ(report.class_count, 12);  // all singletons
  for (Index t = 0; t < 4; ++t) {
    for (Gender g = 0; g < 3; ++g) {
      EXPECT_EQ(report.matching->member_at(t, g).index, t);
    }
  }
}

TEST(DeriveFamilies, DetectsCycleInconsistency) {
  // Force a conflict: on a 3-cycle, make GS(0,1) and GS(1,2) pair index-wise
  // but GS(2,0) pair crosswise; the class of (0,0) then contains (0,1) too.
  KPartiteInstance inst(3, 2);
  auto set2 = [&inst](MemberId m, Gender g, Index top) {
    inst.set_pref_list(m, g, top == 0 ? std::vector<Index>{0, 1}
                                      : std::vector<Index>{1, 0});
  };
  // Mutual first choices: (0,i)-(1,i) and (1,i)-(2,i).
  for (Index i = 0; i < 2; ++i) {
    set2({0, i}, 1, i);
    set2({1, i}, 0, i);
    set2({1, i}, 2, i);
    set2({2, i}, 1, i);
  }
  // Crosswise mutual first choices between genders 2 and 0.
  for (Index i = 0; i < 2; ++i) {
    set2({2, i}, 0, 1 - i);
    set2({0, i}, 2, 1 - i);
  }
  inst.validate();

  BindingStructure cycle(3);
  cycle.add_edge({0, 1});
  cycle.add_edge({1, 2});
  cycle.add_edge({2, 0});
  const auto results = run_edges(inst, cycle);
  const auto report = derive_families(inst, cycle, results);
  EXPECT_FALSE(report.consistent);
  EXPECT_NE(report.inconsistency.find("cycle"), std::string::npos);
  EXPECT_FALSE(report.matching.has_value());
}

TEST(DeriveFamilies, ConsistentCycleIsAccepted) {
  // If all three bindings agree (index-wise mutual first choices everywhere),
  // a cycle is harmless and the classes are valid tuples.
  KPartiteInstance inst(3, 2);
  auto set2 = [&inst](MemberId m, Gender g, Index top) {
    inst.set_pref_list(m, g, top == 0 ? std::vector<Index>{0, 1}
                                      : std::vector<Index>{1, 0});
  };
  for (Gender g = 0; g < 3; ++g) {
    for (Gender h = 0; h < 3; ++h) {
      if (g == h) continue;
      for (Index i = 0; i < 2; ++i) set2({g, i}, h, i);
    }
  }
  inst.validate();
  BindingStructure cycle(3);
  cycle.add_edge({0, 1});
  cycle.add_edge({1, 2});
  cycle.add_edge({2, 0});
  const auto results = run_edges(inst, cycle);
  const auto report = derive_families(inst, cycle, results);
  ASSERT_TRUE(report.consistent);
  for (Index t = 0; t < 2; ++t) {
    for (Gender g = 0; g < 3; ++g) {
      EXPECT_EQ(report.matching->member_at(t, g).index, t);
    }
  }
}

/// Reference class derivation with per-class member vectors and an anchor
/// sort per component: derive_families must agree with it bit for bit,
/// inconsistency text included.
EquivalenceReport reference_derive(Gender k, Index n,
                                   const BindingStructure& structure,
                                   const std::vector<gs::GsResult>& results) {
  UnionFind uf(k * n);
  for (std::size_t e = 0; e < results.size(); ++e) {
    const GenderEdge edge = structure.edges()[e];
    for (Index p = 0; p < n; ++p) {
      uf.unite(flat_id({edge.a, p}, n),
               flat_id({edge.b, results[e].proposer_match[
                                    static_cast<std::size_t>(p)]},
                       n));
    }
  }
  const auto label = structure.component_labels();
  std::vector<std::vector<std::int32_t>> classes;
  std::vector<std::int32_t> class_of_root(static_cast<std::size_t>(k * n), -1);
  for (std::int32_t f = 0; f < k * n; ++f) {
    auto& cls = class_of_root[static_cast<std::size_t>(uf.find(f))];
    if (cls == -1) {
      cls = static_cast<std::int32_t>(classes.size());
      classes.emplace_back();
    }
    classes[static_cast<std::size_t>(cls)].push_back(f);
  }
  EquivalenceReport report;
  report.class_count = static_cast<std::int32_t>(classes.size());
  std::vector<std::vector<std::size_t>> by_component(
      static_cast<std::size_t>(k));
  for (std::size_t c = 0; c < classes.size(); ++c) {
    std::vector<std::int32_t> count(static_cast<std::size_t>(k), 0);
    const auto home =
        label[static_cast<std::size_t>(member_of(classes[c].front(), n).gender)];
    for (const std::int32_t f : classes[c]) {
      const Gender g = member_of(f, n).gender;
      ++count[static_cast<std::size_t>(g)];
      if (label[static_cast<std::size_t>(g)] != home) {
        report.inconsistency = "class spans binding components";
        return report;
      }
    }
    for (Gender g = 0; g < k; ++g) {
      const int expected = label[static_cast<std::size_t>(g)] == home ? 1 : 0;
      if (count[static_cast<std::size_t>(g)] != expected) {
        std::ostringstream os;
        os << "equivalence class has " << count[static_cast<std::size_t>(g)]
           << " members of gender " << g << " (expected " << expected
           << "); binding structure "
           << (structure.has_cycle() ? "contains a cycle" : "is acyclic");
        report.inconsistency = os.str();
        return report;
      }
    }
    by_component[static_cast<std::size_t>(home)].push_back(c);
  }
  std::vector<Index> families(static_cast<std::size_t>(k * n), Index{-1});
  for (Gender home = 0; home < k; ++home) {
    auto& ids = by_component[static_cast<std::size_t>(home)];
    if (ids.empty()) continue;
    if (static_cast<Index>(ids.size()) != n) {
      std::ostringstream os;
      os << "component " << home << " produced " << ids.size()
         << " classes, expected " << n;
      report.inconsistency = os.str();
      return report;
    }
    // The anchor is the index of the member of the smallest gender.
    const auto anchor = [&](std::size_t c) {
      const auto smallest = std::min_element(
          classes[c].begin(), classes[c].end(), [n](auto a, auto b) {
            return member_of(a, n).gender < member_of(b, n).gender;
          });
      return member_of(*smallest, n).index;
    };
    std::sort(ids.begin(), ids.end(), [&](std::size_t a, std::size_t b) {
      return anchor(a) < anchor(b);
    });
    for (std::size_t t = 0; t < ids.size(); ++t) {
      for (const std::int32_t f : classes[ids[t]]) {
        const MemberId m = member_of(f, n);
        families[t * static_cast<std::size_t>(k) +
                 static_cast<std::size_t>(m.gender)] = m.index;
      }
    }
  }
  report.consistent = true;
  report.matching.emplace(k, n, std::move(families));
  return report;
}

/// Results of `structure`'s edges read off hidden families: family t holds
/// index hidden[g][t] of gender g, so the results agree around any cycle.
std::vector<gs::GsResult> hidden_results(
    const BindingStructure& structure,
    const std::vector<std::vector<Index>>& hidden, Index n) {
  std::vector<gs::GsResult> results;
  for (const GenderEdge e : structure.edges()) {
    gs::GsResult r;
    gs::reset_result(r, e.a, e.b, n);
    for (Index t = 0; t < n; ++t) {
      const auto slot = static_cast<std::size_t>(t);
      const Index p = hidden[static_cast<std::size_t>(e.a)][slot];
      const Index q = hidden[static_cast<std::size_t>(e.b)][slot];
      r.proposer_match[static_cast<std::size_t>(p)] = q;
      r.responder_match[static_cast<std::size_t>(q)] = p;
    }
    results.push_back(std::move(r));
  }
  return results;
}

/// Swaps the partners of proposers p1 and p2 of `r`, keeping it a perfect
/// matching: the hidden families of p1 and p2 then fall into one class.
void transpose(gs::GsResult& r, Index p1, Index p2) {
  const auto a = static_cast<std::size_t>(p1);
  const auto b = static_cast<std::size_t>(p2);
  std::swap(r.proposer_match[a], r.proposer_match[b]);
  r.responder_match[static_cast<std::size_t>(r.proposer_match[a])] = p1;
  r.responder_match[static_cast<std::size_t>(r.proposer_match[b])] = p2;
}

/// Edges over genders [0, k) absent from `structure`, shuffled, each in a
/// random orientation.
std::vector<GenderEdge> missing_edges(const BindingStructure& structure,
                                      Gender k, Rng& rng) {
  std::vector<GenderEdge> missing;
  for (Gender a = 0; a < k; ++a) {
    for (Gender b = 0; b < a; ++b) {
      if (!std::any_of(structure.edges().begin(), structure.edges().end(),
                       [&](GenderEdge x) {
                         return x.normalized() == GenderEdge{b, a};
                       })) {
        missing.push_back(rng.chance(0.5) ? GenderEdge{a, b}
                                          : GenderEdge{b, a});
      }
    }
  }
  rng.shuffle(missing);
  return missing;
}

TEST(DeriveFamilies, MatchesPerClassReferenceOnRandomStructures) {
  // Bindings are read off hidden families, so they agree around any cycle;
  // every other random cycle case replaces the matching of the last edge,
  // which closed a cycle, by a random one to break that agreement. The
  // targeted cases after the random ones break it by single transpositions,
  // so a known number of families merge.
  Rng rng(204);
  int cycles = 0;
  int inconsistent = 0;
  const auto check = [&](Gender k, Index n, const BindingStructure& structure,
                         const std::vector<gs::GsResult>& results,
                         const std::string& label) {
    SCOPED_TRACE(label);
    const auto expected = reference_derive(k, n, structure, results);
    const auto report =
        derive_families(KPartiteInstance(k, n), structure, results);
    EXPECT_EQ(report.consistent, expected.consistent);
    EXPECT_EQ(report.class_count, expected.class_count);
    EXPECT_EQ(report.inconsistency, expected.inconsistency);
    EXPECT_EQ(report.matching.has_value(), expected.matching.has_value());
    if (expected.matching && report.matching) {
      EXPECT_EQ(report.matching->raw(), expected.matching->raw());
    }
    cycles += structure.has_cycle() ? 1 : 0;
    inconsistent += expected.consistent ? 0 : 1;
    return expected;
  };
  const auto hidden_families = [&rng](Gender k, Index n) {
    std::vector<std::vector<Index>> hidden;
    for (Gender g = 0; g < k; ++g) hidden.push_back(rng.permutation(n));
    return hidden;
  };

  // Random cases cycle through: spanning tree, forest, empty, cyclic; the
  // first 240 at k <= 6 and n <= 8, the next 80 at k <= 9 and n <= 64.
  for (int trial = 0; trial < 320; ++trial) {
    const bool large = trial >= 240;
    const auto k = static_cast<Gender>(2 + rng.below(large ? 8 : 5));
    const auto n = static_cast<Index>(1 + rng.below(large ? 64 : 8));
    const auto hidden = hidden_families(k, n);

    const int shape = trial % 4;
    BindingStructure structure(k);
    if (shape != 2) {
      const auto tree = prufer::random_tree(k, rng);
      for (const GenderEdge e : tree.edges()) {
        if (shape == 1 && rng.chance(0.5)) continue;  // forest: drop edges
        structure.add_edge(rng.chance(0.5) ? e : GenderEdge{e.b, e.a});
      }
    }
    if (shape == 3) {
      // Close one or two cycles with edges the tree does not have.
      auto missing = missing_edges(structure, k, rng);
      missing.resize(std::min<std::size_t>(missing.size(), 1 + rng.below(2)));
      for (const GenderEdge e : missing) structure.add_edge(e);
    }

    auto results = hidden_results(structure, hidden, n);
    if (shape == 3 && structure.has_cycle() && (trial / 4) % 2 == 1) {
      auto& r = results.back();
      const auto scrambled = rng.permutation(n);
      for (Index p = 0; p < n; ++p) {
        const auto q = scrambled[static_cast<std::size_t>(p)];
        r.proposer_match[static_cast<std::size_t>(p)] = q;
        r.responder_match[static_cast<std::size_t>(q)] = p;
      }
    }
    check(k, n, structure, results, "random trial " + std::to_string(trial));
  }

  // Spanning tree plus closing edges, each disagreeing by one transposition.
  // One closing edge merges exactly 2 families; a second one that shares a
  // family with the first chains 3.
  for (int trial = 0; trial < 40; ++trial) {
    const bool chain = trial % 2 == 1;
    const auto k =
        static_cast<Gender>((chain ? 4 : 3) + rng.below(chain ? 6 : 7));
    const auto n = static_cast<Index>(3 + rng.below(62));
    const auto hidden = hidden_families(k, n);
    BindingStructure structure = prufer::random_tree(k, rng);
    auto missing = missing_edges(structure, k, rng);
    missing.resize(chain ? 2 : 1);
    for (const GenderEdge e : missing) structure.add_edge(e);
    auto results = hidden_results(structure, hidden, n);

    // Hidden families picked[0], picked[1] (and picked[2]) are the ones the
    // transpositions join.
    const auto picked = rng.permutation(n);
    const auto member = [&](GenderEdge e, std::size_t i) {
      return hidden[static_cast<std::size_t>(e.a)]
                   [static_cast<std::size_t>(picked[i])];
    };
    const std::size_t first = results.size() - missing.size();
    transpose(results[first], member(missing[0], 0), member(missing[0], 1));
    if (chain) {
      transpose(results[first + 1], member(missing[1], 1),
                member(missing[1], 2));
    }
    const auto expected =
        check(k, n, structure, results,
              std::string(chain ? "chain" : "transposition") + " trial " +
                  std::to_string(trial));
    EXPECT_EQ(expected.class_count, n - (chain ? 2 : 1));
    EXPECT_EQ(expected.inconsistency,
              std::string("equivalence class has ") + (chain ? "3" : "2") +
                  " members of gender 0 (expected 1); binding structure "
                  "contains a cycle");
  }

  // Two components. Component B, genders [split, k), holds a cycle that
  // disagrees by one transposition, so the cycle's root is not gender 0.
  // Component A, genders [0, split), is a bound pair, two isolated genders,
  // or a triangle that disagrees too, whose class of gender 0 then comes
  // first in the report.
  for (int trial = 0; trial < 18; ++trial) {
    const int variant = trial % 3;
    const Gender split = variant == 2 ? 3 : 2;
    const auto k = static_cast<Gender>(split + 3 + rng.below(5));
    const auto n = static_cast<Index>(2 + rng.below(63));
    const auto hidden = hidden_families(k, n);
    BindingStructure structure(k);
    std::vector<std::size_t> closing;  // edges that get a transposition
    const auto add_cycle = [&](Gender lo, Gender size) {
      const auto shifted = [lo](GenderEdge e) {
        return GenderEdge{static_cast<Gender>(e.a + lo),
                          static_cast<Gender>(e.b + lo)};
      };
      const auto tree = prufer::random_tree(size, rng);
      for (const GenderEdge e : tree.edges()) structure.add_edge(shifted(e));
      closing.push_back(structure.edges().size());
      structure.add_edge(shifted(missing_edges(tree, size, rng).front()));
    };
    if (variant == 0) structure.add_edge({1, 0});
    if (variant == 2) add_cycle(0, split);
    add_cycle(split, k - split);
    auto results = hidden_results(structure, hidden, n);
    for (const std::size_t e : closing) {
      const auto picked = rng.permutation(n);
      const auto& column =
          hidden[static_cast<std::size_t>(structure.edges()[e].a)];
      transpose(results[e], column[static_cast<std::size_t>(picked[0])],
                column[static_cast<std::size_t>(picked[1])]);
    }
    const auto expected = check(k, n, structure, results,
                                "two-component trial " + std::to_string(trial));
    const Index a_classes = variant == 0 ? n : variant == 1 ? 2 * n : n - 1;
    EXPECT_EQ(expected.class_count, a_classes + n - 1);
    EXPECT_EQ(expected.inconsistency,
              "equivalence class has 2 members of gender " +
                  std::to_string(variant == 2 ? 0 : split) +
                  " (expected 1); binding structure contains a cycle");
  }

  // The sample must reach both the cyclic and the inconsistent paths.
  EXPECT_GT(cycles, 100);
  EXPECT_GT(inconsistent, 70);
}

TEST(DeriveFamilies, ReportsAnEdgeResultThatIsNotAPerfectMatching) {
  // The walk reads each edge through one of its two match arrays, so they
  // must be mutually inverse permutations; a tampered partner is reported,
  // naming the edge and the member, even on a spanning tree.
  Rng rng(205);
  const auto inst = gen::uniform(3, 4, rng);
  const auto tree = trees::path(3);
  auto results = run_edges(inst, tree);
  auto& pm = results[1].proposer_match;
  std::swap(pm[0], pm[1]);  // responder_match left as it was
  auto report = derive_families(inst, tree, results);
  EXPECT_FALSE(report.consistent);
  EXPECT_FALSE(report.matching.has_value());
  std::ostringstream expected;
  expected << "binding edge 1 = GS(1,2) is not a perfect matching: member "
           << MemberId{1, 0} << " is matched to " << MemberId{2, pm[0]}
           << ", whose partner is " << MemberId{1, 1};
  EXPECT_EQ(report.inconsistency, expected.str());

  pm[0] = 4;  // out of range
  report = derive_families(inst, tree, results);
  EXPECT_FALSE(report.consistent);
  EXPECT_NE(report.inconsistency.find("partner index 4, outside [0, 4)"),
            std::string::npos)
      << report.inconsistency;
}

TEST(DeriveFamilies, RejectsMismatchedResults) {
  Rng rng(203);
  const auto inst = gen::uniform(3, 2, rng);
  BindingStructure tree(3);
  tree.add_edge({0, 1});
  tree.add_edge({1, 2});
  auto results = run_edges(inst, tree);
  std::swap(results[0], results[1]);  // wrong order vs. edges()
  EXPECT_THROW(derive_families(inst, tree, results), ContractViolation);
  results.pop_back();
  EXPECT_THROW(derive_families(inst, tree, results), ContractViolation);
}

}  // namespace
}  // namespace kstable::core
