// Quickstart: the paper's running tripartite example, end to end.
//
// Builds the Fig. 1/Fig. 3 instance (men, women, undecided; two members
// each), runs the Iterative Binding GS algorithm (Algorithm 1) over the
// binding tree M-W, W-U, prints the resulting stable ternary families, and
// verifies stability with the exact blocking-family search.
//
// Run: ./quickstart

#include <iostream>

#include "analysis/metrics.hpp"
#include "analysis/stability.hpp"
#include "core/binding.hpp"
#include "graph/binding_structure.hpp"
#include "prefs/examples.hpp"
#include "prefs/kpartite.hpp"

int main() {
  using namespace kstable;

  // The Fig. 3 preference lists (see prefs/examples.cpp for the exact values
  // stated in the paper's text).
  const KPartiteInstance inst = examples::fig3_instance();
  std::cout << "Instance: k = " << inst.genders()
            << " genders, n = " << inst.per_gender() << " members each\n\n";

  const char* gender_name[] = {"man", "woman", "undecided"};
  for (Gender g = 0; g < 3; ++g) {
    for (Index i = 0; i < 2; ++i) {
      const MemberId m{g, i};
      std::cout << gender_name[g] << ' ' << m << " prefers:";
      for (Gender h = 0; h < 3; ++h) {
        if (h == g) continue;
        std::cout << "  [" << gender_name[h] << ':';
        for (const Index idx : inst.pref_list(m, h)) {
          std::cout << ' ' << MemberId{h, idx};
        }
        std::cout << ']';
      }
      std::cout << '\n';
    }
  }

  // Algorithm 1: bind M-W then W-U (a spanning tree on the gender set).
  BindingStructure tree(3);
  tree.add_edge({examples::kMen, examples::kWomen});
  tree.add_edge({examples::kWomen, examples::kUndecided});
  const core::BindingResult result = core::iterative_binding(inst, tree);

  std::cout << "\nBinding tree: M-W, W-U   ("
            << result.total_proposals << " accumulated proposals, bound "
            << (3 - 1) * 2 * 2 << " by Theorem 3)\n";
  std::cout << "Stable ternary families:\n";
  const KaryMatching& matching = result.matching();
  for (Index t = 0; t < matching.family_count(); ++t) {
    std::cout << "  (";
    for (Gender g = 0; g < 3; ++g) {
      std::cout << (g ? ", " : "") << matching.member_at(t, g);
    }
    std::cout << ")\n";
  }

  // Theorem 2 says this cannot find anything — check anyway.
  const auto blocking = analysis::find_blocking_family(inst, matching);
  std::cout << "\nBlocking family search: "
            << (blocking ? "FOUND (bug!)" : "none — matching is stable")
            << '\n';

  const auto costs = analysis::kary_costs(inst, matching);
  std::cout << "Total family cost (sum of partner ranks): " << costs.total_cost
            << ", worst rank anyone accepted: " << costs.regret << '\n';
  return blocking ? 1 : 0;
}
