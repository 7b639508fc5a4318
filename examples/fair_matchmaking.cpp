// Fair matchmaking (paper §III.B): solving the stable marriage problem with
// the stable-roommates machinery to address GS's gender unfairness.
//
// 1. Reproduces the Fig. 2 deadlock and shows how breaking each loop yields
//    the man-optimal or woman-optimal matching.
// 2. On random instances, compares men-proposing GS, women-proposing GS, and
//    the roommates-based solver under man/woman/alternating rotation
//    policies, reporting the egalitarian and sex-equality costs.
//
// Run: ./fair_matchmaking [n] [seed]

#include <cstdlib>
#include <iostream>
#include <limits>

#include "analysis/metrics.hpp"
#include "example_args.hpp"
#include "gs/gale_shapley.hpp"
#include "prefs/examples.hpp"
#include "prefs/generators.hpp"
#include "roommates/adapters.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

namespace {

using namespace kstable;

int usage() {
  std::cerr << "usage: fair_matchmaking [n>=1] [seed]\n";
  return 2;
}

void fig2_demo() {
  std::cout << "--- Fig. 2 deadlock: m->w, w->m', m'->w', w'->m ---\n";
  const KPartiteInstance inst = examples::example1_second();
  const char* names[] = {"man-oriented ", "woman-oriented", "alternate     "};
  const rm::FairPolicy policies[] = {rm::FairPolicy::man_oriented,
                                     rm::FairPolicy::woman_oriented,
                                     rm::FairPolicy::alternate};
  for (int p = 0; p < 3; ++p) {
    const auto fair = rm::solve_fair_smp(inst, examples::kMen,
                                         examples::kWomen, policies[p]);
    std::cout << names[p] << " loop breaking:  ";
    for (Index m = 0; m < 2; ++m) {
      std::cout << "(a" << m << ", b" << fair.man_match[static_cast<std::size_t>(m)]
                << ") ";
    }
    std::cout << '\n';
  }
  std::cout << '\n';
}

void comparison(Index n, std::uint64_t seed) {
  Rng rng(seed);
  TableWriter table("GS vs roommates-based fair SMP (n=" + std::to_string(n) +
                        ", averaged over 20 instances)",
                    {"solver", "men cost", "women cost", "egalitarian",
                     "sex-equality"});
  const int trials = 20;
  struct Sums {
    double men = 0, women = 0, egal = 0, eq = 0;
  };
  Sums gs_men, gs_women, fair_man, fair_woman, fair_alt;

  auto add = [](Sums& s, const analysis::BipartiteCosts& c) {
    s.men += static_cast<double>(c.proposer_cost);
    s.women += static_cast<double>(c.responder_cost);
    s.egal += static_cast<double>(c.egalitarian());
    s.eq += static_cast<double>(c.sex_equality());
  };

  for (int trial = 0; trial < trials; ++trial) {
    const auto inst = gen::uniform(2, n, rng);
    // Men-proposing GS.
    const auto men_gs = gs::gale_shapley_queue(inst, 0, 1);
    add(gs_men, analysis::bipartite_costs(inst, 0, 1, men_gs.proposer_match));
    // Women-proposing GS (costs still reported men-first for comparability).
    const auto women_gs = gs::gale_shapley_queue(inst, 1, 0);
    std::vector<Index> man_view(static_cast<std::size_t>(n));
    for (Index w = 0; w < n; ++w) {
      man_view[static_cast<std::size_t>(
          women_gs.proposer_match[static_cast<std::size_t>(w)])] = w;
    }
    add(gs_women, analysis::bipartite_costs(inst, 0, 1, man_view));
    // Roommates-based fair solvers.
    for (const auto& [policy, sums] :
         {std::pair{rm::FairPolicy::man_oriented, &fair_man},
          std::pair{rm::FairPolicy::woman_oriented, &fair_woman},
          std::pair{rm::FairPolicy::alternate, &fair_alt}}) {
      const auto fair = rm::solve_fair_smp(inst, 0, 1, policy);
      add(*sums, analysis::bipartite_costs(inst, 0, 1, fair.man_match));
    }
  }

  auto row = [&](const char* name, const Sums& s) {
    table.add_row({std::string(name), s.men / trials, s.women / trials,
                   s.egal / trials, s.eq / trials});
  };
  row("GS (men propose)", gs_men);
  row("GS (women propose)", gs_women);
  row("roommates man-oriented", fair_man);
  row("roommates woman-oriented", fair_woman);
  row("roommates alternate", fair_alt);
  table.print(std::cout);
  std::cout << "Lower sex-equality = fairer. The alternate policy sits "
               "between the two one-sided optima.\n";
}

}  // namespace

int main(int argc, char** argv) {
  using examples_cli::parse_arg;
  if (argc > 3) return usage();
  const auto n_arg = argc > 1
      ? parse_arg<Index>(argv[1], 1, std::numeric_limits<Index>::max(), "n")
      : std::optional<Index>{64};
  const auto seed_arg = argc > 2
      ? parse_arg<std::uint64_t>(argv[2], 0,
                                 std::numeric_limits<std::uint64_t>::max(),
                                 "seed")
      : std::optional<std::uint64_t>{42};
  if (!n_arg || !seed_arg) return usage();
  fig2_demo();
  comparison(*n_arg, *seed_arg);
  return 0;
}
