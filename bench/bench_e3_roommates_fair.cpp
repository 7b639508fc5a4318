// E3 — §III.B / Fig. 2: searching for stable and fair binary matchings with
// the stable-roommates machinery.
//
// Paper claims regenerated:
//  * the left-hand §III.B instance reduces to the matching
//    (m, u'), (m', w), (w', u);
//  * the right-hand instance empties u's reduced list — no stable matching;
//  * on the Fig. 2 deadlock, breaking the man-side loop yields the
//    woman-optimal matching and vice versa; alternating man/woman-oriented
//    loop breaking gives procedural fairness (lower sex-equality cost than
//    either one-sided GS outcome, measured on random instances).

#include "bench_common.hpp"

#include "analysis/metrics.hpp"
#include "gs/gale_shapley.hpp"
#include "prefs/generators.hpp"
#include "roommates/adapters.hpp"
#include "roommates/examples.hpp"
#include "roommates/solver.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

namespace {

using namespace kstable;

const char* person_name(rm::Person p) {
  static const char* names[] = {"m", "m'", "w", "w'", "u", "u'"};
  return names[p];
}

void report() {
  std::cout << "E3: roommates-based binary matching and fair SMP (§III.B)\n\n";

  {
    const auto left = rm::examples::sec3b_left();
    const auto result = rm::solve(left);
    std::cout << "Left-hand instance: ";
    if (result.has_stable) {
      for (rm::Person p = 0; p < 6; ++p) {
        if (result.match[static_cast<std::size_t>(p)] > p) {
          std::cout << '(' << person_name(p) << ", "
                    << person_name(result.match[static_cast<std::size_t>(p)])
                    << ") ";
        }
      }
      std::cout << "  [paper: (m, u'), (m', w), (w', u)]\n";
    } else {
      std::cout << "NO STABLE MATCHING (paper disagrees — bug!)\n";
    }
  }
  {
    const auto right = rm::examples::sec3b_right();
    const auto result = rm::solve(right);
    std::cout << "Right-hand instance: "
              << (result.has_stable ? "stable found (paper disagrees — bug!)"
                                    : "no stable matching")
              << "  [paper: u's reduced list empties -> none]\n";
    if (!result.has_stable) {
      std::cout << "  person with emptied list: "
                << person_name(result.failed_person) << '\n';
    }
  }
  std::cout << '\n';

  TableWriter fairness(
      "Procedural fairness on random SMP instances (n=64, 20 seeds)",
      {"policy", "men cost", "women cost", "sex-equality"});
  Rng rng(21);
  const Index n = 64;
  const int trials = 20;
  double men_m = 0, men_w = 0, men_eq = 0;
  double wom_m = 0, wom_w = 0, wom_eq = 0;
  double alt_m = 0, alt_w = 0, alt_eq = 0;
  for (int t = 0; t < trials; ++t) {
    const auto inst = gen::uniform(2, n, rng);
    const auto man = rm::solve_fair_smp(inst, 0, 1, rm::FairPolicy::man_oriented);
    const auto cm = analysis::bipartite_costs(inst, 0, 1, man.man_match);
    men_m += cm.proposer_cost;
    men_w += cm.responder_cost;
    men_eq += cm.sex_equality();
    const auto woman =
        rm::solve_fair_smp(inst, 0, 1, rm::FairPolicy::woman_oriented);
    const auto cw = analysis::bipartite_costs(inst, 0, 1, woman.man_match);
    wom_m += cw.proposer_cost;
    wom_w += cw.responder_cost;
    wom_eq += cw.sex_equality();
    const auto alt = rm::solve_fair_smp(inst, 0, 1, rm::FairPolicy::alternate);
    const auto ca = analysis::bipartite_costs(inst, 0, 1, alt.man_match);
    alt_m += ca.proposer_cost;
    alt_w += ca.responder_cost;
    alt_eq += ca.sex_equality();
  }
  fairness.add_row({std::string("man-oriented (= men-proposing GS)"),
                    men_m / trials, men_w / trials, men_eq / trials});
  fairness.add_row({std::string("woman-oriented (= women-proposing GS)"),
                    wom_m / trials, wom_w / trials, wom_eq / trials});
  fairness.add_row({std::string("alternate (procedural fairness)"),
                    alt_m / trials, alt_w / trials, alt_eq / trials});
  fairness.print(std::cout);
}

void bm_solve_examples(benchmark::State& state) {
  const auto inst = rm::examples::sec3b_left();
  for (auto _ : state) {
    const auto result = rm::solve(inst);
    benchmark::DoNotOptimize(result.has_stable);
  }
}
BENCHMARK(bm_solve_examples);

void bm_fair_smp(benchmark::State& state) {
  const auto n = static_cast<Index>(state.range(0));
  Rng rng(23);
  const auto inst = gen::uniform(2, n, rng);
  for (auto _ : state) {
    const auto result = rm::solve_fair_smp(inst, 0, 1, rm::FairPolicy::alternate);
    benchmark::DoNotOptimize(result.man_match.data());
  }
}
BENCHMARK(bm_fair_smp)->RangeMultiplier(4)->Range(16, 1024);

void bm_plain_gs_for_contrast(benchmark::State& state) {
  const auto n = static_cast<Index>(state.range(0));
  Rng rng(23);
  const auto inst = gen::uniform(2, n, rng);
  for (auto _ : state) {
    const auto result = gs::gale_shapley_queue(inst, 0, 1);
    benchmark::DoNotOptimize(result.proposals);
  }
}
BENCHMARK(bm_plain_gs_for_contrast)->RangeMultiplier(4)->Range(16, 1024);

}  // namespace

KSTABLE_BENCH_MAIN(report)
