// Harvester-ant reproduction (paper §V.B): "certain harvester ants have three
// genders... the queen needs to mate with two different strains of male for
// future queens and future workers."
//
// Models a colony season as a balanced tripartite matching problem — queens,
// strain-A males, strain-B males — where each queen must be matched with one
// male of each strain (a 3-ary family). Shows:
//   * stable ternary matchings always exist (Theorem 2) and are found by
//     Algorithm 1 with the queen gender as the binding hub;
//   * plain binary pairing is NOT guaranteed stable in this 3-gender world:
//     the Theorem 1 adversarial season has a perfect pairing but no stable
//     one.
//
// Run: ./ant_colony [colonies] [seed]

#include <cstdlib>
#include <iostream>
#include <limits>

#include "analysis/metrics.hpp"
#include "analysis/stability.hpp"
#include "core/binding.hpp"
#include "core/existence.hpp"
#include "example_args.hpp"
#include "graph/binding_structure.hpp"
#include "prefs/generators.hpp"
#include "roommates/solver.hpp"
#include "util/rng.hpp"

namespace {
int usage() {
  std::cerr << "usage: ant_colony [colonies>=1] [seed]\n";
  return 2;
}
}  // namespace

int main(int argc, char** argv) {
  using namespace kstable;
  using examples_cli::parse_arg;
  if (argc > 3) return usage();
  const auto n_arg = argc > 1
      ? parse_arg<Index>(argv[1], 1, std::numeric_limits<Index>::max(),
                         "colonies")
      : std::optional<Index>{32};
  const auto seed_arg = argc > 2
      ? parse_arg<std::uint64_t>(argv[2], 0,
                                 std::numeric_limits<std::uint64_t>::max(),
                                 "seed")
      : std::optional<std::uint64_t>{2016};
  if (!n_arg || !seed_arg) return usage();
  const Index n = *n_arg;
  const std::uint64_t seed = *seed_arg;

  constexpr Gender kQueens = 0, kStrainA = 1, kStrainB = 2;
  Rng rng(seed);
  std::cout << "Colony season: " << n << " queens, " << n
            << " strain-A males, " << n << " strain-B males\n\n";

  // Preferences: queens judge males by vigor (popularity-correlated); males
  // judge queens likewise; the two male strains rank each other randomly
  // (they never mate, but the model keeps lists complete).
  const auto season = gen::popularity(3, n, rng, 0.8);

  // Mating plan: star binding with the queen gender at the hub — each queen
  // is bound to one male of each strain, exactly the two-strain requirement.
  const auto tree = trees::star(3, kQueens);
  const auto plan = core::iterative_binding(season, tree);
  std::cout << "Algorithm 1 (queen-hub star) used " << plan.total_proposals
            << " proposals for " << n << " broods.\n";

  const auto costs = analysis::kary_tree_costs(season, plan.matching(), tree);
  std::cout << "Queen satisfaction cost (ranks of her two mates, summed over "
               "colonies): "
            << costs.per_gender_cost[kQueens] << '\n';

  std::cout << "\nFirst three broods (queen, strain-A mate, strain-B mate):\n";
  for (Index t = 0; t < std::min<Index>(3, n); ++t) {
    std::cout << "  brood " << t << ": " << plan.matching().member_at(t, kQueens)
              << " + " << plan.matching().member_at(t, kStrainA) << " + "
              << plan.matching().member_at(t, kStrainB) << '\n';
  }

  const auto blocking = analysis::find_blocking_family_pairs(
      season, plan.matching(), analysis::BlockingMode::strict);
  std::cout << "\nStable against defecting broods: "
            << (blocking ? "NO (bug!)" : "yes (Theorem 2)") << '\n';

  // Contrast: binary (one-mate) pairing in the same 3-gender world can be
  // made unstable by adversarial preferences (Theorem 1).
  Rng adv_rng(seed + 1);
  const Index adv_n = (n % 2 == 0) ? n : n + 1;  // even node count needed
  const auto adversarial =
      core::theorem1_adversarial_roommates(3, adv_n, adv_rng);
  const auto binary = rm::solve(adversarial);
  std::cout << "Theorem 1 control (single-mate pairing, adversarial season): "
            << (binary.has_stable
                    ? "unexpectedly stable (bug!)"
                    : "no stable pairing exists — k-ary matching is the fix")
            << '\n';
  return (blocking || binary.has_stable) ? 1 : 0;
}
