// Coalition formation across many specialist pools (paper §VII future work:
// k-ary matching in k'-partite graphs with ck = nk').
//
// Scenario: a project marketplace has six specialist pools — product,
// design, frontend, backend, data, ops — and wants to form three-person
// project cells, each drawing one member from a pair of pools (product+design,
// frontend+backend, data+ops). That is exactly a k' = 6 -> k = 3 super-gender
// decomposition: each cell takes one member per super-gender, members rank
// the merged pools through a linearization, and Algorithm 1 on the derived
// 3-partite instance yields provably stable cells.
//
// Run: ./coalition_formation [n] [seed]

#include <cstdlib>
#include <iostream>
#include <limits>

#include "analysis/stability.hpp"
#include "core/supergender.hpp"
#include "example_args.hpp"
#include "prefs/generators.hpp"
#include "util/rng.hpp"

namespace {
int usage() {
  std::cerr << "usage: coalition_formation [n>=1] [seed]\n";
  return 2;
}
}  // namespace

int main(int argc, char** argv) {
  using namespace kstable;
  using examples_cli::parse_arg;
  if (argc > 3) return usage();
  const auto n_arg = argc > 1
      ? parse_arg<Index>(argv[1], 1, std::numeric_limits<Index>::max(), "n")
      : std::optional<Index>{8};
  const auto seed_arg = argc > 2
      ? parse_arg<std::uint64_t>(argv[2], 0,
                                 std::numeric_limits<std::uint64_t>::max(),
                                 "seed")
      : std::optional<std::uint64_t>{13};
  if (!n_arg || !seed_arg) return usage();
  const Index n = *n_arg;
  const std::uint64_t seed = *seed_arg;

  const char* pool_names[] = {"product", "design", "frontend",
                              "backend", "data",   "ops"};
  Rng rng(seed);
  const auto market = gen::popularity(6, n, rng, 0.7);

  const auto partition = core::SupergenderPartition::contiguous(6, 2);
  std::cout << "Pools per cell slot:\n";
  for (std::size_t G = 0; G < partition.groups.size(); ++G) {
    std::cout << "  slot " << G << ": ";
    for (std::size_t i = 0; i < partition.groups[G].size(); ++i) {
      std::cout << (i ? " + " : "")
                << pool_names[partition.groups[G][i]];
    }
    std::cout << '\n';
  }

  const auto result = core::coalition_binding(
      market, partition, rm::Linearization::round_robin);
  std::cout << "\nFormed " << result.coalitions.size()
            << " three-person cells from " << 6 * n << " specialists ("
            << result.binding.total_proposals << " proposals).\n\n";

  for (std::size_t t = 0; t < std::min<std::size_t>(5, result.coalitions.size());
       ++t) {
    std::cout << "cell " << t << ": ";
    for (std::size_t s = 0; s < result.coalitions[t].members.size(); ++s) {
      const MemberId m = result.coalitions[t].members[s];
      std::cout << (s ? ", " : "") << pool_names[m.gender] << '#' << m.index;
    }
    std::cout << '\n';
  }

  // Stability w.r.t. the derived (linearized) preferences — Theorem 2.
  const bool blocked =
      analysis::find_blocking_family_pairs(result.system.derived,
                                           result.binding.matching(),
                                           analysis::BlockingMode::strict)
          .has_value();
  std::cout << "\nNo cell pair can profitably re-form: "
            << (blocked ? "FALSE (bug!)" : "true (stable coalitions)") << '\n';
  return blocked ? 1 : 0;
}
