// k-parent family formation (paper §IV.A's "futuristic family with k-parent,
// one from each of the k different genders in a society with k genders").
//
// Simulates a society of k genders with popularity-correlated preferences,
// forms stable k-parent families with the Iterative Binding GS algorithm
// (and the priority-aware variant of §IV.D), and reports how the binding
// tree's shape affects family quality and the parallel matching schedule.
//
// Run: ./society_kparent [k] [n] [seed]

#include <cstdlib>
#include <iostream>
#include <limits>

#include "analysis/metrics.hpp"
#include "analysis/stability.hpp"
#include "core/parallel_binding.hpp"
#include "core/priority_binding.hpp"
#include "example_args.hpp"
#include "graph/binding_structure.hpp"
#include "graph/prufer.hpp"
#include "graph/scheduling.hpp"
#include "parallel/thread_pool.hpp"
#include "prefs/generators.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

namespace {

using namespace kstable;

int usage() {
  std::cerr << "usage: society_kparent [k>=2] [n>=1] [seed]\n";
  return 2;
}

void report_tree(const KPartiteInstance& inst, const std::string& label,
                 const BindingStructure& tree, ThreadPool& pool,
                 TableWriter& table) {
  const auto report =
      core::execute_binding(inst, tree, core::ExecutionMode::erew_rounds, pool);
  const auto costs = analysis::kary_costs(inst, report.binding.matching());
  const auto bound = analysis::kary_tree_costs(inst, report.binding.matching(),
                                               tree);
  table.add_row({label, std::int64_t{tree.max_degree()},
                 report.rounds_executed, report.binding.total_proposals,
                 bound.total_cost, costs.total_cost,
                 std::int64_t{costs.regret}});
}

}  // namespace

int main(int argc, char** argv) {
  using examples_cli::parse_arg;
  if (argc > 4) return usage();
  const auto k_arg = argc > 1
      ? parse_arg<Gender>(argv[1], 2, std::numeric_limits<Gender>::max(), "k")
      : std::optional<Gender>{6};
  const auto n_arg = argc > 2
      ? parse_arg<Index>(argv[2], 1, std::numeric_limits<Index>::max(), "n")
      : std::optional<Index>{128};
  const auto seed_arg = argc > 3
      ? parse_arg<std::uint64_t>(argv[3], 0,
                                 std::numeric_limits<std::uint64_t>::max(),
                                 "seed")
      : std::optional<std::uint64_t>{7};
  if (!k_arg || !n_arg || !seed_arg) return usage();
  const Gender k = *k_arg;
  const Index n = *n_arg;
  const std::uint64_t seed = *seed_arg;

  Rng rng(seed);
  std::cout << "Society: " << k << " genders x " << n << " members, "
            << "popularity-correlated preferences (noise 0.5)\n\n";
  const auto inst = gen::popularity(k, n, rng, 0.5);
  ThreadPool pool;

  TableWriter table("k-parent family formation across binding trees",
                    {"binding tree", "max degree", "EREW rounds",
                     "proposals", "bound-pair cost", "all-pairs cost",
                     "worst rank"});
  report_tree(inst, "path (Fig. 4 even-odd)", trees::path(k), pool, table);
  report_tree(inst, "star at gender 0", trees::star(k, 0), pool, table);
  report_tree(inst, "star at top priority", trees::star(k, k - 1), pool, table);
  Rng tree_rng(seed + 1);
  report_tree(inst, "random tree", prufer::random_tree(k, tree_rng), pool,
              table);
  table.print(std::cout);

  // Priority-aware formation (§IV.D): society ranks genders by id; the grown
  // tree is bitonic and the result resists weakened blocking families.
  const auto priority = core::priority_binding(inst);
  std::cout << "Priority-based binding (Algorithm 2) grew a tree with max "
               "degree "
            << priority.tree.degree(k - 1) << " rooted at gender "
            << (k - 1) << "; bitonic: "
            << (sched::is_bitonic_tree(priority.tree) ? "yes" : "no") << "\n";

  // Spot-check stability the way a downstream user would: polynomial
  // two-family screen plus randomized probes.
  Rng probe(seed + 2);
  const bool blocked =
      analysis::find_blocking_family_pairs(inst, priority.binding.matching(),
                                           analysis::BlockingMode::strict)
          .has_value() ||
      analysis::find_blocking_family_sampled(inst, priority.binding.matching(),
                                             probe, 20000)
          .has_value();
  std::cout << "Stability probe on the k-parent matching: "
            << (blocked ? "BLOCKED (bug!)" : "no blocking family found")
            << '\n';

  // Show three example families.
  std::cout << "\nSample families (one parent per gender):\n";
  for (Index t = 0; t < std::min<Index>(3, n); ++t) {
    std::cout << "  family " << t << ": ";
    for (Gender g = 0; g < k; ++g) {
      std::cout << (g ? ", " : "") << priority.binding.matching().member_at(t, g);
    }
    std::cout << '\n';
  }
  return blocked ? 1 : 0;
}
