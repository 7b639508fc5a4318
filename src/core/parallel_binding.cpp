#include "core/parallel_binding.hpp"

#include <vector>

#include "graph/scheduling.hpp"
#include "observability/metrics.hpp"
#include "resilience/fault_injection.hpp"
#include "util/check.hpp"

namespace kstable::core {

ParallelBindingReport execute_binding(const KPartiteInstance& inst,
                                      const BindingStructure& tree,
                                      ExecutionMode mode, ThreadPool& pool,
                                      resilience::ExecControl* control) {
  KSTABLE_REQUIRE(tree.is_forest(),
                  "parallel binding requires an acyclic structure");
  const WallTimer timer;
  const auto& edges = tree.edges();
  ParallelBindingReport report;
  BindingResult& binding = report.binding;
  binding.edge_results.resize(edges.size());
  BindingOptions options;
  options.control = control;
  const auto step = [&](std::size_t e) {
    bind_edge(inst, edges[e], options, binding.edge_results[e], binding);
  };

  switch (mode) {
    case ExecutionMode::sequential: {
      for (std::size_t e = 0; e < edges.size(); ++e) {
        KSTABLE_FAULT_POINT("core/parallel_round");
        if (control != nullptr) control->check_now();
        step(e);
      }
      report.rounds_executed = static_cast<std::int64_t>(edges.size());
      break;
    }
    case ExecutionMode::erew_rounds: {
      const auto schedule = sched::color_forest(tree);
      for (const auto& round : schedule.rounds) {
        // Per-round barrier checkpoint: a deadline or injected fault stops
        // the executor between rounds, with no tasks in flight.
        KSTABLE_FAULT_POINT("core/parallel_round");
        if (control != nullptr) control->check_now();
        pool.for_each_index(round.size(),
                            [&](std::size_t slot) { step(round[slot]); });
      }
      report.rounds_executed =
          static_cast<std::int64_t>(schedule.round_count());
      break;
    }
    case ExecutionMode::crew_full: {
      KSTABLE_FAULT_POINT("core/parallel_round");
      if (control != nullptr) control->check_now();
      pool.for_each_index(edges.size(), step);
      report.rounds_executed = edges.empty() ? 0 : 1;
      break;
    }
  }

  const char* label = mode == ExecutionMode::sequential ? "parallel.sequential"
                      : mode == ExecutionMode::erew_rounds ? "parallel.erew"
                                                           : "parallel.crew";
  finish_binding(binding, inst, tree, options, label, "rounds", timer);
  KSTABLE_ENSURE(!tree.is_spanning_tree() || binding.equivalence.consistent,
                 "spanning-tree parallel binding produced inconsistent classes");

  const pram::Model model = mode == ExecutionMode::crew_full
                                ? pram::Model::crew
                                : pram::Model::erew;
  std::vector<std::int64_t> edge_proposals;
  edge_proposals.reserve(edges.size());
  for (const auto& r : binding.edge_results) {
    edge_proposals.push_back(r.proposals);
  }
  report.cost = pram::charge(tree, edge_proposals, model, inst.per_gender());

  binding.telemetry.rounds = report.rounds_executed;
  obs::record(binding.telemetry);
  KSTABLE_COUNTER_ADD("parallel.rounds", report.rounds_executed);
  return report;
}

}  // namespace kstable::core
