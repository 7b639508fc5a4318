#include "core/priority_binding.hpp"

#include <algorithm>
#include <numeric>

#include "graph/scheduling.hpp"
#include "observability/telemetry.hpp"
#include "util/check.hpp"
#include "util/timer.hpp"

namespace kstable::core {

namespace {

std::vector<std::int32_t> effective_priority(Gender k,
                                             const std::vector<std::int32_t>& in) {
  if (in.empty()) {
    std::vector<std::int32_t> identity(static_cast<std::size_t>(k));
    std::iota(identity.begin(), identity.end(), 0);
    return identity;
  }
  KSTABLE_REQUIRE(in.size() == static_cast<std::size_t>(k),
                  "priority vector has " << in.size() << " entries for k=" << k);
  auto sorted = in;
  std::sort(sorted.begin(), sorted.end());
  KSTABLE_REQUIRE(std::adjacent_find(sorted.begin(), sorted.end()) ==
                      sorted.end(),
                  "gender priorities must be distinct");
  return in;
}

/// Genders sorted by decreasing priority.
std::vector<Gender> priority_order(const std::vector<std::int32_t>& priority) {
  std::vector<Gender> order(priority.size());
  std::iota(order.begin(), order.end(), Gender{0});
  std::sort(order.begin(), order.end(), [&priority](Gender a, Gender b) {
    return priority[static_cast<std::size_t>(a)] >
           priority[static_cast<std::size_t>(b)];
  });
  return order;
}

}  // namespace

PriorityBindingResult priority_binding(const KPartiteInstance& inst,
                                       const PriorityBindingOptions& options) {
  const WallTimer timer;
  const Gender k = inst.genders();
  const auto priority = effective_priority(k, options.priority);
  const auto order = priority_order(priority);

  // Attach each gender, in decreasing priority, to imax = order.front().
  // Orientation: the newly attached (lower-priority) gender proposes, so the
  // higher-priority side keeps the responder's trade-up advantage.
  BindingStructure tree(k);
  for (std::size_t step = 1; step < order.size(); ++step) {
    tree.add_edge({order[step], order.front()});
  }
  KSTABLE_ENSURE(sched::is_bitonic_tree(tree, priority),
                 "Algorithm 2 grew a non-bitonic tree");

  const double grow_ms = timer.millis();
  PriorityBindingResult result{iterative_binding(inst, tree, options.binding),
                               tree, order};
  // Re-label the binding telemetry as an Algorithm 2 solve and account the
  // bitonic tree-growing phase; the inner iterative_binding already recorded
  // its own per-engine aggregates.
  obs::SolveTelemetry& t = result.binding.telemetry;
  t.engine = "binding.priority";
  t.wall_ms = timer.millis();
  t.phase_count = 0;
  t.add_phase("grow-tree", grow_ms);
  t.add_phase("bind", t.wall_ms - grow_ms);
  obs::record(t);
  return result;
}

void for_each_priority_tree(
    Gender k, const std::vector<std::int32_t>& priority,
    const std::function<void(const BindingStructure&)>& visit) {
  const auto prio = effective_priority(k, priority);
  const auto order = priority_order(prio);
  // choice[step] selects which of the `step` bound genders hosts the next
  // gender; odometer over the mixed-radix space (1 x 2 x ... x (k-1)).
  std::vector<std::size_t> choice(static_cast<std::size_t>(k > 0 ? k - 1 : 0), 0);
  for (;;) {
    BindingStructure tree(k);
    std::vector<Gender> bound{order.front()};
    for (std::size_t step = 1; step < order.size(); ++step) {
      const Gender host = bound[choice[step - 1]];
      tree.add_edge({order[step], host});
      bound.push_back(order[step]);
    }
    visit(tree);
    // Increment the mixed-radix odometer; digit `step-1` has radix `step`.
    std::size_t pos = 0;
    for (; pos < choice.size(); ++pos) {
      if (++choice[pos] <= pos) break;  // radix of digit pos is pos+1
      choice[pos] = 0;
    }
    if (pos == choice.size()) break;
  }
}

std::int64_t priority_tree_count(Gender k) {
  KSTABLE_REQUIRE(k >= 1, "priority_tree_count needs k >= 1");
  std::int64_t count = 1;
  for (Gender i = 1; i < k; ++i) count *= i;
  return count;
}

}  // namespace kstable::core
