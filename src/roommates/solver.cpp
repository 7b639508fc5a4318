#include "roommates/solver.hpp"

#include <algorithm>
#include <span>

#include "resilience/fault_injection.hpp"
#include "util/check.hpp"
#include "observability/metrics.hpp"
#include "util/timer.hpp"

namespace kstable::rm {

namespace {

/// Phase 2 driver. Returns false iff a list empties (no stable matching).
bool run_phase2(ReductionTable& table, const SolveOptions& options,
                RoommatesResult& result) {
  const Person n = table.instance().size();

  // Retained chain stack: after eliminating a rotation, the chain's tail is
  // still a valid prefix for the next search (Gusfield & Irving's
  // amortization). A custom pick_start disables it, since the caller decides
  // where each search begins.
  std::vector<Person> chain;
  std::vector<char> on_chain(static_cast<std::size_t>(n), 0);
  Person scan = 0;  // rising scan pointer for default start selection

  auto reset_chain = [&] {
    for (const Person p : chain) on_chain[static_cast<std::size_t>(p)] = 0;
    chain.clear();
  };

  for (;;) {
    // Drop chain entries that no longer have >= 2 active entries.
    while (!chain.empty() && table.list_size(chain.back()) < 2) {
      on_chain[static_cast<std::size_t>(chain.back())] = 0;
      chain.pop_back();
    }

    if (chain.empty()) {
      Person start = -1;
      if (options.pick_start) {
        start = options.pick_start(table);
        KSTABLE_REQUIRE(start == -1 || (start >= 0 && start < n &&
                                        table.list_size(start) >= 2),
                        "pick_start returned invalid person " << start);
      }
      if (start == -1) {
        while (scan < n && table.list_size(scan) < 2) ++scan;
        if (scan == n) {
          // Re-scan once in case eliminations re-widened nothing but the scan
          // pointer already passed persons that later shrank — sizes only
          // shrink, so a completed scan is final.
          break;  // all lists are singletons (or empty — caught by caller)
        }
        start = scan;
      }
      chain.push_back(start);
      on_chain[static_cast<std::size_t>(start)] = 1;
    }

    // Extend the chain x -> last(second(x)) until a person repeats.
    Person repeat = -1;
    for (;;) {
      if (options.control != nullptr) options.control->charge();
      const Person tail = chain.back();
      const Person via = table.second(tail);
      KSTABLE_ASSERT(via >= 0);
      const Person next = table.last(via);
      KSTABLE_ASSERT(next >= 0);
      if (on_chain[static_cast<std::size_t>(next)] != 0) {
        repeat = next;
        break;
      }
      KSTABLE_ASSERT(table.list_size(next) >= 2);
      chain.push_back(next);
      on_chain[static_cast<std::size_t>(next)] = 1;
    }

    // The cycle runs from the first occurrence of `repeat` to the chain tail.
    KSTABLE_FAULT_POINT("rm/rotation");
    if (options.control != nullptr) options.control->check_now();
    const auto cycle_begin = static_cast<std::size_t>(
        std::find(chain.begin(), chain.end(), repeat) - chain.begin());
    // The rotation's x_i; y_i = first(x_i), y_{i+1} = second(x_i).
    const std::span<const Person> x =
        std::span<const Person>(chain).subspan(cycle_begin);

    // Capture each x_i's second choice before mutating the table, then
    // eliminate: y_{i+1} (= second(x_i)) accepts x_i and deletes everyone it
    // ranks below x_i. This also removes every pair (x_i, first(x_i)).
    // Truncation is by original rank: eliminations cascade, and an earlier
    // truncation may already have deleted the pair (second(x_j), x_j) itself
    // (which is exactly how unsolvable instances empty a list).
    std::vector<Person> seconds(x.size());
    for (std::size_t i = 0; i < x.size(); ++i) {
      seconds[i] = table.second(x[i]);
      KSTABLE_ASSERT(seconds[i] >= 0);
    }
    for (std::size_t i = 0; i < x.size(); ++i) {
      table.truncate_worse_than(seconds[i],
                                table.instance().rank_of(seconds[i], x[i]));
    }
    ++result.rotations_eliminated;

    // Remove the cycle from the chain (tail prefix is retained).
    while (chain.size() > cycle_begin) {
      on_chain[static_cast<std::size_t>(chain.back())] = 0;
      chain.pop_back();
    }
    if (options.pick_start) reset_chain();

    for (Person p = 0; p < n; ++p) {
      if (table.empty(p)) {
        result.failed_person = p;
        return false;
      }
    }
  }
  return true;
}

}  // namespace

bool run_phase1(ReductionTable& table, std::int64_t& proposals,
                Person& failed_person, resilience::ExecControl* control) {
  const RoommatesInstance& inst = table.instance();
  const Person n = inst.size();

  // holder[q] = proposer whose proposal q currently holds (-1: none).
  std::vector<Person> holder(static_cast<std::size_t>(n), -1);

  for (Person seed = 0; seed < n; ++seed) {
    Person x = seed;
    // `x` keeps proposing until some y holds x (possibly displacing a prior
    // holder, who then takes over the proposer role).
    for (;;) {
      if (table.empty(x)) {
        failed_person = x;
        return false;
      }
      const Person y = table.first(x);
      ++proposals;
      if (control != nullptr) control->charge();
      const Person z = holder[static_cast<std::size_t>(y)];
      if (z == -1) {
        holder[static_cast<std::size_t>(y)] = x;
        break;
      }
      if (z == x) break;  // already holding (x re-proposed after reduction)
      if (inst.prefers(y, x, z)) {
        holder[static_cast<std::size_t>(y)] = x;   // y trades up
        table.delete_pair(y, z);                   // y rejects z...
        x = z;                                     // ...who proposes onward
      } else {
        table.delete_pair(y, x);                   // y rejects x outright
      }
    }
  }

  // Pruning: y holding a proposal from x will never need anyone below x.
  for (Person y = 0; y < n; ++y) {
    const Person x = holder[static_cast<std::size_t>(y)];
    if (x >= 0) table.truncate_after(y, x);
  }
  for (Person p = 0; p < n; ++p) {
    if (table.empty(p)) {
      failed_person = p;
      return false;
    }
  }
  KSTABLE_ENSURE(table.check_phase1_invariant(),
                 "phase 1 postcondition violated: first/last symmetry");
  return true;
}

namespace {

/// Fills the structured completion record and telemetry from the classic
/// result fields. `phase1_ms` is the wall time at the phase-1/phase-2
/// boundary (the rest of the solve is phase 2 + extraction).
void finish_status(RoommatesResult& result, const WallTimer& timer,
                   const RoommatesInstance& instance, double phase1_ms,
                   const SolveOptions& options) {
  result.status.outcome = result.has_stable
                              ? resilience::SolveOutcome::ok
                              : resilience::SolveOutcome::no_stable;
  result.status.proposals = result.phase1_proposals;
  result.status.wall_ms = timer.millis();

  obs::SolveTelemetry& t = result.telemetry;
  t.engine = "roommates";
  t.genders = 0;  // not a k-partite solve; size is the person count
  t.size = instance.size();
  t.wall_ms = result.status.wall_ms;
  t.add_phase("phase1", phase1_ms);
  t.add_phase("phase2", result.status.wall_ms - phase1_ms);
  t.status = result.status;
  t.proposals = result.phase1_proposals;
  t.executed_proposals = result.phase1_proposals;
  t.rounds = result.rotations_eliminated;
  t.attempts = 1;
  if (options.control != nullptr &&
      options.control->budget().wall_ms > 0.0) {
    const double margin =
        options.control->budget().wall_ms - options.control->elapsed_ms();
    t.deadline_margin_ms = margin > 0.0 ? margin : 0.0;
  }
  obs::record(t);
  KSTABLE_COUNTER_ADD("roommates.rotations", result.rotations_eliminated);
  KSTABLE_COUNTER_ADD("roommates.pair_deletions", result.pair_deletions);
}

}  // namespace

RoommatesResult solve(const RoommatesInstance& instance,
                      const SolveOptions& options) {
  RoommatesResult result;
  ReductionTable table(instance);
  WallTimer timer;

  if (!run_phase1(table, result.phase1_proposals, result.failed_person,
                  options.control)) {
    result.pair_deletions = table.deletions();
    finish_status(result, timer, instance, timer.millis(), options);
    return result;
  }
  const double phase1_ms = timer.millis();
  if (!run_phase2(table, options, result)) {
    result.pair_deletions = table.deletions();
    finish_status(result, timer, instance, phase1_ms, options);
    return result;
  }

  // All lists are singletons; read the matching off and cross-check.
  const Person n = instance.size();
  result.match.assign(static_cast<std::size_t>(n), -1);
  for (Person p = 0; p < n; ++p) {
    KSTABLE_ENSURE(table.list_size(p) == 1,
                   "person " << p << " ended with " << table.list_size(p)
                             << " entries");
    result.match[static_cast<std::size_t>(p)] = table.first(p);
  }
  for (Person p = 0; p < n; ++p) {
    const Person q = result.match[static_cast<std::size_t>(p)];
    KSTABLE_ENSURE(q >= 0 && result.match[static_cast<std::size_t>(q)] == p,
                   "matching is not an involution at person " << p);
  }
  result.has_stable = true;
  result.pair_deletions = table.deletions();
  KSTABLE_ENSURE(is_stable_matching(instance, result.match),
                 "solver produced an unstable matching");
  finish_status(result, timer, instance, phase1_ms, options);
  return result;
}

bool is_stable_matching(const RoommatesInstance& instance,
                        const std::vector<Person>& match) {
  const Person n = instance.size();
  if (match.size() != static_cast<std::size_t>(n)) return false;
  for (Person p = 0; p < n; ++p) {
    const Person q = match[static_cast<std::size_t>(p)];
    if (q < 0 || q >= n || q == p) return false;
    if (match[static_cast<std::size_t>(q)] != p) return false;
    if (!instance.acceptable(p, q)) return false;
  }
  // Blocking pair: p and q mutually acceptable, each strictly preferring the
  // other over their assigned partner.
  for (Person p = 0; p < n; ++p) {
    const Person pp = match[static_cast<std::size_t>(p)];
    const std::int32_t p_cur = instance.rank_of(p, pp);
    for (const Person q : instance.list(p)) {
      if (instance.rank_of(p, q) >= p_cur) continue;  // p doesn't gain
      const Person qq = match[static_cast<std::size_t>(q)];
      if (instance.rank_of(q, p) < instance.rank_of(q, qq)) return false;
    }
  }
  return true;
}

}  // namespace kstable::rm
