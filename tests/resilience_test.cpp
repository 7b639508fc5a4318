// Resilience subsystem tests: budgets/deadlines/cancellation (ExecControl),
// the ParseError/ExecutionAborted taxonomy, deterministic fault injection,
// and the tree-fallback solve ladder.
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "analysis/stability.hpp"
#include "core/binding.hpp"
#include "core/parallel_binding.hpp"
#include "gs/gale_shapley.hpp"
#include "parallel/thread_pool.hpp"
#include "prefs/generators.hpp"
#include "prefs/io.hpp"
#include "resilience/control.hpp"
#include "resilience/errors.hpp"
#include "resilience/fault_injection.hpp"
#include "resilience/solve_ladder.hpp"
#include "roommates/examples.hpp"
#include "roommates/solver.hpp"
#include "util/rng.hpp"

namespace kstable {
namespace {

using resilience::Budget;
using resilience::CancellationToken;
using resilience::ExecControl;
using resilience::FaultConfig;
using resilience::FaultRegistry;
using resilience::ScopedFault;

// --- ExecControl -----------------------------------------------------------

TEST(ExecControl, UnlimitedBudgetNeverAborts) {
  ExecControl control;
  for (int i = 0; i < 10000; ++i) control.charge();
  control.check_now();
  EXPECT_EQ(control.spent(), 10000);
}

TEST(ExecControl, ProposalBudgetAbortsWithReason) {
  ExecControl control{Budget::proposals(100)};
  try {
    for (int i = 0; i < 200; ++i) control.charge();
    FAIL() << "budget never tripped";
  } catch (const ExecutionAborted& e) {
    EXPECT_EQ(e.reason(), AbortReason::proposal_budget);
    EXPECT_NE(std::string(e.what()).find("proposal-budget"),
              std::string::npos);
  }
}

TEST(ExecControl, ExpiredDeadlineAbortsAtCheckNow) {
  ExecControl control{Budget::deadline(0.0001)};
  while (control.elapsed_ms() <= 0.0001) {
  }
  try {
    control.check_now();
    FAIL() << "deadline never tripped";
  } catch (const ExecutionAborted& e) {
    EXPECT_EQ(e.reason(), AbortReason::deadline);
  }
}

TEST(ExecControl, CancellationObservedWithinClockStrideCharges) {
  // The token's acquire load is amortized onto the same kClockStride
  // boundary as the wall clock, so a charge()-only loop must observe a
  // cancellation within at most kClockStride further charged units — never
  // later, and regardless of whether any budget is set.
  CancellationToken token;
  ExecControl control{Budget{}, token};
  control.charge();  // fine before cancellation
  token.request_cancel();
  std::int64_t charges_after_cancel = 0;
  try {
    for (std::int64_t i = 0; i <= ExecControl::kClockStride; ++i) {
      control.charge();
      ++charges_after_cancel;
    }
    FAIL() << "cancellation not observed within kClockStride charges";
  } catch (const ExecutionAborted& e) {
    EXPECT_EQ(e.reason(), AbortReason::cancelled);
    EXPECT_LE(charges_after_cancel, ExecControl::kClockStride);
  }
}

TEST(ExecControl, CancellationObservedImmediatelyAtCheckNow) {
  // check_now() is the unamortized checkpoint: it must observe a
  // cancellation at once, without waiting for a stride boundary.
  CancellationToken token;
  ExecControl control{Budget{}, token};
  control.charge();
  token.request_cancel();
  try {
    control.check_now();
    FAIL() << "check_now did not observe the cancellation";
  } catch (const ExecutionAborted& e) {
    EXPECT_EQ(e.reason(), AbortReason::cancelled);
  }
}

TEST(ExecControl, CheckNowEnforcesProposalBudget) {
  // Regression: check_now() used to consult only the token and the clock, so
  // a solver that hits coarse checkpoints without charging (cache-served
  // edges, or a shared control pushed over budget by other workers) could
  // overrun a proposal budget indefinitely.
  ExecControl control{Budget::proposals(10)};
  control.charge(10);   // exactly at the limit: still fine
  control.check_now();  // and check_now agrees
  EXPECT_THROW(control.charge(10), ExecutionAborted);  // now over (spent=20)
  try {
    control.check_now();
    FAIL() << "check_now ignored an exhausted proposal budget";
  } catch (const ExecutionAborted& e) {
    EXPECT_EQ(e.reason(), AbortReason::proposal_budget);
  }
}

TEST(ExecControl, ChargeStillChecksBudgetEveryCall) {
  // The budget comparison is NOT amortized: it runs on the fetch_add result
  // every call, so overruns are caught at the exact crossing charge.
  ExecControl control{Budget::proposals(5)};
  for (int i = 0; i < 5; ++i) control.charge();
  try {
    control.charge();
    FAIL() << "budget crossing not caught immediately";
  } catch (const ExecutionAborted& e) {
    EXPECT_EQ(e.reason(), AbortReason::proposal_budget);
    EXPECT_EQ(control.spent(), 6);
  }
}

TEST(ExecControl, AbortedStatusCarriesCounters) {
  ExecControl control{Budget::proposals(5)};
  control.charge(4);
  const auto status =
      control.aborted_status(AbortReason::deadline, "test detail");
  EXPECT_EQ(status.outcome, resilience::SolveOutcome::aborted);
  EXPECT_EQ(status.abort_reason, AbortReason::deadline);
  EXPECT_EQ(status.proposals, 4);
  EXPECT_FALSE(status.ok());
}

// --- Solver integration ----------------------------------------------------

TEST(SolverAbort, GsQueueHonorsProposalBudget) {
  Rng rng(7001);
  const auto inst = gen::uniform(3, 32, rng);
  ExecControl control{Budget::proposals(10)};
  gs::GsOptions options;
  options.control = &control;
  // A perfect matching needs >= 32 proposals; the budget trips first — and
  // as an ExecutionAborted, not a ContractViolation.
  EXPECT_THROW(gs::gale_shapley_queue(inst, 0, 1, options), ExecutionAborted);
  EXPECT_LE(control.spent(), 10 + 1);
}

TEST(SolverAbort, GsResultUnchangedByNullControl) {
  Rng rng(7002);
  const auto inst = gen::uniform(3, 24, rng);
  const auto plain = gs::gale_shapley_queue(inst, 0, 1);
  ExecControl control;  // attached but unlimited
  gs::GsOptions options;
  options.control = &control;
  const auto guarded = gs::gale_shapley_queue(inst, 0, 1, options);
  EXPECT_EQ(guarded.proposer_match, plain.proposer_match);
  EXPECT_EQ(guarded.proposals, plain.proposals);
  EXPECT_EQ(control.spent(), plain.proposals);
}

TEST(SolverAbort, IterativeBindingDeadlineAbortsNotHangs) {
  Rng rng(7003);
  const auto inst = gen::uniform(4, 48, rng);
  ExecControl control{Budget::deadline(0.0001)};
  while (control.elapsed_ms() <= 0.0001) {
  }
  core::BindingOptions options;
  options.control = &control;
  try {
    core::iterative_binding(inst, trees::path(4), options);
    FAIL() << "expired deadline did not abort the binding";
  } catch (const ExecutionAborted& e) {
    EXPECT_EQ(e.reason(), AbortReason::deadline);
  }
}

TEST(SolverAbort, RoommatesSolveHonorsProposalBudget) {
  const auto inst = rm::examples::sec3b_left();
  rm::SolveOptions options;
  ExecControl control{Budget::proposals(2)};
  options.control = &control;
  EXPECT_THROW(rm::solve(inst, options), ExecutionAborted);
}

TEST(SolverAbort, RoommatesStatusReportsOkAndNoStable) {
  const auto ok = rm::solve(rm::examples::sec3b_left());
  EXPECT_EQ(ok.status.outcome, resilience::SolveOutcome::ok);
  EXPECT_GT(ok.status.proposals, 0);
  EXPECT_TRUE(ok.status.ok());

  const auto gone = rm::solve(rm::examples::sec3b_right());
  EXPECT_EQ(gone.status.outcome, resilience::SolveOutcome::no_stable);
  EXPECT_FALSE(gone.status.ok());
}

TEST(SolverAbort, ExecuteBindingAbortsThroughThePool) {
  Rng rng(7004);
  const auto inst = gen::uniform(4, 32, rng);
  ThreadPool pool(4);
  ExecControl control{Budget::proposals(8)};
  EXPECT_THROW(core::execute_binding(inst, trees::path(4),
                                     core::ExecutionMode::crew_full, pool,
                                     &control),
               ExecutionAborted);
}

TEST(SolverAbort, BindingStatusFilledOnSuccess) {
  Rng rng(7005);
  const auto inst = gen::uniform(3, 16, rng);
  const auto result = core::iterative_binding(inst, trees::path(3));
  EXPECT_EQ(result.status.outcome, resilience::SolveOutcome::ok);
  EXPECT_EQ(result.status.proposals, result.total_proposals);
  EXPECT_GE(result.status.wall_ms, 0.0);
}

// --- Fault injection -------------------------------------------------------

TEST(FaultInjection, DisarmedPointsAreFree) {
  Rng rng(7006);
  const auto inst = gen::uniform(3, 8, rng);
  // No fault armed: loads work, and the registry records nothing.
  const auto text = io::to_string(inst);
  EXPECT_NO_THROW(io::from_string(text));
  EXPECT_EQ(FaultRegistry::instance().hits("io/load"), 0);
}

TEST(FaultInjection, ScopedFaultFiresOnceThenStops) {
  Rng rng(7007);
  const auto inst = gen::uniform(3, 8, rng);
  const auto text = io::to_string(inst);
  ScopedFault fault("io/load");  // defaults: fire on first hit, max_fires 1
  EXPECT_THROW(io::from_string(text), InjectedFault);
  EXPECT_NO_THROW(io::from_string(text));
  EXPECT_EQ(fault.hits(), 2);
  EXPECT_EQ(fault.fires(), 1);
}

TEST(FaultInjection, InjectedFaultIsAnExecutionAborted) {
  ScopedFault fault("io/load");
  try {
    io::from_string("never reaches the parser");
    FAIL() << "fault did not fire";
  } catch (const ExecutionAborted& e) {
    EXPECT_EQ(e.reason(), AbortReason::injected_fault);
    const auto* injected = dynamic_cast<const InjectedFault*>(&e);
    ASSERT_NE(injected, nullptr);
    EXPECT_EQ(injected->point(), "io/load");
  }
}

TEST(FaultInjection, FireAfterSkipsEarlyHits) {
  Rng rng(7008);
  const auto text = io::to_string(gen::uniform(3, 4, rng));
  FaultConfig config;
  config.fire_after = 2;  // hits 1 and 2 pass, hit 3 fires
  ScopedFault fault("io/load", config);
  EXPECT_NO_THROW(io::from_string(text));
  EXPECT_NO_THROW(io::from_string(text));
  EXPECT_THROW(io::from_string(text), InjectedFault);
}

TEST(FaultInjection, ProbabilisticFiringReplaysExactly) {
  Rng rng(7009);
  const auto text = io::to_string(gen::uniform(3, 4, rng));
  FaultConfig config;
  config.probability = 0.35;
  config.seed = 77;
  config.max_fires = 0;  // unlimited
  const auto run = [&] {
    std::vector<int> fired_at;
    ScopedFault fault("io/load", config);
    for (int i = 0; i < 60; ++i) {
      try {
        io::from_string(text);
      } catch (const InjectedFault&) {
        fired_at.push_back(i);
      }
    }
    // The registry's own fingerprint must agree with what we observed.
    const auto log = FaultRegistry::instance().fire_log("io/load");
    EXPECT_EQ(log.size(), fired_at.size());
    return fired_at;
  };
  const auto first = run();
  const auto second = run();
  EXPECT_FALSE(first.empty()) << "p=0.35 over 60 trials should fire";
  EXPECT_LT(first.size(), 60u) << "p=0.35 should not fire every time";
  EXPECT_EQ(first, second) << "same seed must replay the same firing pattern";
}

// --- Fallback ladder -------------------------------------------------------

TEST(FallbackLadder, CleanInstanceSucceedsOnFirstRung) {
  Rng rng(7010);
  const auto inst = gen::uniform(4, 12, rng);
  const auto report = resilience::solve_with_fallback(inst);
  EXPECT_TRUE(report.succeeded);
  EXPECT_EQ(report.rung, resilience::Rung::strict_tree);
  EXPECT_FALSE(report.degraded());
  ASSERT_EQ(report.attempts.size(), 1u);
  EXPECT_TRUE(analysis::find_blocking_family(inst, report.matching()) ==
              std::nullopt);
}

TEST(FallbackLadder, FaultOnFirstTreeRecoversViaDifferentTree) {
  Rng rng(7011);
  const auto inst = gen::uniform(4, 12, rng);
  ScopedFault fault("core/binding_edge");  // fires once: first edge, tree 1
  const auto report = resilience::solve_with_fallback(inst);
  EXPECT_TRUE(report.succeeded);
  EXPECT_EQ(report.rung, resilience::Rung::strict_tree);
  ASSERT_EQ(report.attempts.size(), 2u);
  EXPECT_EQ(report.attempts[0].status.abort_reason,
            AbortReason::injected_fault);
  EXPECT_NE(report.attempts[1].tree_edges, report.attempts[0].tree_edges)
      << "the retry must bind along a different spanning tree";
  EXPECT_TRUE(analysis::find_blocking_family(inst, report.matching()) ==
              std::nullopt);
}

TEST(FallbackLadder, AllStrictRungsFailDegradesToPriorityModel) {
  Rng rng(7012);
  const auto inst = gen::uniform(4, 12, rng);
  resilience::FallbackOptions options;
  options.max_tree_attempts = 3;
  FaultConfig config;
  config.max_fires = 3;  // every strict attempt aborts; the degraded rung runs
  ScopedFault fault("core/binding_edge", config);
  const auto report = resilience::solve_with_fallback(inst, options);
  EXPECT_TRUE(report.succeeded);
  EXPECT_TRUE(report.degraded());
  EXPECT_EQ(report.rung, resilience::Rung::degraded_priority);
  ASSERT_EQ(report.attempts.size(), 4u);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(report.attempts[static_cast<std::size_t>(i)].status.abort_reason,
              AbortReason::injected_fault);
  }
  // Theorem 5 / §IV.D: still a spanning-tree binding, so strictly stable.
  EXPECT_TRUE(analysis::find_blocking_family(inst, report.matching()) ==
              std::nullopt);
}

TEST(FallbackLadder, EveryRungExhaustedReportsFailure) {
  Rng rng(7013);
  const auto inst = gen::uniform(4, 12, rng);
  FaultConfig config;
  config.max_fires = 0;  // unlimited: the degraded rung aborts too
  ScopedFault fault("core/binding_edge", config);
  resilience::FallbackOptions options;
  options.max_tree_attempts = 2;
  const auto report = resilience::solve_with_fallback(inst, options);
  EXPECT_FALSE(report.succeeded);
  EXPECT_EQ(report.rung, resilience::Rung::none);
  EXPECT_EQ(report.attempts.size(), 3u);  // 2 strict + 1 degraded
  EXPECT_FALSE(report.result.has_value());
  EXPECT_EQ(report.status.abort_reason, AbortReason::injected_fault);
}

TEST(FallbackLadder, CancellationStopsTheWholeLadder) {
  Rng rng(7014);
  const auto inst = gen::uniform(4, 12, rng);
  resilience::FallbackOptions options;
  options.token.request_cancel();  // cancelled before the first attempt
  const auto report = resilience::solve_with_fallback(inst, options);
  EXPECT_FALSE(report.succeeded);
  EXPECT_EQ(report.attempts.size(), 1u)
      << "a cancellation must not burn the remaining rungs";
  EXPECT_EQ(report.status.abort_reason, AbortReason::cancelled);
}

TEST(FallbackLadder, PerAttemptBudgetsAreScaledByBackoff) {
  Rng rng(7015);
  const auto inst = gen::uniform(3, 48, rng);
  resilience::FallbackOptions options;
  options.per_attempt = Budget::proposals(4);  // far too small for n=48
  options.backoff = 100.0;  // second attempt gets 400: plenty
  options.max_tree_attempts = 2;
  const auto report = resilience::solve_with_fallback(inst, options);
  EXPECT_TRUE(report.succeeded);
  ASSERT_GE(report.attempts.size(), 2u);
  EXPECT_EQ(report.attempts[0].status.abort_reason,
            AbortReason::proposal_budget);
  EXPECT_EQ(report.rung, resilience::Rung::strict_tree);
}

/// Strict budgets of 1, 20, 400 and 8000 proposals. Each of a k = 4 tree's
/// three edges costs at least n = 12 proposals, so candidates 0 and 1 blow
/// their budgets and candidate 2 is the lowest that can succeed.
resilience::FallbackOptions escalating_ladder() {
  resilience::FallbackOptions options;
  options.per_attempt = Budget::proposals(1);
  options.backoff = 20.0;
  options.max_tree_attempts = 4;
  return options;
}

void expect_same_log(const resilience::FallbackReport& raced,
                     const resilience::FallbackReport& in_order,
                     std::size_t count) {
  ASSERT_LE(count, raced.attempts.size());
  ASSERT_LE(count, in_order.attempts.size());
  for (std::size_t i = 0; i < count; ++i) {
    EXPECT_EQ(raced.attempts[i].rung, resilience::Rung::strict_tree);
    EXPECT_EQ(raced.attempts[i].tree_edges, in_order.attempts[i].tree_edges);
  }
}

TEST(FallbackLadder, RacedRungsPickTheLowestSucceedingCandidate) {
  Rng rng(7016);
  const auto inst = gen::uniform(4, 12, rng);
  resilience::FallbackOptions options = escalating_ladder();
  const auto in_order = resilience::solve_with_fallback(inst, options);
  ASSERT_TRUE(in_order.succeeded);
  EXPECT_EQ(in_order.rung, resilience::Rung::strict_tree);
  // Every candidate below the winner is logged, each a budget failure.
  ASSERT_EQ(in_order.attempts.size(), 3u);
  EXPECT_EQ(in_order.attempts[0].status.abort_reason,
            AbortReason::proposal_budget);
  EXPECT_EQ(in_order.attempts[1].status.abort_reason,
            AbortReason::proposal_budget);
  EXPECT_TRUE(in_order.attempts[2].status.ok());
  EXPECT_EQ(in_order.speculative_waste, 0);

  ThreadPool pool(4);
  options.pool = &pool;
  for (int run = 0; run < 8; ++run) {
    const auto raced = resilience::solve_with_fallback(inst, options);
    ASSERT_TRUE(raced.succeeded);
    EXPECT_EQ(raced.rung, resilience::Rung::strict_tree);
    ASSERT_EQ(raced.attempts.size(), in_order.attempts.size());
    expect_same_log(raced, in_order, raced.attempts.size());
    for (std::size_t i = 0; i < raced.attempts.size(); ++i) {
      EXPECT_EQ(raced.attempts[i].status.abort_reason,
                in_order.attempts[i].status.abort_reason);
    }
    EXPECT_EQ(raced.matching(), in_order.matching());
    // Without a cache each candidate's work is deterministic: the race
    // executes the in-order ladder's work plus its overshoot.
    EXPECT_EQ(raced.executed_proposals - raced.speculative_waste,
              in_order.executed_proposals);
  }
}

TEST(FallbackLadder, CancellationDuringARaceLogsWhatRanAndSkipsDegraded) {
  Rng rng(7017);
  const auto inst = gen::uniform(4, 12, rng);
  // A pre-cancelled token: candidate 0 is cancelled at its first edge.
  const auto run = [&inst](ThreadPool* pool) {
    resilience::FallbackOptions options = escalating_ladder();
    options.pool = pool;
    options.token.request_cancel();
    return resilience::solve_with_fallback(inst, options);
  };
  const auto in_order = run(nullptr);
  EXPECT_FALSE(in_order.succeeded);
  EXPECT_EQ(in_order.rung, resilience::Rung::none);
  ASSERT_EQ(in_order.attempts.size(), 1u);
  EXPECT_EQ(in_order.attempts[0].status.abort_reason, AbortReason::cancelled);
  EXPECT_EQ(in_order.status.abort_reason, AbortReason::cancelled);

  ThreadPool pool(4);
  for (int i = 0; i < 8; ++i) {
    // Every racing candidate sees the cancellation; the log still ends at
    // the lowest one, and no degraded attempt follows.
    const auto raced = run(&pool);
    EXPECT_FALSE(raced.succeeded);
    EXPECT_EQ(raced.rung, resilience::Rung::none);
    ASSERT_EQ(raced.attempts.size(), in_order.attempts.size());
    expect_same_log(raced, in_order, raced.attempts.size());
    EXPECT_EQ(raced.attempts[0].status.abort_reason, AbortReason::cancelled);
    EXPECT_EQ(raced.status.abort_reason, AbortReason::cancelled);
  }
}

// --- Error taxonomy --------------------------------------------------------

TEST(Taxonomy, ParseErrorIsAContractViolation) {
  // Legacy catch sites (catch ContractViolation) keep working.
  EXPECT_THROW(io::from_string(""), ParseError);
  EXPECT_THROW(io::from_string(""), ContractViolation);
}

TEST(Taxonomy, ExecutionAbortedIsNotAContractViolation) {
  ExecControl control{Budget::proposals(1)};
  bool caught_contract = false;
  try {
    control.charge(5);
  } catch (const ContractViolation&) {
    caught_contract = true;
  } catch (const ExecutionAborted&) {
  }
  EXPECT_FALSE(caught_contract)
      << "an abort is an operational outcome, not a programming error";
}

TEST(Taxonomy, LoaderRejectsOutOfRangeIndices) {
  const std::string base = "kstable-kpartite v1\n2 2\n";
  // Gender out of range.
  EXPECT_THROW(io::from_string(base + "pref 5 0 1 : 0 1\n"), ParseError);
  // Member out of range.
  EXPECT_THROW(io::from_string(base + "pref 0 9 1 : 0 1\n"), ParseError);
  // Target gender equal to observer gender.
  EXPECT_THROW(io::from_string(base + "pref 0 0 0 : 0 1\n"), ParseError);
  // Dimensions out of range.
  EXPECT_THROW(io::from_string("kstable-kpartite v1\n1 2\n"), ParseError);
  EXPECT_THROW(io::from_string("kstable-kpartite v1\n2 0\n"), ParseError);
}

TEST(Taxonomy, LoaderRejectsDuplicatePrefLines) {
  Rng rng(7016);
  const auto inst = gen::uniform(2, 2, rng);
  auto text = io::to_string(inst);
  // Duplicate the first pref line: same count as dropping another line would
  // give, so only explicit duplicate detection can catch it.
  const auto first_pref = text.find("pref");
  const auto line_end = text.find('\n', first_pref);
  const auto line = text.substr(first_pref, line_end - first_pref + 1);
  text.insert(first_pref, line);
  try {
    io::from_string(text);
    FAIL() << "duplicate pref line accepted";
  } catch (const ParseError& e) {
    EXPECT_NE(std::string(e.what()).find("duplicate"), std::string::npos);
  }
}

TEST(Taxonomy, SolveStatusSummaryIsHumanReadable) {
  resilience::SolveStatus status;
  status.outcome = resilience::SolveOutcome::aborted;
  status.abort_reason = AbortReason::deadline;
  status.proposals = 123;
  const auto text = status.summary();
  EXPECT_NE(text.find("aborted"), std::string::npos);
  EXPECT_NE(text.find("deadline"), std::string::npos);
}

}  // namespace
}  // namespace kstable
