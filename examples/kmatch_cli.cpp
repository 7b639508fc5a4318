// kmatch: a small command-line front-end to the kstable library.
//
// Usage:
//   kmatch gen   <k> <n> <seed> <file>       write a random instance
//   kmatch kary  <file> [tree]               stable k-ary matching (Algorithm 1)
//                                            tree: path | star | random |
//                                            priority | best (least
//                                            bound-pair cost over all k^(k-2)
//                                            trees: a minimum arborescence)
//   kmatch binary <file> [lin]               stable binary matching via the
//                                            roommates solver; lin: rr | blocks
//   kmatch roommates <file>                  solve a roommates-format instance
//   kmatch coalitions <file> <c>             super-gender coalitions of group
//                                            size c (k' must be divisible by c)
//   kmatch verify                            cross-engine differential sweep
//                                            (docs/VERIFY.md); mismatches are
//                                            emitted as JSON lines, the first
//                                            failing seed is delta-debugged to
//                                            a minimal loadable repro file
//   kmatch serve --stdio|--port=<p>          long-lived matching service
//                                            (docs/SERVE.md): bounded admission
//                                            queue with load shedding,
//                                            per-request deadlines, fallback
//                                            degradation, graceful drain on
//                                            SIGINT/SIGTERM
//   kmatch ping --port=<p>                   bundled serve test client:
//                                            windowed workload with SHED
//                                            backoff, resend, reconnect, and
//                                            duplicate-consistency checking
//   kmatch mertens [--n= --samples= --seed=] regenerate the Mertens random-SMP
//                                            asymptotics (partner rank ~ ln n /
//                                            n/ln n) on the implicit backend;
//                                            n up to 2*10^6 in O(n) memory
//   kmatch info  <file>                      print instance dimensions
//
// Global flags (accepted anywhere on the command line):
//   --deadline-ms=<ms>     abort the solve after a wall-clock deadline
//   --max-proposals=<n>    abort the solve after n accumulated proposals
//   --fallback             (kary only) on abort, retry along different
//                          spanning trees, then degrade to the priority model
//   --sweep-threads=<n>    verify only: the pool of the parallel-engine legs
//                          (checked, >= 1; 1 = no pool, the default); kary
//                          and its --fallback ladder run sequentially and
//                          ignore it
//   --stats-json=<file>    write the solve's telemetry + the process metrics
//                          registry as one JSON object (docs/OBSERVABILITY.md)
//   --stats-prom=<file>    same data in Prometheus text exposition format
//
// Verify flags (kmatch verify only):
//   --seeds=<n>            seeds per shape (default 100)
//   --shape=<s>            bipartite | kpartite | roommates | all (default all)
//   --dist=<d>             uniform | master | skewed | adversarial | mixed
//   --base-seed=<n>        first seed of the sweep (default 1)
//   --sabotage=<s>         none | gs_swap | kary_swap — deliberately corrupt
//                          one engine's output to self-test the harness
//   --repro-dir=<dir>      where minimal repro files are written (default .)
//   --churn=<n>            incremental re-stabilization legs: n random
//                          preference mutations per instance, each checked
//                          bitwise against a cold solve (default 0 = off)
//
// Every numeric argument is parsed with the checked parse_arg helper: garbage,
// trailing junk, and out-of-range values (k < 2, n < 1, negative seeds) are
// rejected with exit code 2 instead of silently wrapping through std::atoi.
//
// Exit code 0 on success, 1 on "no stable matching", 2 on usage errors,
// 3 when a solve was aborted (deadline/budget exhausted without --fallback,
// or every fallback rung failed), 4 when `kmatch verify` detected a
// cross-engine mismatch (the minimal repro path is printed).
//
// `kmatch serve` exit codes (pinned by cli_regression): 2 on bad flags,
// 0 after a clean drain, 3 when the drain deadline + grace elapsed with work
// still in flight. `kmatch ping`: 0 when every request was acknowledged
// exactly-once-consistently, 1 on lost or inconsistent responses, 2 usage.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <functional>
#include <iostream>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/dot.hpp"
#include "analysis/metrics.hpp"
#include "core/binding.hpp"
#include "core/priority_binding.hpp"
#include "core/supergender.hpp"
#include "core/tree_selection.hpp"
#include "example_args.hpp"
#include "graph/binding_structure.hpp"
#include "graph/prufer.hpp"
#include "gs/gale_shapley.hpp"
#include "observability/metrics.hpp"
#include "observability/telemetry.hpp"
#include "prefs/catalog.hpp"
#include "prefs/generators.hpp"
#include "prefs/io.hpp"
#include "prefs/kpartite.hpp"
#include "resilience/control.hpp"
#include "resilience/fault_injection.hpp"
#include "resilience/solve_ladder.hpp"
#include "roommates/adapters.hpp"
#include "roommates/io.hpp"
#include "roommates/solver.hpp"
#include "serve/client.hpp"
#include "serve/engine.hpp"
#include "serve/fd_stream.hpp"
#include "serve/server.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"
#include "verify/instance_gen.hpp"
#include "verify/verify.hpp"

namespace {

using namespace kstable;
using examples_cli::parse_arg;

/// What the flags set (see kFlags). Wherever a library option struct
/// exists, the flags write straight into it, so kmatch runs the library's
/// own defaults.
resilience::Budget g_budget;  ///< --deadline-ms, --max-proposals
bool g_fallback = false;
std::size_t g_sweep_threads = 1;
std::string g_stats_json;
std::string g_stats_prom;
verify::VerifyOptions g_verify;
/// `kmatch serve`. The one default kmatch changes: an armed serve/stall
/// point wedges a worker for 250 ms, where the library's default is 0.
serve::ServeLimits g_limits{.chaos_stall_ms = 250.0};
bool g_stdio = false;
std::optional<std::uint16_t> g_port;
std::vector<std::string> g_chaos;  ///< serve/* fault points to arm
std::uint64_t g_chaos_seed = 1;
double g_chaos_prob = 0.05;
/// `kmatch ping`. --port, --n and --seed also land here.
serve::PingOptions g_ping;
std::string g_emit;         ///< write the workload as raw frames, don't connect
std::string g_metrics_out;  ///< scrape a STATS body after the workload
/// `kmatch mertens` (--seed is g_ping.seed). n deliberately ranges far
/// beyond what explicit tables could hold: the experiment runs on the
/// implicit backend only.
Index g_mertens_n = 100000;
std::int64_t g_mertens_samples = 3;
/// Telemetry of the command's top-level solve, for --stats-json/--stats-prom.
std::optional<obs::SolveTelemetry> g_telemetry;

/// Returns a control for the configured budget, or nullptr when unlimited.
resilience::ExecControl* budget_control() {
  static resilience::ExecControl control{g_budget};
  return g_budget.unlimited() ? nullptr : &control;
}

int usage() {
  std::cerr << "usage:\n"
               "  kmatch [flags] gen <k> <n> <seed> <file>\n"
               "  kmatch [flags] kary <file> [path|star|random|priority|best]\n"
               "  kmatch [flags] binary <file> [rr|blocks]\n"
               "  kmatch [flags] roommates <file>\n"
               "  kmatch [flags] coalitions <file> <group size>\n"
               "  kmatch example [<name> <file>]   (no args: list catalog)\n"
               "  kmatch stats <file>\n"
               "  kmatch dot <file> tree|matching\n"
               "  kmatch verify [verify flags]\n"
               "  kmatch mertens [--n=<n> --samples=<s> --seed=<n>]\n"
               "  kmatch serve --stdio|--port=<p> [serve flags]\n"
               "  kmatch ping --port=<p> [ping flags]\n"
               "  kmatch info <file>\n"
               "flags: --deadline-ms=<ms>  --max-proposals=<n>  --fallback\n"
               "       --sweep-threads=<n>  (pool of verify's parallel-engine\n"
               "       legs; kary and --fallback ignore it)\n"
               "       --stats-json=<file>  --stats-prom=<file>\n"
               "verify flags: --seeds=<n>  --shape=<shape|all>  --dist=<dist>\n"
               "       --base-seed=<n>  --sabotage=<mode>  --repro-dir=<dir>\n"
               "       --churn=<n>\n"
               "serve flags: --workers=<n>  --queue-depth=<n>\n"
               "       --max-deadline-ms=<ms>  --shed-retry-ms=<ms>\n"
               "       --drain-deadline-ms=<ms>  --drain-grace-ms=<ms>\n"
               "       --tree-attempts=<n>  --no-degraded\n"
               "       --chaos=<all|point,...>  --chaos-seed=<n>\n"
               "       --chaos-prob=<p>  --chaos-stall-ms=<ms>\n"
               "ping flags: --requests=<n>  --window=<n>  --k=<k>  --n=<n>\n"
               "       --seed=<n>  --response-timeout-ms=<ms>\n"
               "       --emit=<file>  --metrics-out=<file>\n";
  return 2;
}

/// Writes the stats files requested via --stats-json/--stats-prom. The JSON
/// payload is one object: {"schema":"kstable.stats.v1","telemetry":...,
/// "metrics":{...}} where telemetry is null for commands that do not solve
/// (gen, info, ...). Returns 0, or 2 when a file cannot be written.
int write_stats() {
  if (!g_stats_json.empty()) {
    std::ofstream out(g_stats_json);
    if (!out) {
      std::cerr << "cannot write stats JSON to '" << g_stats_json << "'\n";
      return 2;
    }
    out << "{\"schema\":\"kstable.stats.v1\",\"telemetry\":";
    if (g_telemetry.has_value()) {
      g_telemetry->write_json(out);
    } else {
      out << "null";
    }
    out << ",\"metrics\":";
    obs::MetricsRegistry::global().write_json(out);
    out << "}\n";
  }
  if (!g_stats_prom.empty()) {
    std::ofstream out(g_stats_prom);
    if (!out) {
      std::cerr << "cannot write stats to '" << g_stats_prom << "'\n";
      return 2;
    }
    if (g_telemetry.has_value()) g_telemetry->write_prometheus(out);
    obs::MetricsRegistry::global().write_prometheus(out);
  }
  return 0;
}

int cmd_gen(int argc, char** argv) {
  if (argc != 6) return usage();
  const auto k = parse_arg<Gender>(argv[2], 2,
                                   std::numeric_limits<Gender>::max(), "k");
  const auto n = parse_arg<Index>(argv[3], 1,
                                  std::numeric_limits<Index>::max(), "n");
  const auto seed = parse_arg<std::uint64_t>(
      argv[4], 0, std::numeric_limits<std::uint64_t>::max(), "seed");
  if (!k || !n || !seed) return usage();
  Rng rng(*seed);
  const auto inst = gen::uniform(*k, *n, rng);
  io::save_file(inst, argv[5]);
  std::cout << "wrote " << *k << "-partite instance (" << *n
            << " members/gender) to " << argv[5] << '\n';
  return 0;
}

int cmd_info(int argc, char** argv) {
  if (argc != 3) return usage();
  const auto inst = io::load_file(argv[2]);
  std::cout << "k = " << inst.genders() << ", n = " << inst.per_gender()
            << ", members = " << inst.total_members() << ", valid = yes\n";
  return 0;
}

int cmd_kary(int argc, char** argv) {
  if (argc < 3 || argc > 4) return usage();
  const auto inst = io::load_file(argv[2]);
  const std::string shape = argc == 4 ? argv[3] : "path";
  const Gender k = inst.genders();

  core::BindingResult result;
  BindingStructure tree(k);
  if (g_fallback) {
    resilience::FallbackOptions opts;
    opts.per_attempt = g_budget;
    auto report = resilience::solve_with_fallback(inst, opts);
    g_telemetry = report.telemetry;
    std::cout << "fallback ladder: " << report.attempts.size()
              << " attempt(s), rung " << resilience::to_string(report.rung)
              << '\n';
    if (!report.succeeded) {
      std::cout << "all rungs failed: " << report.status.summary() << '\n';
      return 3;
    }
    tree = BindingStructure(k);
    for (const auto& e : report.attempts.back().tree_edges) tree.add_edge(e);
    result = std::move(*report.result);
  } else if (shape == "priority") {
    core::PriorityBindingOptions popts;
    popts.binding.control = budget_control();
    auto pr = core::priority_binding(inst, popts);
    result = std::move(pr.binding);
    g_telemetry = result.telemetry;
    tree = pr.tree;
  } else if (shape == "best") {
    core::BindingOptions bopts;
    bopts.control = budget_control();
    auto best = core::best_tree(inst, bopts);
    g_telemetry = best.binding.telemetry;
    std::cout << "best tree: bound-pair cost " << best.optimum.cost << '\n';
    tree = best.tree;
    result = std::move(best.binding);
  } else {
    if (shape == "path") {
      tree = trees::path(k);
    } else if (shape == "star") {
      tree = trees::star(k, 0);
    } else if (shape == "random") {
      Rng rng(1);
      tree = prufer::random_tree(k, rng);
    } else {
      return usage();
    }
    core::BindingOptions bopts;
    bopts.control = budget_control();
    result = core::iterative_binding(inst, tree, bopts);
    g_telemetry = result.telemetry;
  }

  std::cout << "binding tree edges:";
  for (const auto& e : tree.edges()) std::cout << " (" << e.a << ',' << e.b << ')';
  std::cout << "\nproposals: " << result.total_proposals << '\n';
  const auto& m = result.matching();
  for (Index t = 0; t < m.family_count(); ++t) {
    std::cout << "family " << t << ':';
    for (Gender g = 0; g < k; ++g) std::cout << ' ' << m.member_at(t, g);
    std::cout << '\n';
  }
  const auto costs = analysis::kary_costs(inst, m);
  std::cout << "total cost " << costs.total_cost << ", regret " << costs.regret
            << '\n';
  return 0;
}

int cmd_binary(int argc, char** argv) {
  if (argc < 3 || argc > 4) return usage();
  const auto inst = io::load_file(argv[2]);
  const std::string lin = argc == 4 ? argv[3] : "rr";
  rm::Linearization policy;
  if (lin == "rr") {
    policy = rm::Linearization::round_robin;
  } else if (lin == "blocks") {
    policy = rm::Linearization::gender_blocks;
  } else {
    return usage();
  }
  const auto result =
      rm::solve_kpartite_binary(inst, policy, nullptr, budget_control());
  g_telemetry = result.detail.telemetry;
  if (!result.has_stable) {
    std::cout << "no stable binary matching (reduced list of person "
              << result.detail.failed_person << " emptied)\n";
    return 1;
  }
  const Index n = inst.per_gender();
  std::cout << "stable binary matching (" << result.detail.phase1_proposals
            << " phase-1 proposals, " << result.detail.rotations_eliminated
            << " rotations eliminated):\n";
  for (rm::Person p = 0; p < inst.total_members(); ++p) {
    const rm::Person q = result.partner[static_cast<std::size_t>(p)];
    if (q > p) {
      std::cout << "  " << member_of(p, n) << " -- " << member_of(q, n) << '\n';
    }
  }
  return 0;
}

int cmd_example(int argc, char** argv) {
  if (argc == 2) {  // list the catalog
    for (const auto& entry : examples::catalog()) {
      std::cout << "  " << entry.name << "  —  " << entry.description << '\n';
    }
    return 0;
  }
  if (argc != 4) return usage();
  const auto inst = examples::build(argv[2]);
  io::save_file(inst, argv[3]);
  std::cout << "wrote '" << argv[2] << "' (k=" << inst.genders()
            << ", n=" << inst.per_gender() << ") to " << argv[3] << '\n';
  return 0;
}

int cmd_stats(int argc, char** argv) {
  if (argc != 3) return usage();
  const auto inst = io::load_file(argv[2]);
  const Gender k = inst.genders();
  std::cout << "k = " << k << ", n = " << inst.per_gender() << '\n';
  // Solve with a path tree and print the quality profile per tree shape.
  TableWriter table("binding quality by tree shape",
                    {"tree", "proposals", "bound-pair cost", "all-pairs cost",
                     "regret"});
  auto add = [&](const std::string& name, const BindingStructure& tree) {
    const auto result = core::iterative_binding(inst, tree);
    const auto bound = analysis::kary_tree_costs(inst, result.matching(), tree);
    const auto all = analysis::kary_costs(inst, result.matching());
    table.add_row({name, result.total_proposals, bound.total_cost,
                   all.total_cost, std::int64_t{all.regret}});
  };
  add("path", trees::path(k));
  add("star(0)", trees::star(k, 0));
  add("cost-aware", core::select_tree(inst, core::TreeObjective::min_cost));
  table.print(std::cout);
  return 0;
}

int cmd_dot(int argc, char** argv) {
  if (argc != 4) return usage();
  const auto inst = io::load_file(argv[2]);
  const std::string what = argv[3];
  if (what == "tree") {
    std::cout << analysis::to_dot(trees::path(inst.genders()));
    return 0;
  }
  if (what == "matching") {
    const auto result =
        core::iterative_binding(inst, trees::path(inst.genders()));
    std::cout << analysis::to_dot(result.matching());
    return 0;
  }
  return usage();
}

int cmd_roommates(int argc, char** argv) {
  if (argc != 3) return usage();
  const auto inst = rm::io::load_file(argv[2]);
  rm::SolveOptions solve_options;
  solve_options.control = budget_control();
  const auto result = rm::solve(inst, solve_options);
  g_telemetry = result.telemetry;
  if (!result.has_stable) {
    std::cout << "no stable matching (reduced list of person "
              << result.failed_person << " emptied)\n";
    return 1;
  }
  std::cout << "stable matching (" << result.phase1_proposals
            << " phase-1 proposals, " << result.rotations_eliminated
            << " rotations eliminated):\n";
  for (rm::Person p = 0; p < inst.size(); ++p) {
    if (result.match[static_cast<std::size_t>(p)] > p) {
      std::cout << "  " << p << " -- "
                << result.match[static_cast<std::size_t>(p)] << '\n';
    }
  }
  return 0;
}

int cmd_coalitions(int argc, char** argv) {
  if (argc != 4) return usage();
  const auto c = parse_arg<Gender>(argv[3], 1,
                                   std::numeric_limits<Gender>::max(),
                                   "group size");
  if (!c) return usage();
  const auto inst = io::load_file(argv[2]);
  if (inst.genders() % *c != 0) {
    std::cerr << "invalid group size " << *c << ": must divide k = "
              << inst.genders() << '\n';
    return usage();
  }
  const auto partition =
      core::SupergenderPartition::contiguous(inst.genders(), *c);
  const auto result = core::coalition_binding(
      inst, partition, rm::Linearization::round_robin);
  g_telemetry = result.binding.telemetry;
  std::cout << result.coalitions.size() << " coalitions of "
            << result.coalitions.front().members.size()
            << " members (one per super-gender):\n";
  for (std::size_t t = 0; t < result.coalitions.size(); ++t) {
    std::cout << "  coalition " << t << ':';
    for (const MemberId m : result.coalitions[t].members) {
      std::cout << ' ' << m;
    }
    std::cout << '\n';
  }
  return 0;
}

/// Parses a --chaos spec ("all" or a comma list of point names) into the
/// serve/* fault points to arm.
bool parse_chaos(std::string_view flag, const char* value) {
  static constexpr std::string_view kPoints[] = {"accept", "frame_parse",
                                                 "enqueue", "respond", "stall"};
  const std::string_view spec = value;
  g_chaos.clear();
  for (std::size_t start = 0;;) {
    const std::size_t comma = std::min(spec.find(',', start), spec.size());
    const std::string_view name = spec.substr(start, comma - start);
    const std::size_t known = g_chaos.size();
    for (const auto point : kPoints) {
      if (name == point || spec == "all") {
        g_chaos.push_back("serve/" + std::string(point));
      }
    }
    if (g_chaos.size() == known) {
      std::cerr << "unknown " << flag << " point '" << name
                << "' (accept, frame_parse, enqueue, respond, stall, all)\n";
      return false;
    }
    if (comma == spec.size()) return true;
    start = comma + 1;
  }
}

int cmd_serve(int argc, char** /*argv*/) {
  if (argc != 2) return usage();  // everything is flag-driven
  if (g_stdio == g_port.has_value()) {
    std::cerr << "kmatch serve needs exactly one of --stdio or --port=<p>\n";
    return usage();
  }
  for (std::size_t i = 0; i < g_chaos.size(); ++i) {
    resilience::FaultConfig config;
    config.probability = g_chaos_prob;
    config.seed = g_chaos_seed + i;  // decorrelate the points' streams
    config.max_fires = 0;            // chaos is continuous, not one-shot
    resilience::FaultRegistry::instance().arm(g_chaos[i], config);
  }
  // The global budget flags double as the per-request defaults.
  if (g_budget.wall_ms > 0) g_limits.default_deadline_ms = g_budget.wall_ms;
  g_limits.max_proposals = g_budget.max_proposals;

  serve::ServeEngine engine(g_limits, serve::make_stream_sink(std::cout));
  serve::install_drain_signal_handlers(engine);

  if (g_stdio) {
    // Raw fd 0, not std::cin: FdReadBuf maps EINTR to EOF, so a drain
    // signal pops the blocked read and the pump returns.
    serve::FdReadBuf in(0);
    std::istream is(&in);
    serve::pump_stream(engine, is);
  } else {
    serve::TcpServer server(engine, *g_port);
    // The smoke script parses this line to learn an ephemeral port.
    std::cout << "listening on port " << server.port() << std::endl;
    server.run();
  }

  const auto drain = engine.drain();
  const auto& s = engine.stats();
  std::cerr << "serve: received " << s.received.load() << ", completed "
            << s.completed.load() << ", degraded " << s.degraded.load()
            << ", shed " << s.shed.load() << ", timeout " << s.timed_out.load()
            << ", error " << s.errors.load() << ", bad frames "
            << s.bad_frames.load() << ", responses dropped "
            << s.responses_dropped.load() << '\n';
  std::cerr << "serve: drain " << (drain.clean ? "clean" : "EXCEEDED") << " in "
            << drain.wall_ms << " ms"
            << (drain.cancelled ? " (in-flight work cancelled)" : "")
            << (drain.clean ? std::string{}
                            : ", " + std::to_string(drain.abandoned) +
                                  " request(s) still running")
            << '\n';
  return drain.clean ? 0 : 3;
}

int cmd_ping(int argc, char** /*argv*/) {
  if (argc != 2) return usage();  // everything is flag-driven
  if (g_ping.n > 4096) {  // --n= parses wider for mertens; ping keeps its cap
    std::cerr << "--n value out of range [1, 4096] for ping\n";
    return usage();
  }
  g_ping.deadline_ms = g_budget.wall_ms;
  const serve::PingOptions& options = g_ping;

  if (!g_emit.empty()) {  // offline: write the workload as raw frames
    std::ofstream out(g_emit, std::ios::binary);
    if (!out) {
      std::cerr << "cannot write frames to '" << g_emit << "'\n";
      return 2;
    }
    serve::emit_request_frames(options, out);
    std::cout << "wrote " << options.requests << " frames to " << g_emit
              << '\n';
    return 0;
  }

  if (options.port == 0) {
    std::cerr << "kmatch ping needs --port=<p> (1..65535)\n";
    return usage();
  }
  const bool fetch_metrics = !g_metrics_out.empty();
  const auto report = serve::run_ping(options, fetch_metrics);
  std::cout << "ping: " << options.requests << " requests, acked "
            << report.acked << " (ok " << report.ok << ", degraded "
            << report.degraded << ", timeout " << report.timeouts << ", error "
            << report.errors << "), shed-retries " << report.shed_retries
            << ", resends " << report.resends << ", reconnects "
            << report.reconnects << ", duplicates " << report.duplicates
            << ", lost " << report.lost << ", inconsistent "
            << report.inconsistent << '\n';
  if (fetch_metrics) {
    if (report.metrics_body.empty()) {
      std::cerr << "no STATS response for the metrics scrape\n";
      return 1;
    }
    std::ofstream out(g_metrics_out);
    if (!out) {
      std::cerr << "cannot write metrics to '" << g_metrics_out << "'\n";
      return 2;
    }
    out << report.metrics_body << '\n';
  }
  return report.success() ? 0 : 1;
}

/// `kmatch mertens` — regenerate the Mertens (cond-mat/0509221) random-SMP
/// asymptotics on generator-backed uniform bipartite instances: the mean
/// proposer partner rank tracks ln n, the mean responder partner rank tracks
/// n / ln n, and the proposal count tracks n ln n. Runs entirely on the
/// implicit backend (docs/PERFORMANCE.md §Implicit preferences), so n can
/// far exceed what explicit tables would hold — memory stays O(n).
int cmd_mertens(int argc, char** /*argv*/) {
  if (argc != 2) return usage();  // everything is flag-driven
  const Index n = g_mertens_n;
  const double ln_n = std::log(static_cast<double>(n));
  const double n_over_ln_n = static_cast<double>(n) / ln_n;
  const double n_ln_n = static_cast<double>(n) * ln_n;

  TableWriter table(
      "Mertens asymptotics, implicit uniform bipartite (n=" +
          std::to_string(n) + ", " + std::to_string(g_mertens_samples) +
          " seed(s); expect ~1.0 in the ratio columns)",
      {"seed", "solve ms", "proposals", "/(n ln n)", "proposer mean",
       "/ln n", "responder mean", "/(n/ln n)"});
  double sum_prop_ratio = 0.0;
  double sum_resp_ratio = 0.0;
  double sum_proposals_ratio = 0.0;
  for (std::int64_t s = 0; s < g_mertens_samples; ++s) {
    const std::uint64_t seed = g_ping.seed + static_cast<std::uint64_t>(s);
    const auto inst = KPartiteInstance::make_implicit(
        2, n, {prefs::imp::Family::uniform, seed});
    const auto result = gs::gale_shapley_queue(inst, 0, 1);
    double psum = 0.0;
    double rsum = 0.0;
    for (Index p = 0; p < n; ++p) {
      const Index r = result.proposer_match[static_cast<std::size_t>(p)];
      psum += inst.rank_of({0, p}, {1, r});
      rsum += inst.rank_of({1, r}, {0, p});
    }
    const double pmean = psum / static_cast<double>(n);
    const double rmean = rsum / static_cast<double>(n);
    sum_prop_ratio += pmean / ln_n;
    sum_resp_ratio += rmean / n_over_ln_n;
    sum_proposals_ratio += static_cast<double>(result.proposals) / n_ln_n;
    table.add_row({static_cast<std::int64_t>(seed), result.wall_ms,
                   result.proposals,
                   static_cast<double>(result.proposals) / n_ln_n, pmean,
                   pmean / ln_n, rmean, rmean / n_over_ln_n});
  }
  table.print(std::cout);
  const double inv = 1.0 / static_cast<double>(g_mertens_samples);
  std::cout << "means over " << g_mertens_samples
            << " seed(s): proposer rank = " << sum_prop_ratio * inv
            << "x ln n, responder rank = " << sum_resp_ratio * inv
            << "x n/ln n, proposals = " << sum_proposals_ratio * inv
            << "x n ln n\n";
  return 0;
}

int cmd_verify(int argc, char** /*argv*/) {
  if (argc != 2) return usage();  // everything is flag-driven
  g_verify.pool_threads = g_sweep_threads > 1 ? g_sweep_threads : 0;
  g_verify.report = &std::cout;  // mismatch/repro JSON lines to stdout
  const auto summary = verify::run_verification(g_verify);
  g_telemetry = summary.telemetry;
  std::cerr << "verify: " << summary.seeds_run << " seeds, "
            << summary.checks << " checks, " << summary.mismatch_count
            << " mismatch(es) in " << summary.wall_ms << " ms\n";
  if (summary.clean()) return 0;
  for (const auto& path : summary.repro_paths) {
    std::cerr << "minimal repro written to " << path << '\n';
  }
  return 4;
}

/// One command-line flag: `--name=<value>`, or a bare `--name` switch. `set`
/// parses the value (empty for a switch) into the option it names, or
/// prints why it cannot and returns false.
struct Flag {
  std::string_view name;
  std::function<bool(std::string_view flag, const char* value)> set;
  bool is_switch = false;
};

/// A flag whose value is a T in [lo, hi] (examples_cli::parse_arg).
template <typename T, typename Store>
Flag number(std::string_view name, T lo, T hi, Store store) {
  return {name, [=](std::string_view flag, const char* value) {
            const auto v = parse_arg<T>(
                value, lo, hi, (std::string(flag) + " value").c_str());
            if (v) store(*v);
            return v.has_value();
          }};
}

/// A flag whose value is a non-empty path.
Flag path(std::string_view name, std::string& target) {
  return {name, [&target](std::string_view flag, const char* value) {
            if (*value == '\0') {
              std::cerr << "invalid " << flag
                        << " value '' (expected a path)\n";
              return false;
            }
            target = value;
            return true;
          }};
}

/// A flag whose value names one of the choices `parse` knows.
template <typename Parse, typename Store>
Flag choice(std::string_view name, Parse parse, Store store) {
  return {name, [=](std::string_view flag, const char* value) {
            const auto v = parse(value);
            if (!v) {
              std::cerr << "unknown " << flag << " '" << value << "'\n";
              return false;
            }
            store(*v);
            return true;
          }};
}

/// A switch: a bare `--name` that sets `target` to `value`.
Flag toggle(std::string_view name, bool& target, bool value) {
  return {name, [&target, value](std::string_view, const char*) {
            target = value;
            return true;
          }, true};
}

constexpr auto kU64Max = std::numeric_limits<std::uint64_t>::max();

const Flag kFlags[] = {
    // Global flags (every solving command).
    number("--deadline-ms", 0.0, 1e15, [](double v) { g_budget.wall_ms = v; }),
    number<std::int64_t>("--max-proposals", 0,
                         std::numeric_limits<std::int64_t>::max(),
                         [](std::int64_t v) { g_budget.max_proposals = v; }),
    toggle("--fallback", g_fallback, true),
    number<std::int64_t>("--sweep-threads", 1, 4096, [](std::int64_t v) {
      g_sweep_threads = static_cast<std::size_t>(v);
    }),
    path("--stats-json", g_stats_json),
    path("--stats-prom", g_stats_prom),
    // kmatch verify.
    number<std::int64_t>("--seeds", 1, 100'000'000,
                         [](std::int64_t v) { g_verify.seeds = v; }),
    number<std::uint64_t>("--base-seed", 0, kU64Max,
                          [](std::uint64_t v) { g_verify.base_seed = v; }),
    choice("--shape",
           [](std::string_view v) -> std::optional<std::vector<verify::Shape>> {
             if (v == "all") return verify::VerifyOptions{}.shapes;
             if (const auto shape = verify::parse_shape(v)) {
               return std::vector{*shape};
             }
             return std::nullopt;
           },
           [](const std::vector<verify::Shape>& v) { g_verify.shapes = v; }),
    choice("--dist", verify::parse_dist,
           [](verify::Dist v) { g_verify.gen.dist = v; }),
    choice("--sabotage", verify::parse_sabotage,
           [](verify::Sabotage v) { g_verify.sabotage = v; }),
    path("--repro-dir", g_verify.repro_dir),
    number<std::int32_t>("--churn", 0, 1000,
                         [](std::int32_t v) { g_verify.churn_steps = v; }),
    // kmatch serve (and --port for ping).
    toggle("--stdio", g_stdio, true),
    number<std::int64_t>("--port", 0, 65535, [](std::int64_t v) {
      g_port = static_cast<std::uint16_t>(v);
      g_ping.port = *g_port;
    }),
    number<std::int64_t>("--workers", 1, 1024, [](std::int64_t v) {
      g_limits.workers = static_cast<std::size_t>(v);
    }),
    number<std::int64_t>("--queue-depth", 1, 1'000'000, [](std::int64_t v) {
      g_limits.queue_depth = static_cast<std::size_t>(v);
    }),
    number("--max-deadline-ms", 1.0, 1e15,
           [](double v) { g_limits.max_deadline_ms = v; }),
    number("--shed-retry-ms", 0.0, 1e9,
           [](double v) { g_limits.shed_retry_ms = v; }),
    number("--drain-deadline-ms", 0.0, 1e9,
           [](double v) { g_limits.drain_deadline_ms = v; }),
    number("--drain-grace-ms", 0.0, 1e9,
           [](double v) { g_limits.drain_grace_ms = v; }),
    number<std::int32_t>("--tree-attempts", 0, 64, [](std::int32_t v) {
      g_limits.max_tree_attempts = v;
    }),
    toggle("--no-degraded", g_limits.allow_degraded, false),
    {"--chaos", parse_chaos},
    number<std::uint64_t>("--chaos-seed", 0, kU64Max,
                          [](std::uint64_t v) { g_chaos_seed = v; }),
    number("--chaos-prob", 0.0, 1.0, [](double v) { g_chaos_prob = v; }),
    number("--chaos-stall-ms", 0.0, 1e9,
           [](double v) { g_limits.chaos_stall_ms = v; }),
    // kmatch ping (and --n, --seed for mertens).
    number<std::int64_t>("--requests", 1, 10'000'000, [](std::int64_t v) {
      g_ping.requests = static_cast<std::size_t>(v);
    }),
    number<std::int64_t>("--window", 1, 4096, [](std::int64_t v) {
      g_ping.window = static_cast<std::size_t>(v);
    }),
    number<std::int32_t>("--k", 2, 64, [](std::int32_t v) { g_ping.k = v; }),
    // Ping checks its own 4096 cap at use; mertens runs on the implicit
    // backend, so n can be huge in O(n) memory.
    number<std::int32_t>("--n", 1, 2'000'000, [](std::int32_t v) {
      g_ping.n = v;
      g_mertens_n = v;
    }),
    number<std::int64_t>("--samples", 1, 10'000,
                         [](std::int64_t v) { g_mertens_samples = v; }),
    number<std::uint64_t>("--seed", 0, kU64Max,
                          [](std::uint64_t v) { g_ping.seed = v; }),
    number("--response-timeout-ms", 1.0, 1e9,
           [](double v) { g_ping.response_timeout_ms = v; }),
    path("--emit", g_emit),
    path("--metrics-out", g_metrics_out),
};

}  // namespace

int main(int argc, char** argv) {
  // Strip flags anywhere on the line; commands see the remainder.
  std::vector<char*> args;
  args.push_back(argv[0]);
  for (int i = 1; i < argc; ++i) {
    const std::string_view a = argv[i];
    if (!a.starts_with("--")) {
      args.push_back(argv[i]);
      continue;
    }
    const std::size_t eq = std::min(a.find('='), a.size());
    const std::string_view name = a.substr(0, eq);
    const auto flag =
        std::find_if(std::begin(kFlags), std::end(kFlags),
                     [&](const Flag& f) { return name == f.name; });
    if (flag == std::end(kFlags)) {
      std::cerr << "unknown flag '" << a << "'\n";
      return usage();
    }
    if ((eq == a.size()) != flag->is_switch) {
      std::cerr << name << (flag->is_switch ? " takes no value\n"
                                            : " needs a value\n");
      return usage();
    }
    if (!flag->set(name, argv[i] + std::min(eq + 1, a.size()))) return usage();
  }
  const int nargs = static_cast<int>(args.size());
  if (nargs < 2) return usage();
  const std::string cmd = args[1];
  int rc = -1;
  try {
    if (cmd == "gen") rc = cmd_gen(nargs, args.data());
    else if (cmd == "info") rc = cmd_info(nargs, args.data());
    else if (cmd == "kary") rc = cmd_kary(nargs, args.data());
    else if (cmd == "binary") rc = cmd_binary(nargs, args.data());
    else if (cmd == "roommates") rc = cmd_roommates(nargs, args.data());
    else if (cmd == "coalitions") rc = cmd_coalitions(nargs, args.data());
    else if (cmd == "example") rc = cmd_example(nargs, args.data());
    else if (cmd == "stats") rc = cmd_stats(nargs, args.data());
    else if (cmd == "dot") rc = cmd_dot(nargs, args.data());
    else if (cmd == "verify") rc = cmd_verify(nargs, args.data());
    else if (cmd == "serve") rc = cmd_serve(nargs, args.data());
    else if (cmd == "ping") rc = cmd_ping(nargs, args.data());
    else if (cmd == "mertens") rc = cmd_mertens(nargs, args.data());
  } catch (const kstable::ExecutionAborted& e) {
    std::cerr << "aborted: " << e.what() << '\n';
    write_stats();  // aborted solves still export whatever was recorded
    return 3;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 2;
  }
  if (rc < 0) return usage();
  const int stats_rc = write_stats();
  return rc == 0 ? stats_rc : rc;
}
