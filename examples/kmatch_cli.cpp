// kmatch: a small command-line front-end to the kstable library.
//
// Usage:
//   kmatch gen   <k> <n> <seed> <file>       write a random instance
//   kmatch kary  <file> [tree]               stable k-ary matching (Algorithm 1)
//                                            tree: path | star | random |
//                                            priority | best (TreeSweep argmin
//                                            over all k^(k-2) trees, small k)
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
//   --sweep-threads=<n>    pool size for 'kary <file> best' and the
//                          speculative --fallback ladder (checked, >= 1;
//                          1 = sequential, the default)
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

#include <cmath>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "core/kstable.hpp"
#include "example_args.hpp"
#include "serve/client.hpp"
#include "serve/engine.hpp"
#include "serve/fd_stream.hpp"
#include "serve/server.hpp"

namespace {

using namespace kstable;
using examples_cli::parse_arg;

/// Flags shared by every solving command; set once in main().
resilience::Budget g_budget;
bool g_fallback = false;
std::size_t g_sweep_threads = 1;
std::string g_stats_json;
std::string g_stats_prom;
/// `kmatch verify` knobs (defaults mirror verify::VerifyOptions).
verify::VerifyOptions g_verify;
/// `kmatch serve` knobs (defaults mirror serve::ServeLimits). The global
/// --deadline-ms doubles as the server's default per-request deadline and
/// --max-proposals as the per-request proposal cap.
struct ServeFlags {
  bool stdio = false;
  std::optional<std::uint16_t> port;
  std::size_t workers = 2;
  std::size_t queue_depth = 16;
  double max_deadline_ms = 10000.0;
  double shed_retry_ms = 25.0;
  double drain_deadline_ms = 2000.0;
  double drain_grace_ms = 500.0;
  std::int32_t tree_attempts = 2;
  bool no_degraded = false;
  std::string chaos;           ///< comma list of serve/* points, or "all"
  std::uint64_t chaos_seed = 1;
  double chaos_prob = 0.05;
  double chaos_stall_ms = 250.0;
} g_serve;
/// `kmatch ping` knobs (defaults mirror serve::PingOptions).
struct PingFlags {
  std::size_t requests = 100;
  std::size_t window = 8;
  std::int32_t k = 3;
  std::int32_t n = 4;
  std::uint64_t seed = 1;
  double response_timeout_ms = 2000.0;
  std::string emit;         ///< write the workload as raw frames, don't connect
  std::string metrics_out;  ///< scrape a STATS body after the workload
} g_ping;
/// `kmatch mertens` knobs. n deliberately ranges far beyond what explicit
/// tables could hold — the experiment runs on the implicit backend only.
struct MertensFlags {
  Index n = 100000;
  std::int64_t samples = 3;
  std::uint64_t seed = 1;
} g_mertens;
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
               "       --sweep-threads=<n>\n"
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
  // Lives outside the branches: the pool must outlive the sweep it backs.
  std::optional<ThreadPool> pool;
  if (g_fallback) {
    resilience::FallbackOptions opts;
    opts.per_attempt = g_budget;
    if (g_sweep_threads > 1) {
      // Race the strict rungs speculatively across the pool.
      pool.emplace(g_sweep_threads);
      opts.pool = &*pool;
      opts.speculative = true;
    }
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
    core::TreeSweepOptions sopts;
    if (prufer::cayley_count(k) > sopts.max_trees) {
      std::cerr << "kary best sweeps all k^(k-2) trees; k = " << k
                << " spans " << prufer::cayley_count(k)
                << ", above the " << sopts.max_trees << "-tree guard\n";
      return 2;
    }
    resilience::ExecControl* control = budget_control();
    sopts.control = control;
    core::GsEdgeCache cache(inst);
    sopts.cache = &cache;
    if (g_sweep_threads > 1) {
      pool.emplace(g_sweep_threads);
      sopts.pool = &*pool;
    }
    auto sweep = core::sweep_all_trees(inst, sopts);
    g_telemetry = sweep.telemetry;
    std::cout << "swept " << sweep.stats.trees << " trees ("
              << sweep.stats.workers << " worker(s), " << sweep.stats.steals
              << " steals); best tree index " << sweep.best_index
              << ", bound-pair cost " << sweep.best_cost << '\n';
    tree = *sweep.best_tree;
    result = std::move(*sweep.best);
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

/// Arms the serve/* fault points named in --chaos. Returns false (usage) on
/// an unknown point name.
bool arm_serve_chaos(const std::string& spec) {
  static constexpr struct {
    const char* flag;
    const char* point;
  } kPoints[] = {
      {"accept", "serve/accept"},       {"frame_parse", "serve/frame_parse"},
      {"enqueue", "serve/enqueue"},     {"respond", "serve/respond"},
      {"stall", "serve/stall"},
  };
  std::vector<std::string> chosen;
  if (spec == "all") {
    for (const auto& entry : kPoints) chosen.push_back(entry.point);
  } else {
    std::size_t start = 0;
    while (start <= spec.size()) {
      const std::size_t comma = spec.find(',', start);
      const std::string name =
          spec.substr(start, comma == std::string::npos ? comma : comma - start);
      bool known = false;
      for (const auto& entry : kPoints) {
        if (name == entry.flag) {
          chosen.push_back(entry.point);
          known = true;
          break;
        }
      }
      if (!known) {
        std::cerr << "unknown --chaos point '" << name
                  << "' (accept, frame_parse, enqueue, respond, stall, all)\n";
        return false;
      }
      if (comma == std::string::npos) break;
      start = comma + 1;
    }
  }
  for (std::size_t i = 0; i < chosen.size(); ++i) {
    resilience::FaultConfig config;
    config.probability = g_serve.chaos_prob;
    config.seed = g_serve.chaos_seed + i;  // decorrelate the points' streams
    config.max_fires = 0;                  // chaos is continuous, not one-shot
    resilience::FaultRegistry::instance().arm(chosen[i], config);
  }
  return true;
}

int cmd_serve(int argc, char** /*argv*/) {
  if (argc != 2) return usage();  // everything is flag-driven
  if (g_serve.stdio == g_serve.port.has_value()) {
    std::cerr << "kmatch serve needs exactly one of --stdio or --port=<p>\n";
    return usage();
  }
  if (!g_serve.chaos.empty() && !arm_serve_chaos(g_serve.chaos)) {
    return usage();
  }

  serve::ServeLimits limits;
  limits.workers = g_serve.workers;
  limits.queue_depth = g_serve.queue_depth;
  if (g_budget.wall_ms > 0) limits.default_deadline_ms = g_budget.wall_ms;
  limits.max_deadline_ms = g_serve.max_deadline_ms;
  limits.shed_retry_ms = g_serve.shed_retry_ms;
  limits.drain_deadline_ms = g_serve.drain_deadline_ms;
  limits.drain_grace_ms = g_serve.drain_grace_ms;
  limits.max_proposals = g_budget.max_proposals;
  limits.max_tree_attempts = g_serve.tree_attempts;
  limits.allow_degraded = !g_serve.no_degraded;
  limits.chaos_stall_ms = g_serve.chaos_stall_ms;

  serve::ServeEngine engine(limits, serve::make_stream_sink(std::cout));
  serve::install_drain_signal_handlers(engine);

  if (g_serve.stdio) {
    // Raw fd 0, not std::cin: FdReadBuf maps EINTR to EOF, so a drain
    // signal pops the blocked read and the pump returns.
    serve::FdReadBuf in(0);
    std::istream is(&in);
    serve::pump_stream(engine, is);
  } else {
    serve::TcpServer server(engine, *g_serve.port);
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
  serve::PingOptions options;
  options.port = g_serve.port.value_or(0);
  options.requests = g_ping.requests;
  options.window = g_ping.window;
  options.k = g_ping.k;
  options.n = g_ping.n;
  options.seed = g_ping.seed;
  options.deadline_ms = g_budget.wall_ms;
  options.response_timeout_ms = g_ping.response_timeout_ms;

  if (!g_ping.emit.empty()) {  // offline: write the workload as raw frames
    std::ofstream out(g_ping.emit, std::ios::binary);
    if (!out) {
      std::cerr << "cannot write frames to '" << g_ping.emit << "'\n";
      return 2;
    }
    serve::emit_request_frames(options, out);
    std::cout << "wrote " << options.requests << " frames to " << g_ping.emit
              << '\n';
    return 0;
  }

  if (!g_serve.port.has_value() || *g_serve.port == 0) {
    std::cerr << "kmatch ping needs --port=<p> (1..65535)\n";
    return usage();
  }
  const bool fetch_metrics = !g_ping.metrics_out.empty();
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
    std::ofstream out(g_ping.metrics_out);
    if (!out) {
      std::cerr << "cannot write metrics to '" << g_ping.metrics_out << "'\n";
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
  const Index n = g_mertens.n;
  const double ln_n = std::log(static_cast<double>(n));
  const double n_over_ln_n = static_cast<double>(n) / ln_n;
  const double n_ln_n = static_cast<double>(n) * ln_n;

  TableWriter table(
      "Mertens asymptotics, implicit uniform bipartite (n=" +
          std::to_string(n) + ", " + std::to_string(g_mertens.samples) +
          " seed(s); expect ~1.0 in the ratio columns)",
      {"seed", "solve ms", "proposals", "/(n ln n)", "proposer mean",
       "/ln n", "responder mean", "/(n/ln n)"});
  double sum_prop_ratio = 0.0;
  double sum_resp_ratio = 0.0;
  double sum_proposals_ratio = 0.0;
  for (std::int64_t s = 0; s < g_mertens.samples; ++s) {
    const std::uint64_t seed = g_mertens.seed + static_cast<std::uint64_t>(s);
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
  const double inv = 1.0 / static_cast<double>(g_mertens.samples);
  std::cout << "means over " << g_mertens.samples
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

}  // namespace

int main(int argc, char** argv) {
  // Strip global flags anywhere on the line; commands see the remainder.
  std::vector<char*> args;
  args.push_back(argv[0]);
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a.rfind("--deadline-ms=", 0) == 0) {
      const auto ms = parse_arg<double>(a.c_str() + 14, 0.0, 1e15,
                                        "--deadline-ms value");
      if (!ms) return usage();
      g_budget.wall_ms = *ms;
    } else if (a.rfind("--max-proposals=", 0) == 0) {
      const auto cap = parse_arg<std::int64_t>(
          a.c_str() + 16, 0, std::numeric_limits<std::int64_t>::max(),
          "--max-proposals value");
      if (!cap) return usage();
      g_budget.max_proposals = *cap;
    } else if (a.rfind("--stats-json=", 0) == 0) {
      g_stats_json = a.substr(13);
      if (g_stats_json.empty()) return usage();
    } else if (a.rfind("--stats-prom=", 0) == 0) {
      g_stats_prom = a.substr(13);
      if (g_stats_prom.empty()) return usage();
    } else if (a.rfind("--sweep-threads=", 0) == 0) {
      const auto threads = parse_arg<std::int64_t>(
          a.c_str() + 16, 1, 4096, "--sweep-threads value");
      if (!threads) return usage();
      g_sweep_threads = static_cast<std::size_t>(*threads);
    } else if (a == "--fallback") {
      g_fallback = true;
    } else if (a == "--stdio") {
      g_serve.stdio = true;
    } else if (a.rfind("--port=", 0) == 0) {
      const auto port =
          parse_arg<std::int64_t>(a.c_str() + 7, 0, 65535, "--port value");
      if (!port) return usage();
      g_serve.port = static_cast<std::uint16_t>(*port);
    } else if (a.rfind("--workers=", 0) == 0) {
      const auto workers =
          parse_arg<std::int64_t>(a.c_str() + 10, 1, 1024, "--workers value");
      if (!workers) return usage();
      g_serve.workers = static_cast<std::size_t>(*workers);
    } else if (a.rfind("--queue-depth=", 0) == 0) {
      const auto depth = parse_arg<std::int64_t>(a.c_str() + 14, 1, 1'000'000,
                                                 "--queue-depth value");
      if (!depth) return usage();
      g_serve.queue_depth = static_cast<std::size_t>(*depth);
    } else if (a.rfind("--max-deadline-ms=", 0) == 0) {
      const auto value = parse_arg<double>(a.c_str() + 18, 1.0, 1e15,
                                           "--max-deadline-ms value");
      if (!value) return usage();
      g_serve.max_deadline_ms = *value;
    } else if (a.rfind("--shed-retry-ms=", 0) == 0) {
      const auto value = parse_arg<double>(a.c_str() + 16, 0.0, 1e9,
                                           "--shed-retry-ms value");
      if (!value) return usage();
      g_serve.shed_retry_ms = *value;
    } else if (a.rfind("--drain-deadline-ms=", 0) == 0) {
      const auto value = parse_arg<double>(a.c_str() + 20, 0.0, 1e9,
                                           "--drain-deadline-ms value");
      if (!value) return usage();
      g_serve.drain_deadline_ms = *value;
    } else if (a.rfind("--drain-grace-ms=", 0) == 0) {
      const auto value = parse_arg<double>(a.c_str() + 17, 0.0, 1e9,
                                           "--drain-grace-ms value");
      if (!value) return usage();
      g_serve.drain_grace_ms = *value;
    } else if (a.rfind("--tree-attempts=", 0) == 0) {
      const auto value = parse_arg<std::int32_t>(a.c_str() + 16, 0, 64,
                                                 "--tree-attempts value");
      if (!value) return usage();
      g_serve.tree_attempts = *value;
    } else if (a == "--no-degraded") {
      g_serve.no_degraded = true;
    } else if (a.rfind("--chaos=", 0) == 0) {
      g_serve.chaos = a.substr(8);
      if (g_serve.chaos.empty()) return usage();
    } else if (a.rfind("--chaos-seed=", 0) == 0) {
      const auto value = parse_arg<std::uint64_t>(
          a.c_str() + 13, 0, std::numeric_limits<std::uint64_t>::max(),
          "--chaos-seed value");
      if (!value) return usage();
      g_serve.chaos_seed = *value;
    } else if (a.rfind("--chaos-prob=", 0) == 0) {
      const auto value =
          parse_arg<double>(a.c_str() + 13, 0.0, 1.0, "--chaos-prob value");
      if (!value) return usage();
      g_serve.chaos_prob = *value;
    } else if (a.rfind("--chaos-stall-ms=", 0) == 0) {
      const auto value = parse_arg<double>(a.c_str() + 17, 0.0, 1e9,
                                           "--chaos-stall-ms value");
      if (!value) return usage();
      g_serve.chaos_stall_ms = *value;
    } else if (a.rfind("--requests=", 0) == 0) {
      const auto value = parse_arg<std::int64_t>(a.c_str() + 11, 1, 10'000'000,
                                                 "--requests value");
      if (!value) return usage();
      g_ping.requests = static_cast<std::size_t>(*value);
    } else if (a.rfind("--window=", 0) == 0) {
      const auto value =
          parse_arg<std::int64_t>(a.c_str() + 9, 1, 4096, "--window value");
      if (!value) return usage();
      g_ping.window = static_cast<std::size_t>(*value);
    } else if (a.rfind("--k=", 0) == 0) {
      const auto value = parse_arg<std::int32_t>(a.c_str() + 4, 2, 64,
                                                 "--k value");
      if (!value) return usage();
      g_ping.k = *value;
    } else if (a.rfind("--n=", 0) == 0) {
      // Shared by ping (checked against its own 4096 cap at use) and
      // mertens (implicit backend, so n can be huge in O(n) memory).
      const auto value = parse_arg<std::int32_t>(a.c_str() + 4, 1, 2'000'000,
                                                 "--n value");
      if (!value) return usage();
      g_ping.n = *value;
      g_mertens.n = *value;
    } else if (a.rfind("--samples=", 0) == 0) {
      const auto value = parse_arg<std::int64_t>(a.c_str() + 10, 1, 10'000,
                                                 "--samples value");
      if (!value) return usage();
      g_mertens.samples = *value;
    } else if (a.rfind("--seed=", 0) == 0) {
      const auto value = parse_arg<std::uint64_t>(
          a.c_str() + 7, 0, std::numeric_limits<std::uint64_t>::max(),
          "--seed value");
      if (!value) return usage();
      g_ping.seed = *value;
      g_mertens.seed = *value;
    } else if (a.rfind("--response-timeout-ms=", 0) == 0) {
      const auto value = parse_arg<double>(a.c_str() + 22, 1.0, 1e9,
                                           "--response-timeout-ms value");
      if (!value) return usage();
      g_ping.response_timeout_ms = *value;
    } else if (a.rfind("--emit=", 0) == 0) {
      g_ping.emit = a.substr(7);
      if (g_ping.emit.empty()) return usage();
    } else if (a.rfind("--metrics-out=", 0) == 0) {
      g_ping.metrics_out = a.substr(14);
      if (g_ping.metrics_out.empty()) return usage();
    } else if (a.rfind("--seeds=", 0) == 0) {
      const auto seeds =
          parse_arg<std::int64_t>(a.c_str() + 8, 1, 100'000'000,
                                  "--seeds value");
      if (!seeds) return usage();
      g_verify.seeds = *seeds;
    } else if (a.rfind("--base-seed=", 0) == 0) {
      const auto base = parse_arg<std::uint64_t>(
          a.c_str() + 12, 0, std::numeric_limits<std::uint64_t>::max(),
          "--base-seed value");
      if (!base) return usage();
      g_verify.base_seed = *base;
    } else if (a.rfind("--shape=", 0) == 0) {
      const std::string value = a.substr(8);
      if (value == "all") {
        g_verify.shapes = {verify::Shape::bipartite, verify::Shape::kpartite,
                           verify::Shape::roommates};
      } else if (const auto shape = verify::parse_shape(value)) {
        g_verify.shapes = {*shape};
      } else {
        std::cerr << "unknown --shape '" << value << "'\n";
        return usage();
      }
    } else if (a.rfind("--dist=", 0) == 0) {
      const auto dist = verify::parse_dist(a.substr(7));
      if (!dist) {
        std::cerr << "unknown --dist '" << a.substr(7) << "'\n";
        return usage();
      }
      g_verify.gen.dist = *dist;
    } else if (a.rfind("--sabotage=", 0) == 0) {
      const auto mode = verify::parse_sabotage(a.substr(11));
      if (!mode) {
        std::cerr << "unknown --sabotage '" << a.substr(11) << "'\n";
        return usage();
      }
      g_verify.sabotage = *mode;
    } else if (a.rfind("--repro-dir=", 0) == 0) {
      g_verify.repro_dir = a.substr(12);
      if (g_verify.repro_dir.empty()) return usage();
    } else if (a.rfind("--churn=", 0) == 0) {
      const auto churn =
          parse_arg<std::int32_t>(a.c_str() + 8, 0, 1000, "--churn value");
      if (!churn) return usage();
      g_verify.churn_steps = *churn;
    } else if (a.rfind("--", 0) == 0) {
      std::cerr << "unknown flag '" << a << "'\n";
      return usage();
    } else {
      args.push_back(argv[i]);
    }
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
