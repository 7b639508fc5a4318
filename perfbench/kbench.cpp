// kbench — the kstable benchmark harness. One process runs one workload for
// a fixed window and prints one JSON result line (perfbench/README.md):
//
//   kbench --workload <serve|bulk|churn> --seed <n> --seconds <s>
//          --trace <0|1>
//
// Each workload repeats one operation a user of kstable waits on:
//   serve  one SOLVE request over loopback TCP to an in-process ServeEngine,
//          with `kmatch ping`'s window of requests outstanding
//   bulk   one Gale-Shapley solve of a large implicit bipartite instance
//   churn  one round of random preference edits, each re-stabilized at once
//          by incremental rematch(), over independent markets
// Inputs are a pure function of --seed and are made outside every timed
// span. Every operation's output is checked against an independent
// reference outside the timed span.
//
// --trace 0 prints the end-to-end metrics: operations per busy second, the
// 90th-percentile operation latency, and the set-up time. A set-up is the
// program's start-up from ready inputs (server, its worker pool and the
// connection, edge caches and initial bindings, warm workspaces) plus the
// latency of the first operation after it; setup_s is the median of
// kSetupRepeats set-ups, one before the window and the rest spread over it.
// Set-ups and their first operations are not counted as operations. The
// median latency is deliberately not a metric: on shared virtual machines
// cache-heavy code alternates between two speeds for seconds at a time, and
// a median that falls between the two modes flips from run to run
// (perfbench/README.md). Per-operation deciles go to standard error.
// --trace 1 wraps the calls into each layer in spans and prints per-layer
// times and counts per operation instead; layers a workload does not pass
// through read 0.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <iostream>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/kstable.hpp"
#include "serve/client.hpp"
#include "serve/engine.hpp"
#include "serve/fd_stream.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"

namespace {

using namespace kstable;

constexpr std::size_t kSetupRepeats = 9;

/// Per-layer metrics in BENCHMARK.json order (run.py refuses a result whose
/// names or units differ from it). Each is a sum over the window divided by
/// the operation count, except the ones a workload derives at the end
/// (Trace::fixed).
struct LayerMetric {
  const char* name;
  const char* unit;
};
constexpr LayerMetric kLayerMetrics[] = {
    {"serve.rtt_us", "us"},
    {"serve.server_us", "us"},
    {"serve.wait_us", "us"},
    {"serve.frame_decode_us", "us"},
    {"serve.parse_us", "us"},
    {"serve.ladder_us", "us"},
    {"serve.encode_us", "us"},
    {"serve.request_bytes", "bytes"},
    {"serve.response_bytes", "bytes"},
    {"binding.self_us", "us"},
    {"gs.us", "us"},
    {"gs.proposals", "count"},
    {"gs.ns_per_proposal", "ns"},
    {"cache.hits", "count"},
    {"cache.misses", "count"},
    {"churn.mutate_us", "us"},
    {"churn.rematch_us", "us"},
    {"churn.slots_invalidated", "count"},
    {"churn.edges_warm", "count"},
    {"churn.warm_over_cold", "ratio"},
    {"process.peak_rss_mib", "MiB"},
};

/// Span durations and counters of one traced run.
struct Trace {
  std::map<std::string, double> per_op;  ///< summed, divided by op count
  std::map<std::string, double> fixed;   ///< reported as set
  void add(const char* name, double value) { per_op[name] += value; }
};

/// One timed operation: its latency, the time the harness spent on it (what
/// ops_per_s divides by; the latency itself for closed-loop workloads), and
/// whether its output passed the check.
struct OpResult {
  double ms = 0.0;
  double busy_ms = 0.0;
  bool ok = false;
};

class Workload {
 public:
  Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;
  virtual ~Workload() = default;

  /// Untimed: tears down an earlier set-up and readies its inputs, which
  /// the constructor made from the seed.
  virtual void prepare() {}
  /// Timed: starts the program's part from the prepared inputs — servers,
  /// caches, warm workspaces. Throws on failure.
  virtual void setup() = 0;
  /// Runs one operation, timing only the operation, then checks its output.
  /// `trace` is non-null in traced runs and receives the layer spans.
  virtual OpResult run_once(Trace* trace) = 0;
  /// Checks that need the whole window, and derived per-layer entries.
  /// Returns false when a check failed.
  virtual bool finish(Trace* /*trace*/, std::int64_t /*ops*/) { return true; }
};

double gs_us(const gs::GsResult& result) { return result.wall_ms * 1e3; }

// --- serve -----------------------------------------------------------------

/// `kmatch serve` traffic as the repository's own client makes it: an
/// in-process ServeEngine with the server's default limits behind the TCP
/// transport, driven over loopback the way `kmatch ping` drives it. Bodies
/// come from serve::make_request_bodies and at most PingOptions::window (8)
/// requests are outstanding, so requests wait in admission behind the
/// engine's two workers. ping's k = 3 is kept; n is raised from ping's
/// smoke-test default of 4 to 64, so that a request carries k(k-1)n² =
/// 24576 list entries — the size at which the question the ROADMAP's E22
/// asks (does text parsing dwarf the solve?) has an answer to measure. An
/// operation is one request: its latency runs from issue to answer, and its
/// busy time is the harness's wait for the answer (the window topped up
/// first), so ops_per_s is the served request rate.
class ServeWorkload final : public Workload {
 public:
  explicit ServeWorkload(std::uint64_t seed) {
    serve::PingOptions options;
    options.requests = kBodies;
    options.n = kSize;
    options.seed = seed;
    window_ = options.window;
    bodies_ = serve::make_request_bodies(options);
    answers_.resize(bodies_.size());
    server_count0_ = server_wall().count();
    server_sum0_us_ = server_wall().sum();
  }
  ~ServeWorkload() override { stop(); }

  void prepare() override { stop(); }

  void setup() override {
    engine_ = std::make_unique<serve::ServeEngine>(
        serve::ServeLimits{}, [](const serve::Frame&) {});
    server_ = std::make_unique<serve::TcpServer>(*engine_, 0);
    server_thread_ = std::thread([server = server_.get()] { server->run(); });
    connect(server_->port());
  }

  OpResult run_once(Trace* trace) override {
    WallTimer busy;
    while (issued_.size() < window_) issue();
    const std::optional<serve::Frame> reply = serve::read_frame(*in_);
    const Clock::time_point answered = Clock::now();
    if (!reply) throw std::runtime_error("serve: server closed the connection");
    const auto it = issued_.find(reply->id);
    if (it == issued_.end()) {
      throw std::runtime_error("serve: answer to a request never sent");
    }
    const Issued request = it->second;
    issued_.erase(it);
    const double rtt_ms =
        std::chrono::duration<double, std::milli>(answered - request.at).count();
    const double busy_ms = busy.millis();

    // Identical bodies must get identical answers; finish() checks each
    // distinct answer against a reference solve.
    bool ok = reply->kind == serve::FrameKind::ok;
    if (ok) {
      std::string& first = answers_[request.body];
      if (first.empty()) first = reply->body;
      ok = first == reply->body;
    }
    if (trace != nullptr) {
      trace->add("serve.rtt_us", rtt_ms * 1e3);
      trace->add("serve.request_bytes", static_cast<double>(request.bytes));
      replay(frame_bytes(reply->id, bodies_[request.body]), *trace);
    }
    return {rtt_ms, busy_ms, ok};
  }

  bool finish(Trace* trace, std::int64_t ops) override {
    bool ok = true;
    for (std::size_t i = 0; i < bodies_.size(); ++i) {
      if (answers_[i].empty()) continue;
      const KPartiteInstance inst = io::from_string(bodies_[i]);
      const auto reference =
          core::iterative_binding(inst, trees::path(inst.genders()));
      ok = ok && io::to_string(reference.matching()) == answers_[i];
    }
    if (trace != nullptr && ops > 0) {
      // serve.solve_wall_ms is the engine's own span of each request (parse
      // + ladder + encode on a worker), here over every request of the run;
      // the rest of a round trip is waiting in admission behind the window,
      // the pool hand-off, framing and sockets.
      const std::int64_t requests = server_wall().count() - server_count0_;
      const double server_us =
          requests > 0 ? static_cast<double>(server_wall().sum() -
                                             server_sum0_us_) /
                             static_cast<double>(requests)
                       : 0.0;
      trace->fixed["serve.server_us"] = server_us;
      trace->fixed["serve.wait_us"] =
          trace->per_op["serve.rtt_us"] / static_cast<double>(ops) - server_us;
    }
    return ok;
  }

 private:
  using Clock = std::chrono::steady_clock;
  static constexpr Index kSize = 64;
  static constexpr std::size_t kBodies = 32;

  /// A request on the wire: which body, its frame size, when it left.
  struct Issued {
    std::size_t body = 0;
    std::size_t bytes = 0;
    Clock::time_point at;
  };

  static const obs::Histogram& server_wall() {
    return obs::MetricsRegistry::global().histogram("serve.solve_wall_ms");
  }

  static std::string frame_bytes(std::uint64_t id, const std::string& body) {
    std::ostringstream os;
    serve::write_frame(os,
                       serve::Frame::request(serve::FrameKind::solve, id, body));
    return os.str();
  }

  /// Sends the next request, cycling through the bodies (frame id i + 1
  /// carries body i mod kBodies, as ping pairs them).
  void issue() {
    const std::uint64_t id = next_id_++;
    const auto body = static_cast<std::size_t>((id - 1) % bodies_.size());
    const Clock::time_point at = Clock::now();
    const std::string bytes = frame_bytes(id, bodies_[body]);
    if (!serve::send_all(fd_, bytes.data(), bytes.size())) {
      throw std::runtime_error("serve: request send failed");
    }
    issued_.emplace(id, Issued{body, bytes.size(), at});
  }

  void connect(std::uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) throw std::runtime_error("serve: socket() failed");
    // Requests span several segments; without NODELAY the tail segment can
    // wait for a delayed ACK and the benchmark would measure the timer.
    const int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof addr) != 0) {
      throw std::runtime_error("serve: connect() failed");
    }
    buffer_ = std::make_unique<serve::FdReadBuf>(fd_);
    in_ = std::make_unique<std::istream>(buffer_.get());
  }

  /// Closes the client (requests still outstanding are abandoned and never
  /// counted), drains the server, and joins its thread.
  void stop() {
    in_.reset();
    buffer_.reset();
    if (fd_ >= 0) {
      ::close(fd_);
      fd_ = -1;
    }
    issued_.clear();
    if (engine_) engine_->request_drain();
    if (server_thread_.joinable()) server_thread_.join();
    server_.reset();
    if (engine_) {
      engine_->drain();
      engine_.reset();
    }
  }

  /// Re-runs the server's per-request stages in-process on the same bytes,
  /// with the engine's default limits, so each stage gets its own span:
  /// frame decode, instance parse, fallback ladder (Algorithm 1 and its
  /// per-edge GS runs inside), response encode.
  static void replay(const std::string& bytes, Trace& trace) {
    std::istringstream wire(bytes);
    WallTimer timer;
    const std::optional<serve::Frame> frame = serve::read_frame(wire);
    trace.add("serve.frame_decode_us", timer.micros());
    timer.reset();
    const KPartiteInstance inst = io::from_string(frame->body);
    trace.add("serve.parse_us", timer.micros());

    const serve::ServeLimits limits;
    resilience::FallbackOptions options;
    const int rungs = limits.max_tree_attempts + (limits.allow_degraded ? 1 : 0);
    options.per_attempt.wall_ms = limits.default_deadline_ms / rungs;
    options.max_tree_attempts = limits.max_tree_attempts;
    options.allow_degraded = limits.allow_degraded;
    core::GsEdgeCache cache(inst.genders());
    options.cache = &cache;
    timer.reset();
    const auto report = resilience::solve_with_fallback(inst, options);
    const double ladder_us = timer.micros();
    if (!report.succeeded) {
      throw std::runtime_error("serve: replayed ladder failed: " +
                               report.status.summary());
    }
    double edge_gs_us = 0.0;
    for (const auto& edge : report.result->edge_results) {
      edge_gs_us += gs_us(edge);
    }
    trace.add("serve.ladder_us", ladder_us);
    trace.add("gs.us", edge_gs_us);
    trace.add("binding.self_us", ladder_us - edge_gs_us);
    trace.add("gs.proposals", static_cast<double>(report.executed_proposals));
    trace.add("cache.hits", static_cast<double>(report.cache_hits));
    trace.add("cache.misses", static_cast<double>(report.cache_misses));

    timer.reset();
    std::ostringstream response;
    serve::write_frame(response,
                       serve::Frame::response(serve::FrameKind::ok, frame->id,
                                              io::to_string(report.matching())));
    const std::string out = response.str();
    trace.add("serve.encode_us", timer.micros());
    trace.add("serve.response_bytes", static_cast<double>(out.size()));
  }

  std::size_t window_ = 0;
  std::vector<std::string> bodies_;
  std::vector<std::string> answers_;  ///< first OK body per distinct request
  std::map<std::uint64_t, Issued> issued_;  ///< outstanding, by frame id
  std::uint64_t next_id_ = 1;
  std::int64_t server_count0_ = 0;  ///< engine span histogram at start
  std::int64_t server_sum0_us_ = 0;
  std::unique_ptr<serve::ServeEngine> engine_;
  std::unique_ptr<serve::TcpServer> server_;
  std::thread server_thread_;  ///< runs server_->run(); joined by stop()
  int fd_ = -1;
  std::unique_ptr<serve::FdReadBuf> buffer_;
  std::unique_ptr<std::istream> in_;
};

// --- bulk ------------------------------------------------------------------

/// Large-n solves on the implicit (generator-backed) backend: a fresh
/// uniform k = 2 instance of kSize members per gender per operation, solved
/// by the queue engine on a warm workspace. Explicit tables for one such
/// instance would take about 2·kSize² · 6 bytes; the solve holds O(n).
class BulkWorkload final : public Workload {
 public:
  explicit BulkWorkload(std::uint64_t seed) : seed_(seed) {}

  void prepare() override {
    workspace_ = gs::GsWorkspace{};
    result_ = gs::GsResult{};
  }

  void setup() override {
    workspace_.warm(kSize);
    gs::warm_result(result_, kSize);
  }

  OpResult run_once(Trace* trace) override {
    std::uint64_t state = seed_ + 0x632be59bd9b4e019ULL * ++next_;
    const std::uint64_t instance_seed = splitmix64(state);
    WallTimer timer;
    const KPartiteInstance inst = KPartiteInstance::make_implicit(
        2, kSize, {prefs::imp::Family::uniform, instance_seed});
    gs::gale_shapley_queue(inst, 0, 1, {}, workspace_, result_);
    const double ms = timer.millis();
    if (trace != nullptr) {
      trace->add("gs.us", ms * 1e3);
      trace->add("gs.proposals", static_cast<double>(result_.proposals));
    }
    return {ms, ms,
            is_perfect(result_) && gs::is_stable_binding(inst, result_)};
  }

 private:
  static constexpr Index kSize = 20000;

  /// Mutually inverse match arrays over [0, kSize).
  static bool is_perfect(const gs::GsResult& result) {
    const auto n = static_cast<std::size_t>(kSize);
    if (result.proposer_match.size() != n || result.responder_match.size() != n) {
      return false;
    }
    for (std::size_t p = 0; p < n; ++p) {
      const Index r = result.proposer_match[p];
      if (r < 0 || r >= kSize ||
          result.responder_match[static_cast<std::size_t>(r)] !=
              static_cast<Index>(p)) {
        return false;
      }
    }
    return true;
  }

  std::uint64_t seed_;
  std::uint64_t next_ = 0;
  gs::GsWorkspace workspace_;
  gs::GsResult result_;
};

// --- churn -----------------------------------------------------------------

/// Incremental re-stabilization under preference churn over kMarkets
/// independent explicit k = 3 instances ("markets"), each with its own edge
/// cache, last matching and edit stream. An operation is one round of churn:
/// every market takes kEditsPerOp edits, each a random in-place mutation
/// re-stabilized at once with rematch() — targeted invalidation of the
/// market's cache, then warm GS continuations on the touched edges. The
/// round's wall time is the operation latency. After each round every
/// market's matching is compared with a cold Algorithm 1 solve. A set-up
/// binds each fresh market through its new cache.
///
/// Sized for a steady figure on a shared VM. The round runs on the calling
/// thread: across a two-worker pool its time followed whichever cores the
/// VM's other tenants held (ops_per_s spread 15% between the quartiles of
/// ten 15 s runs, against 3% for the single-threaded bulk). Four n = 128
/// markets hold 1.5 MB of tables, within one core's 2 MB L2; sixteen
/// n = 256 markets (25 MB) lived in the shared L3, and the spread reached
/// 28% when the neighbours used it.
class ChurnWorkload final : public Workload {
 public:
  explicit ChurnWorkload(std::uint64_t seed) : tree_(trees::path(kGenders)) {
    for (std::uint64_t i = 0; i < kMarkets; ++i) {
      Rng rng(seed * 0x9e3779b97f4a7c15ULL + i);
      KPartiteInstance inst = gen::uniform(kGenders, kSize, rng);
      fresh_.push_back(Market{std::move(inst), nullptr, {}, rng});
    }
  }

  void prepare() override {
    markets_.clear();
    for (const Market& market : fresh_) {
      markets_.push_back(Market{market.inst, nullptr, {}, market.rng});
    }
  }

  void setup() override {
    for (Market& market : markets_) {
      market.cache = std::make_unique<core::GsEdgeCache>(market.inst);
      core::BindingOptions options;
      options.cache = market.cache.get();
      market.previous = core::iterative_binding(market.inst, tree_, options);
    }
  }

  OpResult run_once(Trace* trace) override {
    WallTimer timer;
    for (Market& market : markets_) edit(market, trace);
    const double ms = timer.millis();

    bool ok = true;
    for (Market& market : markets_) {
      const core::BindingResult cold =
          core::iterative_binding(market.inst, tree_);
      ok = ok && market.previous.matching() == cold.matching();
      if (trace != nullptr) {
        trace->add("churn.cold_proposals",
                   static_cast<double>(cold.total_proposals));
      }
    }
    return {ms, ms, ok};
  }

  bool finish(Trace* trace, std::int64_t /*ops*/) override {
    // One rematch's proposals as a share of a cold re-solve of its market:
    // the work the warm restart saves.
    const double cold = trace != nullptr ? trace->per_op["churn.cold_proposals"]
                                         : 0.0;
    if (cold > 0.0) {
      trace->fixed["churn.warm_over_cold"] =
          trace->per_op["gs.proposals"] / (cold * kEditsPerOp);
    }
    return true;
  }

 private:
  static constexpr Gender kGenders = 3;
  static constexpr Index kSize = 128;
  static constexpr std::uint64_t kMarkets = 4;
  static constexpr int kEditsPerOp = 8;

  struct Market {
    KPartiteInstance inst;
    std::unique_ptr<core::GsEdgeCache> cache;  ///< bound to inst
    core::BindingResult previous;              ///< inst's current matching
    Rng rng;                                   ///< this market's edit stream
  };

  void edit(Market& market, Trace* trace) const {
    for (int i = 0; i < kEditsPerOp; ++i) {
      WallTimer timer;
      const incremental::MutationDelta delta =
          incremental::random_mutation(market.inst, market.rng);
      const double mutate_us = timer.micros();
      incremental::RematchOptions options;
      options.cache = market.cache.get();
      incremental::RematchReport report = incremental::rematch(
          market.inst, tree_, market.previous, delta, options);
      if (trace != nullptr) {
        record(delta, report, mutate_us, timer.millis(), *trace);
      }
      market.previous = std::move(report.result);
    }
  }

  /// One edit's layer spans and counters.
  void record(const incremental::MutationDelta& delta,
              const incremental::RematchReport& report, double mutate_us,
              double edit_ms, Trace& trace) const {
    // Untouched edges come back from the cache carrying their original
    // run's wall time; only touched edges ran GS in this edit.
    double warm_gs_us = 0.0;
    const auto& edges = tree_.edges();
    for (std::size_t i = 0; i < edges.size(); ++i) {
      if (delta.touches(edges[i].a, edges[i].b)) {
        warm_gs_us += gs_us(report.result.edge_results[i]);
      }
    }
    const double rematch_us = edit_ms * 1e3 - mutate_us;
    trace.add("churn.mutate_us", mutate_us);
    trace.add("churn.rematch_us", rematch_us);
    trace.add("gs.us", warm_gs_us);
    trace.add("binding.self_us", rematch_us - warm_gs_us);
    trace.add("gs.proposals",
              static_cast<double>(report.warm_executed_proposals));
    trace.add("cache.hits", static_cast<double>(report.result.cache_hits));
    trace.add("cache.misses", static_cast<double>(report.result.cache_misses));
    trace.add("churn.slots_invalidated",
              static_cast<double>(report.slots_invalidated));
    trace.add("churn.edges_warm", static_cast<double>(report.edges_warm));
  }

  BindingStructure tree_;
  std::vector<Market> fresh_;    ///< the markets before any edit; no caches
  std::vector<Market> markets_;  ///< the set-up's copies, edited in place
};

// --- main ------------------------------------------------------------------

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed) {
  if (name == "serve") return std::make_unique<ServeWorkload>(seed);
  if (name == "bulk") return std::make_unique<BulkWorkload>(seed);
  if (name == "churn") return std::make_unique<ChurnWorkload>(seed);
  return nullptr;
}

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
};

std::optional<Args> parse_args(int argc, char** argv) {
  if (argc != 9) return std::nullopt;
  Args args;
  bool seen[4] = {false, false, false, false};
  for (int i = 1; i < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      args.workload = value;
      seen[0] = true;
    } else if (flag == "--seed") {
      const auto seed = util::parse_number<std::uint64_t>(value);
      if (!seed) return std::nullopt;
      args.seed = *seed;
      seen[1] = true;
    } else if (flag == "--seconds") {
      const auto seconds = util::parse_number<double>(value, 0.1, 3600.0);
      if (!seconds) return std::nullopt;
      args.seconds = *seconds;
      seen[2] = true;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return std::nullopt;
      args.trace = value == "1";
      seen[3] = true;
    } else {
      return std::nullopt;
    }
  }
  if (!(seen[0] && seen[1] && seen[2] && seen[3])) return std::nullopt;
  return args;
}

/// Linear-interpolated quantile of a non-empty `values` (q in [0, 1]).
double quantile(std::vector<double> values, double q) {
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}

double peak_rss_mib() {
  rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // Linux: KiB
}

void write_metric(std::ostream& os, bool& first, const char* name,
                  double value, const char* unit) {
  os << (first ? "" : ", ") << '"' << name << "\": {\"value\": " << value
     << ", \"unit\": \"" << unit << "\"}";
  first = false;
}

}  // namespace

int main(int argc, char** argv) {
  const std::optional<Args> args = parse_args(argc, argv);
  std::unique_ptr<Workload> workload =
      args ? make_workload(args->workload, args->seed) : nullptr;
  if (!workload) {
    std::cerr << "usage: kbench --workload <serve|bulk|churn> "
                 "--seed <n> --seconds <s> --trace <0|1>\n";
    return 2;
  }
  try {
    std::vector<double> setup_s;
    const auto timed_setup = [&] {
      workload->prepare();
      WallTimer timer;
      workload->setup();
      const double start_s = timer.seconds();
      // The first operation completes the set-up (connections, caches and
      // workspaces are warm only after it); its check is not timed.
      const OpResult first_op = workload->run_once(nullptr);
      if (!first_op.ok) {
        throw std::runtime_error("the first operation after a set-up failed "
                                 "its check");
      }
      setup_s.push_back(start_s + first_op.ms / 1e3);
    };
    timed_setup();

    Trace trace;
    Trace* const spans = args->trace ? &trace : nullptr;
    std::vector<double> op_ms;
    double busy_ms = 0.0;
    std::int64_t failed = 0;
    WallTimer window;
    do {
      // The other set-ups are spread evenly over the window, so their median
      // samples the same stretch of machine time as the operations do.
      if (setup_s.size() < kSetupRepeats &&
          window.seconds() >= args->seconds *
                                  static_cast<double>(setup_s.size()) /
                                  static_cast<double>(kSetupRepeats)) {
        timed_setup();
      }
      const OpResult op = workload->run_once(spans);
      op_ms.push_back(op.ms);
      busy_ms += op.busy_ms;
      if (!op.ok) ++failed;
    } while (window.seconds() < args->seconds);
    const auto ops = static_cast<std::int64_t>(op_ms.size());
    const bool correct = workload->finish(spans, ops) && failed == 0;
    workload.reset();  // stops servers and joins their threads

    std::ostringstream json;
    json.precision(std::numeric_limits<double>::max_digits10);
    json << "{\"correct\": " << (correct ? "true" : "false")
         << ", \"attempted\": " << ops << ", \"failed\": " << failed
         << ", \"metrics\": {";
    bool first = true;
    if (args->trace) {
      const double proposals = trace.per_op["gs.proposals"];
      trace.fixed["gs.ns_per_proposal"] =
          proposals > 0.0 ? trace.per_op["gs.us"] * 1e3 / proposals : 0.0;
      trace.fixed["process.peak_rss_mib"] = peak_rss_mib();
      for (const LayerMetric& metric : kLayerMetrics) {
        const auto fixed = trace.fixed.find(metric.name);
        const double value = fixed != trace.fixed.end()
                                 ? fixed->second
                                 : trace.per_op[metric.name] /
                                       static_cast<double>(ops);
        write_metric(json, first, metric.name, value, metric.unit);
      }
    } else {
      write_metric(json, first, "ops_per_s",
                   static_cast<double>(ops) * 1e3 / busy_ms, "1/s");
      write_metric(json, first, "op_p90_ms", quantile(op_ms, 0.9), "ms");
      write_metric(json, first, "setup_s", quantile(setup_s, 0.5), "s");
    }
    json << "}}";
    std::cerr << "kbench " << args->workload << ": " << ops << " ops, "
              << failed << " failed, correct=" << correct << "; op ms deciles:";
    for (int d = 0; d <= 10; ++d) std::cerr << ' ' << quantile(op_ms, d / 10.0);
    std::cerr << '\n';
    std::cout << json.str() << std::endl;
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "kbench " << args->workload << ": " << e.what() << '\n';
    return 1;
  }
}
