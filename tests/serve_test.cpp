// Serve subsystem tests (docs/SERVE.md): protocol framing robustness,
// bounded admission with load shedding, the transport-independent engine's
// exactly-one-bucket accounting contract, graceful drain (the TSan-covered
// shutdown test), overload behavior, and the 10k-request chaos soak over a
// real in-process TCP server with every service fault point armed.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <sys/socket.h>
#include <unistd.h>

#include "observability/metrics.hpp"
#include "prefs/generators.hpp"
#include "prefs/io.hpp"
#include "resilience/errors.hpp"
#include "resilience/fault_injection.hpp"
#include "serve/admission.hpp"
#include "serve/client.hpp"
#include "serve/engine.hpp"
#include "serve/fd_stream.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "util/rng.hpp"

namespace kstable::serve {
namespace {

using resilience::FaultConfig;
using resilience::ScopedFault;

/// Thread-safe frame collector used as a response sink.
struct FrameLog {
  std::mutex mutex;
  std::vector<Frame> frames;

  ServeEngine::ResponseSink sink() {
    return [this](const Frame& frame) {
      std::scoped_lock lock(mutex);
      frames.push_back(frame);
    };
  }
  std::size_t count(FrameKind kind) {
    std::scoped_lock lock(mutex);
    return static_cast<std::size_t>(
        std::count_if(frames.begin(), frames.end(),
                      [kind](const Frame& f) { return f.kind == kind; }));
  }
  std::size_t size() {
    std::scoped_lock lock(mutex);
    return frames.size();
  }
};

std::string small_instance(std::uint64_t seed, Gender k = 3, Index n = 3) {
  Rng rng(seed);
  return io::to_string(gen::uniform(k, n, rng));
}

/// Continuous chaos config: keeps firing for the armed point's lifetime.
FaultConfig chaos(double probability, std::uint64_t seed) {
  FaultConfig config;
  config.probability = probability;
  config.seed = seed;
  config.max_fires = 0;
  return config;
}

// --- protocol --------------------------------------------------------------

TEST(ServeProtocol, RoundTripPreservesEveryField) {
  Frame out = Frame::request(FrameKind::solve, 42, "hello body", 1250.5);
  std::stringstream stream;
  write_frame(stream, out);
  const auto in = read_frame(stream);
  ASSERT_TRUE(in.has_value());
  EXPECT_EQ(in->kind, FrameKind::solve);
  EXPECT_EQ(in->id, 42u);
  EXPECT_DOUBLE_EQ(in->deadline_ms, 1250.5);
  EXPECT_EQ(in->body, "hello body");

  Frame shed = Frame::response(FrameKind::shed, 7, {}, 75.0);
  std::stringstream stream2;
  write_frame(stream2, shed);
  const auto in2 = read_frame(stream2);
  ASSERT_TRUE(in2.has_value());
  EXPECT_EQ(in2->kind, FrameKind::shed);
  EXPECT_DOUBLE_EQ(in2->retry_after_ms, 75.0);
  EXPECT_TRUE(in2->body.empty());
}

TEST(ServeProtocol, CleanEofYieldsNullopt) {
  std::stringstream stream;
  EXPECT_FALSE(read_frame(stream).has_value());
}

TEST(ServeProtocol, BadMagicThrowsAndResyncRecovers) {
  std::stringstream stream("this is not a frame\nkmatch/1 PING id=5 len=0\n\n");
  EXPECT_THROW(read_frame(stream), ParseError);
  ASSERT_TRUE(resync_to_frame(stream));
  const auto frame = read_frame(stream);
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(frame->kind, FrameKind::ping);
  EXPECT_EQ(frame->id, 5u);
}

TEST(ServeProtocol, OversizedLenRejectedBeforeAllocation) {
  // 1 TiB of claimed body: must throw on the header, not try to reserve.
  std::stringstream stream("kmatch/1 SOLVE id=1 len=1099511627776\n");
  EXPECT_THROW(read_frame(stream), ParseError);
}

TEST(ServeProtocol, TruncatedBodyThrows) {
  std::stringstream stream("kmatch/1 SOLVE id=1 len=10\nabc");
  EXPECT_THROW(read_frame(stream), ParseError);
}

/// The bytes of `frames` as write_frame puts them on the wire.
std::string wire_bytes(const std::vector<Frame>& frames) {
  std::ostringstream os;
  for (const Frame& frame : frames) write_frame(os, frame);
  return os.str();
}

/// Sends `bytes` down `fd` in uneven chunks (1, 4095 and 4097 bytes, then
/// the rest), pausing between them so the reader sees each one apart, then
/// closes `fd`.
void send_chunked(int fd, const std::string& bytes) {
  std::size_t at = 0;
  for (const std::size_t chunk : {std::size_t{1}, std::size_t{4095},
                                  std::size_t{4097}, bytes.size()}) {
    const std::size_t size = std::min(chunk, bytes.size() - at);
    EXPECT_TRUE(send_all(fd, bytes.data() + at, size));
    at += size;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  ::close(fd);
}

TEST(ServeProtocol, SocketFrameBodyReadsWholeAcrossUnevenChunks) {
  // A k = 3, n = 64 SOLVE body (~75 KB) crosses many 4 KiB buffer refills;
  // the PING behind it must still parse from the same stream.
  const Frame solve = Frame::request(FrameKind::solve, 11,
                                     small_instance(23, 3, 64), 0.0);
  ASSERT_GT(solve.body.size(), 60000u);
  const Frame ping = Frame::request(FrameKind::ping, 12, {}, 0.0);
  const std::string bytes = wire_bytes({solve, ping});
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  std::thread writer(send_chunked, fds[1], bytes);
  FdReadBuf buffer(fds[0]);
  std::istream is(&buffer);
  const auto first = read_frame(is);
  const auto second = read_frame(is);
  const auto end = read_frame(is);
  writer.join();
  ::close(fds[0]);
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->id, 11u);
  EXPECT_EQ(first->body, solve.body);
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(second->kind, FrameKind::ping);
  EXPECT_EQ(second->id, 12u);
  EXPECT_FALSE(end.has_value());
}

TEST(ServeProtocol, SocketClosedMidBodyIsTruncated) {
  const Frame solve = Frame::request(FrameKind::solve, 13,
                                     small_instance(29, 3, 64), 0.0);
  const std::string bytes = wire_bytes({solve});
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  // Header plus about half the body, then the writer closes.
  std::thread writer(send_chunked, fds[1], bytes.substr(0, bytes.size() / 2));
  FdReadBuf buffer(fds[0]);
  std::istream is(&buffer);
  try {
    (void)read_frame(is);
    ADD_FAILURE() << "a body cut mid-way parsed";
  } catch (const ParseError& e) {
    EXPECT_NE(std::string(e.what()).find("truncated frame body"),
              std::string::npos)
        << e.what();
  }
  writer.join();
  ::close(fds[0]);
}

TEST(ServeProtocol, MissingRequiredAttributesThrow) {
  std::stringstream no_id("kmatch/1 PING len=0\n\n");
  EXPECT_THROW(read_frame(no_id), ParseError);
  std::stringstream no_len("kmatch/1 PING id=1\n");
  EXPECT_THROW(read_frame(no_len), ParseError);
}

TEST(ServeProtocol, UnknownAttributeSkippedForForwardCompat) {
  std::stringstream stream("kmatch/1 PING id=4 future_knob=7 len=0\n\n");
  const auto frame = read_frame(stream);
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(frame->kind, FrameKind::ping);
}

TEST(ServeProtocol, UnknownKindIsReturnedNotThrown) {
  std::stringstream stream("kmatch/1 BOGUS id=3 len=0\n\n");
  const auto frame = read_frame(stream);
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(frame->kind, FrameKind::unknown);
}

// --- admission -------------------------------------------------------------

TEST(ServeAdmission, ShedsAtDepthWithBacklogScaledHint) {
  AdmissionController admission(2);
  EXPECT_TRUE(admission.try_admit(25.0).admitted);
  EXPECT_TRUE(admission.try_admit(25.0).admitted);
  const auto shed = admission.try_admit(25.0);
  EXPECT_FALSE(shed.admitted);
  // backlog = in_flight / depth = 2/2 = 1 -> hint = base * (1 + 1).
  EXPECT_DOUBLE_EQ(shed.retry_after_ms, 50.0);
}

TEST(ServeAdmission, ClosedControllerShedsEverything) {
  AdmissionController admission(8);
  admission.close();
  const auto shed = admission.try_admit(25.0);
  EXPECT_FALSE(shed.admitted);
  EXPECT_DOUBLE_EQ(shed.retry_after_ms, 100.0);  // restart hint: base * 4
}

TEST(ServeAdmission, AwaitIdleObservesCompletion) {
  AdmissionController admission(4);
  ASSERT_TRUE(admission.try_admit(1.0).admitted);
  EXPECT_FALSE(admission.await_idle(10.0));  // one pending: not idle
  std::thread finisher([&admission] {
    admission.on_start();
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    admission.on_finish();
  });
  EXPECT_TRUE(admission.await_idle(5000.0));
  EXPECT_EQ(admission.in_flight(), 0u);
  finisher.join();
}

TEST(ServeAdmission, AbandonedPendingReleasesSlot) {
  AdmissionController admission(1);
  ASSERT_TRUE(admission.try_admit(1.0).admitted);
  EXPECT_FALSE(admission.try_admit(1.0).admitted);
  admission.on_abandoned();
  EXPECT_EQ(admission.in_flight(), 0u);
  EXPECT_TRUE(admission.try_admit(1.0).admitted);
}

// --- engine ----------------------------------------------------------------

TEST(ServeEngineTest, PingGetsPong) {
  FrameLog log;
  ServeEngine engine(ServeLimits{}, log.sink());
  engine.handle(Frame::request(FrameKind::ping, 9));
  EXPECT_EQ(log.count(FrameKind::pong), 1u);
  EXPECT_EQ(engine.stats().pings.load(), 1);
}

TEST(ServeEngineTest, SolveReturnsMatchingAndAccounts) {
  FrameLog log;
  ServeEngine engine(ServeLimits{}, log.sink());
  engine.handle(Frame::request(FrameKind::solve, 1, small_instance(11)));
  EXPECT_TRUE(engine.drain().clean);
  ASSERT_EQ(log.count(FrameKind::ok), 1u);
  {
    std::scoped_lock lock(log.mutex);
    EXPECT_EQ(log.frames[0].id, 1u);
    EXPECT_EQ(log.frames[0].body.rfind("kstable-kary v1", 0), 0u);
  }
  const auto& stats = engine.stats();
  EXPECT_EQ(stats.received.load(), 1);
  EXPECT_EQ(stats.completed.load(), 1);
  EXPECT_EQ(stats.accounted(), stats.received.load());
}

TEST(ServeEngineTest, UnparsableSolveBodyAnswersError) {
  FrameLog log;
  ServeEngine engine(ServeLimits{}, log.sink());
  engine.handle(Frame::request(FrameKind::solve, 2, "not an instance"));
  EXPECT_TRUE(engine.drain().clean);
  EXPECT_EQ(log.count(FrameKind::error), 1u);
  EXPECT_EQ(engine.stats().errors.load(), 1);
  EXPECT_EQ(engine.stats().accounted(), engine.stats().received.load());
}

TEST(ServeEngineTest, ContractRejectErrorBodyNamesNoSourceLocation) {
  // An out-of-range entry in a long row is rejected by a contract check
  // inside the loader: the ERROR frame tells the client what is wrong, not
  // where in the server's source the check sits.
  std::string body = small_instance(12, 3, 24);
  const std::string row = "pref 2 7 0 : ";
  const std::size_t entry = body.find(row) + row.size();
  body.replace(entry, body.find(' ', entry) - entry, "99");
  FrameLog log;
  ServeEngine engine(ServeLimits{}, log.sink());
  engine.handle(Frame::request(FrameKind::solve, 4, body));
  EXPECT_TRUE(engine.drain().clean);
  ASSERT_EQ(log.count(FrameKind::error), 1u);
  std::scoped_lock lock(log.mutex);
  const std::string& error = log.frames[0].body;
  EXPECT_EQ(error.rfind("bad instance: parse error: ", 0), 0u) << error;
  EXPECT_NE(error.find("preference entry 99 out of range"), std::string::npos)
      << error;
  EXPECT_EQ(error.find(".cpp:"), std::string::npos) << error;
  EXPECT_EQ(error.find(".hpp:"), std::string::npos) << error;
}

TEST(ServeEngineTest, MetricsReturnsStatsSchema) {
  FrameLog log;
  ServeEngine engine(ServeLimits{}, log.sink());
  engine.handle(Frame::request(FrameKind::metrics, 3));
  ASSERT_EQ(log.count(FrameKind::stats), 1u);
  std::scoped_lock lock(log.mutex);
  EXPECT_NE(log.frames[0].body.find("\"kstable.stats.v1\""), std::string::npos);
  EXPECT_NE(log.frames[0].body.find("\"metrics\""), std::string::npos);
}

TEST(ServeEngineTest, MetricsScrapeCarriesAccountingInEveryBuild) {
  // The scrape carries the full request-accounting set, outcomes that never
  // happened included, so the serve-smoke `check_stats_json.py --serve`
  // invariant always finds every name.
  FrameLog log;
  ServeEngine engine(ServeLimits{}, log.sink());
  engine.handle(Frame::request(FrameKind::solve, 1, small_instance(5)));
  engine.handle(Frame::request(FrameKind::pong, 2));  // a bad frame
  ASSERT_TRUE(engine.drain().clean);  // settles every counter
  engine.handle(Frame::request(FrameKind::metrics, 3));
  ASSERT_EQ(log.count(FrameKind::stats), 1u);
  std::scoped_lock lock(log.mutex);
  const std::string& body = log.frames.back().body;
  for (const char* name :
       {"serve.requests.received", "serve.requests.completed",
        "serve.requests.degraded", "serve.requests.shed",
        "serve.requests.timeout", "serve.requests.error",
        "serve.responses.sent", "serve.responses.dropped",
        "serve.frames.bad"}) {
    EXPECT_NE(body.find('"' + std::string(name) + "\":"), std::string::npos)
        << name << " missing from " << body;
  }
}

TEST(ServeEngineTest, SolveObservesParseAndEncodeOnce) {
  auto& registry = obs::MetricsRegistry::global();
  auto& parse = registry.histogram("serve.parse_ms");
  auto& encode = registry.histogram("serve.encode_ms");
  const auto parse_before = parse.count();
  const auto encode_before = encode.count();
  FrameLog log;
  ServeEngine engine(ServeLimits{}, log.sink());
  engine.handle(Frame::request(FrameKind::solve, 1, small_instance(6)));
  ASSERT_TRUE(engine.drain().clean);
  ASSERT_EQ(log.count(FrameKind::ok), 1u);
  EXPECT_EQ(parse.count(), parse_before + 1);
  EXPECT_EQ(encode.count(), encode_before + 1);
}

TEST(ServeEngineTest, ResponseKindAsRequestAnswersError) {
  FrameLog log;
  ServeEngine engine(ServeLimits{}, log.sink());
  engine.handle(Frame::request(FrameKind::pong, 4));
  EXPECT_EQ(log.count(FrameKind::error), 1u);
  EXPECT_EQ(engine.stats().bad_frames.load(), 1);
  EXPECT_EQ(engine.stats().received.load(), 0);  // not a SOLVE
}

TEST(ServeEngineTest, TinyDeadlineDegradesOrTimesOutButAccounts) {
  FrameLog log;
  ServeEngine engine(ServeLimits{}, log.sink());
  // 1 us across the whole ladder: strict rungs cannot finish; outcome is
  // DEGRADED (priority model squeaked through) or TIMEOUT — never a hang,
  // always exactly one bucket.
  engine.handle(
      Frame::request(FrameKind::solve, 5, small_instance(12, 3, 8), 0.001));
  EXPECT_TRUE(engine.drain().clean);
  const auto& stats = engine.stats();
  EXPECT_EQ(stats.received.load(), 1);
  EXPECT_EQ(stats.accounted(), 1);
  EXPECT_EQ(stats.shed.load(), 0);
  EXPECT_EQ(log.size(), 1u);
}

TEST(ServeEngineTest, EnqueueFaultShedsWithRetryAfter) {
  FrameLog log;
  ServeEngine engine(ServeLimits{}, log.sink());
  ScopedFault fault("serve/enqueue", FaultConfig{});  // fire once
  engine.handle(Frame::request(FrameKind::solve, 6, small_instance(13)));
  EXPECT_TRUE(engine.drain().clean);
  ASSERT_EQ(log.count(FrameKind::shed), 1u);
  std::scoped_lock lock(log.mutex);
  EXPECT_GT(log.frames[0].retry_after_ms, 0.0);
  EXPECT_EQ(engine.stats().shed.load(), 1);
  EXPECT_EQ(engine.stats().accounted(), 1);
}

TEST(ServeEngineTest, RespondFaultCountsDroppedNotUnaccounted) {
  FrameLog log;
  ServeEngine engine(ServeLimits{}, log.sink());
  ScopedFault fault("serve/respond", FaultConfig{});  // drop one response
  engine.handle(Frame::request(FrameKind::solve, 7, small_instance(14)));
  EXPECT_TRUE(engine.drain().clean);
  const auto& stats = engine.stats();
  EXPECT_EQ(stats.responses_dropped.load(), 1);
  EXPECT_EQ(stats.accounted(), 1);  // outcome bucket kept despite the drop
  EXPECT_EQ(log.size(), 0u);
}

TEST(ServeEngineTest, TaskDestroyedUnrunIsStillAccounted) {
  FrameLog log;
  ServeEngine engine(ServeLimits{}, log.sink());
  // The pool-level fault fires inside the task wrapper BEFORE the serve
  // worker body runs: the request's TaskGuard must still account it and
  // release admission, or drain would wait forever.
  ScopedFault fault("thread_pool/task", FaultConfig{});
  engine.handle(Frame::request(FrameKind::solve, 8, small_instance(15)));
  EXPECT_TRUE(engine.drain().clean);
  const auto& stats = engine.stats();
  EXPECT_EQ(stats.timed_out.load(), 1);
  EXPECT_EQ(stats.accounted(), 1);
  EXPECT_EQ(log.count(FrameKind::timeout), 1u);
  EXPECT_EQ(engine.admission().in_flight(), 0u);
}

// --- pump (transport robustness) -------------------------------------------

TEST(ServePump, GarbageBetweenFramesIsSkipped) {
  FrameLog log;
  ServeEngine engine(ServeLimits{}, log.sink());
  std::stringstream input(
      "%%% total garbage line %%%\n"
      "kmatch/1 PING id=1 len=0\n\n"
      "another bad line\n"
      "kmatch/1 PING id=2 len=0\n\n");
  pump_stream(engine, input);
  EXPECT_EQ(log.count(FrameKind::pong), 2u);
  EXPECT_EQ(log.count(FrameKind::error), 2u);  // one per garbage line
  EXPECT_EQ(engine.stats().bad_frames.load(), 2);
}

TEST(ServePump, FrameParseFaultKeepsStreamSynchronized) {
  FrameLog log;
  ServeEngine engine(ServeLimits{}, log.sink());
  ScopedFault fault("serve/frame_parse", FaultConfig{});  // first frame only
  std::stringstream input(
      "kmatch/1 PING id=1 len=0\n\n"
      "kmatch/1 PING id=2 len=0\n\n");
  pump_stream(engine, input);
  // Frame 1 is consumed by the injected fault (ERROR response), frame 2
  // parses normally — the fault cannot desynchronize the stream.
  EXPECT_EQ(log.count(FrameKind::error), 1u);
  ASSERT_EQ(log.count(FrameKind::pong), 1u);
  std::scoped_lock lock(log.mutex);
  EXPECT_EQ(log.frames.back().id, 2u);
}

// --- overload and drain ----------------------------------------------------

TEST(ServeOverload, QueueFullShedsNeverHangsAndCountersMatch) {
  ServeLimits limits;
  limits.workers = 1;
  limits.queue_depth = 1;
  limits.chaos_stall_ms = 30.0;  // every started solve wedges 30 ms
  limits.drain_deadline_ms = 10000.0;
  FrameLog log;
  ServeEngine engine(limits, log.sink());
  ScopedFault stall("serve/stall", chaos(1.0, 3));

  constexpr int kOffered = 40;
  for (int i = 1; i <= kOffered; ++i) {
    engine.handle(Frame::request(FrameKind::solve,
                                 static_cast<std::uint64_t>(i),
                                 small_instance(20 + i)));
  }
  EXPECT_TRUE(engine.drain().clean);

  const auto& stats = engine.stats();
  EXPECT_EQ(stats.received.load(), kOffered);
  EXPECT_EQ(stats.accounted(), kOffered);  // nothing vanished
  EXPECT_GT(stats.shed.load(), 0);         // overload actually shed
  // The shed counter is exactly the number of SHED frames delivered, and
  // every offered request produced exactly one response.
  EXPECT_EQ(static_cast<std::size_t>(stats.shed.load()),
            log.count(FrameKind::shed));
  EXPECT_EQ(log.size(), static_cast<std::size_t>(kOffered));
}

TEST(ServeDrain, CancelsWedgedWorkAfterDeadlineThenFinishesInGrace) {
  ServeLimits limits;
  limits.workers = 2;
  limits.chaos_stall_ms = 150.0;
  limits.drain_deadline_ms = 1.0;   // force the cancel path
  limits.drain_grace_ms = 10000.0;  // stalls end inside the grace window
  FrameLog log;
  ServeEngine engine(limits, log.sink());
  ScopedFault stall("serve/stall", chaos(1.0, 4));
  engine.handle(Frame::request(FrameKind::solve, 1, small_instance(31)));
  engine.handle(Frame::request(FrameKind::solve, 2, small_instance(32)));

  const auto drain = engine.drain();
  EXPECT_TRUE(drain.cancelled);  // deadline elapsed, token was pulled
  EXPECT_TRUE(drain.clean);      // ... but grace absorbed the stalls
  EXPECT_EQ(engine.stats().accounted(), 2);
  EXPECT_EQ(engine.admission().in_flight(), 0u);
}

TEST(ServeDrain, DeadlineExceededReportsAbandonedWork) {
  ServeLimits limits;
  limits.workers = 1;
  limits.chaos_stall_ms = 800.0;  // wedge far past deadline + grace
  limits.drain_deadline_ms = 5.0;
  limits.drain_grace_ms = 5.0;
  FrameLog log;
  ServeEngine engine(limits, log.sink());
  ScopedFault stall("serve/stall", chaos(1.0, 5));
  engine.handle(Frame::request(FrameKind::solve, 1, small_instance(33)));

  const auto drain = engine.drain();
  EXPECT_FALSE(drain.clean);  // the CLI maps this to exit code 3
  EXPECT_TRUE(drain.cancelled);
  EXPECT_GE(drain.abandoned, 1u);
  // Engine destruction joins the pool: the wedged task finishes, accounts,
  // and releases admission even after an exceeded drain.
}

TEST(ServeDrain, DrainsInFlightSolvesCleanly) {
  // TSan-covered shutdown test: N in-flight solves across a real pool, then
  // drain — every request completes or cancels inside the deadline, the
  // admission ledger returns to zero, and the pool joins in the destructor.
  ServeLimits limits;
  limits.workers = 4;
  limits.queue_depth = 16;
  limits.drain_deadline_ms = 30000.0;
  FrameLog log;
  ServeEngine engine(limits, log.sink());

  constexpr int kInFlight = 12;
  for (int i = 1; i <= kInFlight; ++i) {
    engine.handle(Frame::request(FrameKind::solve,
                                 static_cast<std::uint64_t>(i),
                                 small_instance(40 + i, 3, 6)));
  }
  const auto drain = engine.drain();
  EXPECT_TRUE(drain.clean);
  EXPECT_EQ(drain.abandoned, 0u);

  const auto& stats = engine.stats();
  EXPECT_EQ(stats.received.load(), kInFlight);
  EXPECT_EQ(stats.accounted(), kInFlight);
  EXPECT_EQ(stats.shed.load(), 0);  // queue was deep enough
  EXPECT_EQ(log.size(), static_cast<std::size_t>(kInFlight));
  EXPECT_EQ(engine.admission().in_flight(), 0u);

  // Exactly one response per request id.
  std::vector<int> seen(kInFlight + 1, 0);
  {
    std::scoped_lock lock(log.mutex);
    for (const auto& frame : log.frames) {
      ASSERT_GE(frame.id, 1u);
      ASSERT_LE(frame.id, static_cast<std::uint64_t>(kInFlight));
      ++seen[static_cast<std::size_t>(frame.id)];
    }
  }
  for (int i = 1; i <= kInFlight; ++i) EXPECT_EQ(seen[static_cast<std::size_t>(i)], 1);
}

// --- client ----------------------------------------------------------------

TEST(ServeClient, MetricsScrapeIsResentWhenItsAnswerIsDropped) {
  ServeEngine engine(ServeLimits{}, [](const Frame&) {});
  TcpServer server(engine, 0);
  std::thread server_thread([&server] { server.run(); });

  PingOptions options;
  options.port = server.port();
  options.requests = 4;
  options.window = 1;  // one at a time: no shedding, one answer per SOLVE
  options.response_timeout_ms = 1000.0;
  // The first four responses are the SOLVE answers; the fifth, the first
  // METRICS answer, is dropped.
  FaultConfig eat_first_scrape;
  eat_first_scrape.fire_after = static_cast<std::int64_t>(options.requests);
  eat_first_scrape.max_fires = 1;
  PingReport report;
  {
    ScopedFault respond_fault("serve/respond", eat_first_scrape);
    report = run_ping(options, /*fetch_metrics=*/true);
  }

  EXPECT_EQ(report.acked, options.requests);
  EXPECT_EQ(report.resends, 0u);
  EXPECT_FALSE(report.metrics_body.empty());
  EXPECT_NE(report.metrics_body.find("kstable.stats.v1"), std::string::npos);

  engine.request_drain();
  server_thread.join();
  EXPECT_TRUE(engine.drain().clean);
  EXPECT_EQ(engine.stats().responses_dropped.load(), 1);
  EXPECT_EQ(engine.stats().metrics_requests.load(), 2);  // sent, resent
}

// --- chaos soak (the ISSUE acceptance pin) ---------------------------------

TEST(ServeChaos, TenThousandRequestSoakUnderAllServiceFaults) {
  ServeLimits limits;
  limits.workers = 2;
  limits.queue_depth = 4;
  limits.default_deadline_ms = 500.0;
  limits.shed_retry_ms = 5.0;
  limits.drain_deadline_ms = 10000.0;
  limits.chaos_stall_ms = 2.0;
  FrameLog log;  // ctor sink; TCP responses go through per-connection sinks
  ServeEngine engine(limits, log.sink());
  TcpServer server(engine, 0);
  std::thread server_thread([&server] { server.run(); });

  // All four service fault points armed (plus the stall chaos hook), firing
  // continuously from deterministic seeds.
  ScopedFault accept_fault("serve/accept", chaos(0.10, 11));
  ScopedFault parse_fault("serve/frame_parse", chaos(0.01, 12));
  ScopedFault enqueue_fault("serve/enqueue", chaos(0.01, 13));
  ScopedFault respond_fault("serve/respond", chaos(0.01, 14));
  ScopedFault stall_fault("serve/stall", chaos(0.005, 15));

  PingOptions options;
  options.port = server.port();
  options.requests = 10000;
  // Offered concurrency 32 against capacity workers + queue_depth = 6:
  // sustained overload well above 2x, so shedding genuinely engages.
  options.window = 32;
  options.k = 3;
  options.n = 2;
  options.seed = 21;
  options.response_timeout_ms = 250.0;

  const auto report = run_ping(options);

  // Exactly-once-consistent delivery despite dropped frames, dropped
  // responses, refused connections, shed bursts, and wedged workers.
  EXPECT_EQ(report.acked, 10000u);
  EXPECT_EQ(report.lost, 0u);
  EXPECT_EQ(report.inconsistent, 0u);

  engine.request_drain();
  server_thread.join();
  const auto drain = engine.drain();
  EXPECT_TRUE(drain.clean);  // SIGTERM-equivalent drains inside the deadline

  // The accounting invariant: every SOLVE the server ever saw (including
  // client resends) landed in exactly one outcome bucket.
  const auto& stats = engine.stats();
  EXPECT_GE(stats.received.load(), 10000);
  EXPECT_EQ(stats.accounted(), stats.received.load());
  EXPECT_EQ(engine.admission().in_flight(), 0u);
}

}  // namespace
}  // namespace kstable::serve
