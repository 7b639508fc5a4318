// ServeEngine: the transport-independent core of `kmatch serve`.
//
// The engine composes the pieces the ROADMAP said a server needs:
//   * AdmissionController  — bounded backlog, load shedding with retry-after
//   * ThreadPool           — in-flight solves (owned; workers = limits.workers)
//   * ExecControl          — the request's deadline_ms (clamped to the
//                            server max) becomes the per-attempt wall budget
//   * solve_with_fallback  — tight budgets degrade through the ladder to the
//                            Algorithm 2 priority model instead of failing
//   * GsEdgeCache          — one cache per request, owned by the worker task
//                            and destroyed with it: the per-request lifecycle
//                            answer to "who owns the cache, when is it
//                            evicted" (a cache is bound to one instance)
//   * MetricsRegistry      — serve.* counters/gauges (docs/SERVE.md table)
//
// Transports (stdio / TCP in server.cpp, the in-process chaos tests) parse
// frames and call handle(); responses come back asynchronously through the
// sink callback, which must be thread-safe — pool workers call it.
//
// Accounting contract (pinned by tests/serve_test.cpp and the serve-smoke
// CI job): every SOLVE frame handed to handle() ends in EXACTLY one of
//   completed | degraded | shed | timed_out | errors
// and stats().received equals their sum — under overload, injected faults
// on all four service points, and drain. Response-delivery failures
// (the "serve/respond" fault, a dead socket) are counted separately in
// responses_dropped: the request stays accounted, the client's resend
// protocol covers the delivery.
//
// Drain protocol: request_drain() is async-signal-safe-adjacent (one relaxed
// store; the transports' signal handlers set a sig_atomic_t and their loops
// call it); drain() closes admission, waits drain_deadline_ms for in-flight
// work, then cancels cooperatively via the shared drain token and waits
// drain_grace_ms more. DrainResult::clean == false (workers still busy after
// cancel + grace, e.g. a wedged solve) maps to exit code 3 in the CLI.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "parallel/thread_pool.hpp"
#include "resilience/control.hpp"
#include "serve/admission.hpp"
#include "serve/protocol.hpp"

namespace kstable::serve {

/// Tunables of one server instance; every field has a CLI flag.
struct ServeLimits {
  std::size_t workers = 2;          ///< pool size for in-flight solves
  std::size_t queue_depth = 16;     ///< admitted-but-not-started backlog cap
  double default_deadline_ms = 1000.0;  ///< request budget when none is sent
  double max_deadline_ms = 10000.0;     ///< clamp on client-sent deadlines
  double shed_retry_ms = 25.0;      ///< base retry-after hint when shedding
  double drain_deadline_ms = 2000.0;    ///< natural-completion drain window
  double drain_grace_ms = 500.0;    ///< post-cancel cooperative-abort window
  std::int64_t max_proposals = 0;   ///< optional per-request proposal cap
  std::int32_t max_tree_attempts = 2;   ///< strict ladder rungs per request
  bool allow_degraded = true;       ///< permit the Algorithm 2 last rung
  double chaos_stall_ms = 0.0;      ///< "serve/stall" fault: wedge a worker
                                    ///< this long (ignores cancellation)
};

/// Engine-local accounting (relaxed atomics; mirrored into the global
/// MetricsRegistry as serve.* instruments). Tests assert on these rather
/// than the process-global registry so suites stay independent.
struct ServeStats {
  std::atomic<std::int64_t> received{0};   ///< SOLVE frames seen
  std::atomic<std::int64_t> completed{0};  ///< OK (strict rung)
  std::atomic<std::int64_t> degraded{0};   ///< OK via degraded priority rung
  std::atomic<std::int64_t> shed{0};       ///< refused by admission/enqueue
  std::atomic<std::int64_t> timed_out{0};  ///< aborted (deadline/budget/
                                           ///< cancel/stall) — no matching
  std::atomic<std::int64_t> errors{0};     ///< unparsable SOLVE body / solve
                                           ///< threw a non-abort exception
  std::atomic<std::int64_t> pings{0};      ///< PING control frames
  std::atomic<std::int64_t> metrics_requests{0};  ///< METRICS control frames
  std::atomic<std::int64_t> bad_frames{0};        ///< frame-level parse errors
  std::atomic<std::int64_t> responses_sent{0};
  std::atomic<std::int64_t> responses_dropped{0};  ///< respond fault/IO error
  std::atomic<std::int64_t> drain_cancelled{0};    ///< solves cancelled by drain

  /// The chaos-soak invariant: every received SOLVE is in exactly one bucket.
  [[nodiscard]] std::int64_t accounted() const noexcept {
    return completed.load() + degraded.load() + shed.load() +
           timed_out.load() + errors.load();
  }
};

/// Outcome of a drain.
struct DrainResult {
  bool clean = false;        ///< all in-flight work finished (or cancelled
                             ///< cooperatively) inside deadline + grace
  bool cancelled = false;    ///< the drain token had to be pulled
  double wall_ms = 0.0;      ///< total drain time
  std::size_t abandoned = 0; ///< requests still running after cancel + grace
};

class ServeEngine {
 public:
  /// `sink` delivers response frames; it MUST be thread-safe (pool workers
  /// call it concurrently) and should not throw for flow-control — a throw
  /// is counted as a dropped response, never propagated into the worker.
  using ResponseSink = std::function<void(const Frame&)>;

  ServeEngine(ServeLimits limits, ResponseSink sink);
  ~ServeEngine();

  ServeEngine(const ServeEngine&) = delete;
  ServeEngine& operator=(const ServeEngine&) = delete;

  /// Routes one parsed frame. SOLVE goes through admission and the pool;
  /// PING/METRICS are answered synchronously on the calling thread; anything
  /// else gets an ERROR response. Never throws for request-level failures.
  /// The overload with `sink` routes this request's responses to a specific
  /// transport endpoint (the TCP server passes the originating connection's
  /// writer; the sink is copied into the worker task and may outlive the
  /// connection — it must fail by throwing, which counts as a dropped
  /// response).
  void handle(const Frame& request) { handle(request, sink_); }
  void handle(const Frame& request, const ResponseSink& sink);

  /// A transport failed to parse a frame: counts it and emits an ERROR
  /// response (id 0 — the header never yielded one).
  void on_bad_frame(const std::string& what) { on_bad_frame(what, sink_); }
  void on_bad_frame(const std::string& what, const ResponseSink& sink);

  /// Signal-handler entry: flags drain intent. The owning transport loop
  /// observes draining() and calls drain().
  void request_drain() noexcept {
    drain_requested_.store(true, std::memory_order_release);
  }
  [[nodiscard]] bool drain_requested() const noexcept {
    return drain_requested_.load(std::memory_order_acquire);
  }

  /// Closes admission, waits for in-flight work (deadline), cancels and
  /// waits again (grace). Idempotent; the second call reports the settled
  /// state. Pool join happens in the destructor.
  DrainResult drain();

  /// The constructor sink (what the sink-less handle() overload uses);
  /// transports with one shared output stream pump through this.
  [[nodiscard]] const ResponseSink& default_sink() const noexcept {
    return sink_;
  }

  [[nodiscard]] const ServeStats& stats() const noexcept { return stats_; }
  [[nodiscard]] const ServeLimits& limits() const noexcept { return limits_; }
  [[nodiscard]] const AdmissionController& admission() const noexcept {
    return admission_;
  }

 private:
  void handle_solve(const Frame& request, const ResponseSink& sink);
  void respond(const Frame& frame, const ResponseSink& sink);
  /// Builds the kstable.stats.v1 JSON body for METRICS responses: the
  /// global registry, or, in a build without metrics, the serve.requests.*,
  /// serve.responses.* and serve.frames.bad accounting from stats_.
  [[nodiscard]] std::string metrics_json() const;

  ServeLimits limits_;
  ResponseSink sink_;
  AdmissionController admission_;
  resilience::CancellationToken drain_token_;
  ServeStats stats_;
  std::atomic<bool> drain_requested_{false};
  std::atomic<bool> drained_{false};
  // Declared last: the pool must be destroyed (joined) before the members
  // its tasks use.
  std::unique_ptr<ThreadPool> pool_;
};

}  // namespace kstable::serve
