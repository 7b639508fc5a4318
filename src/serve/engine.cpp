#include "serve/engine.hpp"

#include <algorithm>
#include <chrono>
#include <exception>
#include <optional>
#include <sstream>
#include <thread>
#include <utility>

#include "core/gs_cache.hpp"
#include "observability/metrics.hpp"
#include "prefs/io.hpp"
#include "prefs/matching_io.hpp"
#include "resilience/errors.hpp"
#include "resilience/fault_injection.hpp"
#include "resilience/solve_ladder.hpp"

namespace kstable::serve {

namespace {

double elapsed_ms_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

}  // namespace

ServeEngine::ServeEngine(ServeLimits limits, ResponseSink sink)
    : limits_(limits),
      sink_(std::move(sink)),
      admission_(limits.queue_depth == 0 ? 1 : limits.queue_depth),
      pool_(std::make_unique<ThreadPool>(
          limits.workers == 0 ? 1 : limits.workers)) {
  // Pre-register every request-outcome instrument: a metrics scrape must
  // always carry the full accounting set (received == completed + degraded
  // + shed + timeout + error), including the outcomes that never happened.
  KSTABLE_COUNTER_ADD("serve.requests.received", 0);
  KSTABLE_COUNTER_ADD("serve.requests.completed", 0);
  KSTABLE_COUNTER_ADD("serve.requests.degraded", 0);
  KSTABLE_COUNTER_ADD("serve.requests.shed", 0);
  KSTABLE_COUNTER_ADD("serve.requests.timeout", 0);
  KSTABLE_COUNTER_ADD("serve.requests.error", 0);
  KSTABLE_COUNTER_ADD("serve.responses.sent", 0);
  KSTABLE_COUNTER_ADD("serve.responses.dropped", 0);
  KSTABLE_COUNTER_ADD("serve.frames.bad", 0);
}

ServeEngine::~ServeEngine() {
  // Joining the pool runs every still-queued task (ThreadPool drains its
  // queue before workers exit), so no admitted request is ever lost — its
  // TaskGuard accounts it even if the server is torn down without drain().
  pool_.reset();
}

void ServeEngine::respond(const Frame& frame, const ResponseSink& sink) {
  try {
    KSTABLE_FAULT_POINT("serve/respond");
    sink(frame);
    stats_.responses_sent.fetch_add(1, std::memory_order_relaxed);
    KSTABLE_COUNTER_ADD("serve.responses.sent", 1);
  } catch (...) {
    // A dropped response is a delivery failure, not an accounting failure:
    // the request keeps its outcome bucket and the client's resend protocol
    // recovers the answer (docs/SERVE.md).
    stats_.responses_dropped.fetch_add(1, std::memory_order_relaxed);
    KSTABLE_COUNTER_ADD("serve.responses.dropped", 1);
  }
}

std::string ServeEngine::metrics_json() const {
  std::ostringstream os;
  os << "{\"schema\":\"kstable.stats.v1\",\"telemetry\":null,\"metrics\":";
  obs::MetricsRegistry::global().write_json(os);
  os << "}";
  return os.str();
}

void ServeEngine::on_bad_frame(const std::string& what,
                               const ResponseSink& sink) {
  stats_.bad_frames.fetch_add(1, std::memory_order_relaxed);
  KSTABLE_COUNTER_ADD("serve.frames.bad", 1);
  respond(Frame::response(FrameKind::error, 0, "bad frame: " + what), sink);
}

void ServeEngine::handle(Frame request, const ResponseSink& sink) {
  switch (request.kind) {
    case FrameKind::solve:
      handle_solve(std::move(request), sink);
      return;
    case FrameKind::ping:
      stats_.pings.fetch_add(1, std::memory_order_relaxed);
      KSTABLE_COUNTER_ADD("serve.control.pings", 1);
      respond(Frame::response(FrameKind::pong, request.id), sink);
      return;
    case FrameKind::metrics:
      stats_.metrics_requests.fetch_add(1, std::memory_order_relaxed);
      respond(Frame::response(FrameKind::stats, request.id, metrics_json()),
              sink);
      return;
    default:
      // A response kind (or unknown verb) sent as a request: well-framed,
      // so the stream is fine — answer ERROR and move on.
      stats_.bad_frames.fetch_add(1, std::memory_order_relaxed);
      KSTABLE_COUNTER_ADD("serve.frames.bad", 1);
      respond(Frame::response(FrameKind::error, request.id,
                              std::string("unsupported request kind ") +
                                  to_string(request.kind)),
              sink);
      return;
  }
}

void ServeEngine::handle_solve(Frame request, const ResponseSink& sink) {
  stats_.received.fetch_add(1, std::memory_order_relaxed);
  KSTABLE_COUNTER_ADD("serve.requests.received", 1);

  auto shed_response = [&](double retry_after_ms) {
    stats_.shed.fetch_add(1, std::memory_order_relaxed);
    KSTABLE_COUNTER_ADD("serve.requests.shed", 1);
    respond(Frame::response(FrameKind::shed, request.id, {}, retry_after_ms),
            sink);
  };

  // The enqueue fault point models a failure between parse and admission
  // (allocation pressure, a poisoned queue): the request sheds — the client
  // retries after backoff — rather than crashing the reader thread.
  try {
    KSTABLE_FAULT_POINT("serve/enqueue");
  } catch (const ExecutionAborted&) {
    KSTABLE_COUNTER_ADD("serve.faults.enqueue", 1);
    shed_response(limits_.shed_retry_ms);
    return;
  }

  const auto ticket = admission_.try_admit(limits_.shed_retry_ms);
  KSTABLE_GAUGE_SET("serve.queue.depth",
                    static_cast<std::int64_t>(admission_.pending()));
  KSTABLE_GAUGE_SET("serve.inflight",
                    static_cast<std::int64_t>(admission_.in_flight()));
  if (!ticket.admitted) {
    shed_response(ticket.retry_after_ms);
    return;
  }

  // Guard with shared_ptr lifetime, not task execution: if the pool task is
  // destroyed without running (an armed "thread_pool/task" fault, a torn-down
  // pool), the destructor still accounts the request and releases admission —
  // the drain can never wait on a request that will not report back.
  struct TaskGuard {
    ServeEngine* engine;
    Frame request;
    ResponseSink sink;
    bool accounted = false;
    bool started = false;  ///< a worker ran on_start() for this request
    ~TaskGuard() {
      if (!accounted) {
        engine->stats_.timed_out.fetch_add(1, std::memory_order_relaxed);
        KSTABLE_COUNTER_ADD("serve.requests.timeout", 1);
        engine->respond(Frame::response(FrameKind::timeout, request.id,
                                        "aborted before solve"),
                        sink);
      }
      if (started) {
        engine->admission_.on_finish();
      } else {
        engine->admission_.on_abandoned();
      }
    }
  };
  auto guard = std::make_shared<TaskGuard>();
  guard->engine = this;
  guard->request = std::move(request);
  guard->sink = sink;

  pool_->submit([this, guard] {
    admission_.on_start();
    guard->started = true;
    KSTABLE_GAUGE_SET("serve.queue.depth",
                      static_cast<std::int64_t>(admission_.pending()));
    const auto start = std::chrono::steady_clock::now();
    const Frame& req = guard->request;

    auto finish = [&](FrameKind kind, std::string body,
                      std::atomic<std::int64_t>& bucket) {
      bucket.fetch_add(1, std::memory_order_relaxed);
      guard->accounted = true;
      KSTABLE_HISTOGRAM_OBSERVE_MS("serve.solve_wall_ms",
                                   elapsed_ms_since(start));
      respond(Frame::response(kind, req.id, std::move(body)), guard->sink);
    };

    // Chaos hook: a wedged worker that ignores cancellation for a while —
    // the one failure mode cooperative ExecControl cannot unstick. Used by
    // the drain-deadline-exceeded tests.
    try {
      KSTABLE_FAULT_POINT("serve/stall");
    } catch (const ExecutionAborted&) {
      KSTABLE_COUNTER_ADD("serve.faults.stall", 1);
      std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(
          limits_.chaos_stall_ms));
      KSTABLE_COUNTER_ADD("serve.requests.timeout", 1);
      finish(FrameKind::timeout, "stalled worker", stats_.timed_out);
      return;
    }

    std::optional<KPartiteInstance> inst;
    const auto parse_start = std::chrono::steady_clock::now();
    try {
      inst = io::from_string(req.body);
    } catch (const ContractViolation& e) {
      KSTABLE_COUNTER_ADD("serve.requests.error", 1);
      finish(FrameKind::error, std::string("bad instance: ") + e.what(),
             stats_.errors);
      return;
    }
    KSTABLE_HISTOGRAM_OBSERVE_MS("serve.parse_ms",
                                 elapsed_ms_since(parse_start));

    // Per-request budget: the client's deadline (clamped) or the server
    // default, split evenly across the ladder rungs so the whole ladder —
    // retries and the degraded last rung included — fits the request budget.
    const double deadline_ms =
        req.deadline_ms > 0.0
            ? std::min(req.deadline_ms, limits_.max_deadline_ms)
            : limits_.default_deadline_ms;
    const int rungs =
        limits_.max_tree_attempts + (limits_.allow_degraded ? 1 : 0);
    resilience::Budget per_attempt;
    per_attempt.wall_ms = deadline_ms / std::max(rungs, 1);
    if (limits_.max_proposals > 0) {
      per_attempt.max_proposals =
          std::max<std::int64_t>(1, limits_.max_proposals / std::max(rungs, 1));
    }
    // The token is copied in, not assigned over a default one, so no
    // throwaway flag is allocated per request.
    resilience::FallbackOptions opts{
        .per_attempt = per_attempt,
        .max_tree_attempts = limits_.max_tree_attempts,
        .token = drain_token_,  // drain cancels in-flight ladders
        .allow_degraded = limits_.allow_degraded,
    };

    try {
      // Per-request cache ownership: built for this instance, shared across
      // the ladder's rungs (edges completed by an aborted attempt replay for
      // free), destroyed — evicted — when the request finishes.
      core::GsEdgeCache cache(*inst);
      opts.cache = &cache;
      auto report = resilience::solve_with_fallback(*inst, opts);
      if (report.succeeded) {
        const auto encode_start = std::chrono::steady_clock::now();
        std::string body = io::to_string(report.matching());
        KSTABLE_HISTOGRAM_OBSERVE_MS("serve.encode_ms",
                                     elapsed_ms_since(encode_start));
        if (report.degraded()) {
          KSTABLE_COUNTER_ADD("serve.requests.degraded", 1);
          finish(FrameKind::degraded, std::move(body), stats_.degraded);
        } else {
          KSTABLE_COUNTER_ADD("serve.requests.completed", 1);
          finish(FrameKind::ok, std::move(body), stats_.completed);
        }
      } else {
        if (report.status.abort_reason == AbortReason::cancelled) {
          stats_.drain_cancelled.fetch_add(1, std::memory_order_relaxed);
          KSTABLE_COUNTER_ADD("serve.drain.cancelled", 1);
        }
        KSTABLE_COUNTER_ADD("serve.requests.timeout", 1);
        finish(FrameKind::timeout, report.status.summary(), stats_.timed_out);
      }
    } catch (const std::exception& e) {
      // A server must not die for one poisoned request: even a
      // ContractViolation (programming error for this instance) becomes an
      // ERROR response; the instance body is in the client's hands for a
      // repro.
      KSTABLE_COUNTER_ADD("serve.requests.error", 1);
      finish(FrameKind::error, std::string("solve failed: ") + e.what(),
             stats_.errors);
    }
  });
}

DrainResult ServeEngine::drain() {
  const auto start = std::chrono::steady_clock::now();
  admission_.close();
  DrainResult result;
  bool idle = admission_.await_idle(limits_.drain_deadline_ms);
  if (!idle) {
    // Past the drain deadline: pull the shared token — every in-flight
    // ladder observes it at its next charge/check_now and aborts — then
    // give cooperative abort a bounded grace window.
    drain_token_.request_cancel();
    result.cancelled = true;
    idle = admission_.await_idle(limits_.drain_grace_ms);
  }
  result.clean = idle;
  result.abandoned = admission_.in_flight();
  result.wall_ms = elapsed_ms_since(start);
  drained_.store(true, std::memory_order_release);
  KSTABLE_GAUGE_SET_MS("serve.drain.wall_ms", result.wall_ms);
  if (!result.clean) KSTABLE_COUNTER_ADD("serve.drain.exceeded", 1);
  return result;
}

}  // namespace kstable::serve
