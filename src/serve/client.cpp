#include "serve/client.hpp"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <istream>
#include <memory>
#include <optional>
#include <ostream>
#include <sstream>
#include <thread>
#include <unordered_set>
#include <vector>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include "prefs/generators.hpp"
#include "prefs/io.hpp"
#include "resilience/errors.hpp"
#include "serve/fd_stream.hpp"
#include "serve/protocol.hpp"
#include "util/rng.hpp"

namespace kstable::serve {

namespace {

using Clock = std::chrono::steady_clock;

Clock::duration ms(double value) {
  return std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double, std::milli>(value));
}

/// One request's client-side lifecycle.
struct RequestState {
  std::string body;
  std::size_t attempts = 0;
  bool outstanding = false;  ///< sent, awaiting an answer
  bool acked = false;
  bool lost = false;
  Clock::time_point last_send{};
  Clock::time_point not_before{};  ///< SHED backoff / reconnect gate
  FrameKind outcome = FrameKind::unknown;
  std::string answer;  ///< recorded for duplicate-consistency checking
};

int connect_once(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) !=
      0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

/// Linear-backoff reconnect: the kill-and-restart smoke leg depends on the
/// client outliving a server restart window.
int connect_with_retry(std::uint16_t port, double total_wait_ms) {
  const auto deadline = Clock::now() + ms(total_wait_ms);
  double backoff_ms = 25.0;
  while (true) {
    const int fd = connect_once(port);
    if (fd >= 0) return fd;
    if (Clock::now() + ms(backoff_ms) > deadline) return -1;
    std::this_thread::sleep_for(ms(backoff_ms));
    backoff_ms = std::min(backoff_ms + 25.0, 500.0);
  }
}

bool send_frame(int fd, const Frame& frame) {
  std::ostringstream os;
  write_frame(os, frame);
  const std::string bytes = os.str();
  return send_all(fd, bytes.data(), bytes.size());
}

}  // namespace

std::string make_request_body(const PingOptions& options, std::size_t i) {
  // One fork per request: bodies are a pure function of (seed, i), so a
  // failing request replays from its frame id alone.
  Rng rng(options.seed + 0x9e3779b97f4a7c15ULL * (i + 1));
  return io::to_string(gen::uniform(static_cast<Gender>(options.k),
                                    static_cast<Index>(options.n), rng));
}

std::vector<std::string> make_request_bodies(const PingOptions& options) {
  std::vector<std::string> bodies;
  bodies.reserve(options.requests);
  for (std::size_t i = 0; i < options.requests; ++i) {
    bodies.push_back(make_request_body(options, i));
  }
  return bodies;
}

void emit_request_frames(const PingOptions& options, std::ostream& os) {
  const auto bodies = make_request_bodies(options);
  for (std::size_t i = 0; i < bodies.size(); ++i) {
    write_frame(os, Frame::request(FrameKind::solve, i + 1, bodies[i],
                                   options.deadline_ms));
  }
}

PingReport run_ping(const PingOptions& options, bool fetch_metrics) {
  PingReport report;
  // Bodies are generated on first send, not up front: the workload starts
  // as soon as the client connects, however slow generation is (a large
  // --requests, a sanitizer build).
  std::vector<RequestState> states(options.requests);

  int fd = connect_with_retry(options.port, options.connect_wait_ms);
  std::unique_ptr<FdReadBuf> buffer;
  std::unique_ptr<std::istream> input;
  auto attach = [&] {
    buffer = std::make_unique<FdReadBuf>(fd);
    input = std::make_unique<std::istream>(buffer.get());
  };
  if (fd >= 0) attach();

  std::size_t settled = 0;      // acked + lost
  std::size_t outstanding = 0;  // window occupancy

  // Connection loss: drop the socket, reconnect, and requeue every
  // outstanding request (an unacknowledged request may or may not have been
  // processed — resending is safe because responses dedupe by id). The
  // window counter resets with the flags: a full window at disconnect would
  // otherwise block every resend forever (nothing outstanding to time out,
  // no slot free to send) and wedge the client.
  auto reconnect = [&]() -> bool {
    if (fd >= 0) ::close(fd);
    fd = connect_with_retry(options.port, options.connect_wait_ms);
    if (fd < 0) return false;
    attach();
    ++report.reconnects;
    const auto now = Clock::now();
    for (auto& state : states) {
      if (state.outstanding) {
        state.outstanding = false;
        state.not_before = now;
      }
    }
    outstanding = 0;
    return true;
  };

  auto give_up_all = [&] {
    for (auto& state : states) {
      if (!state.acked && !state.lost) {
        state.lost = true;
        ++report.lost;
      }
    }
  };

  if (fd < 0) {
    give_up_all();
    return report;
  }

  // Each send pass starts at the first unsettled request and stops at the
  // never-sent suffix once the window is full, so a pass costs O(window +
  // unsettled stragglers), not O(requests).
  std::size_t first_open = 0;  // every request before it is acked or lost
  std::size_t next_fresh = 0;  // every request from it on was never sent
  while (settled < states.size()) {
    const auto now = Clock::now();
    while (first_open < states.size() &&
           (states[first_open].acked || states[first_open].lost)) {
      ++first_open;
    }

    // Launch / resend under the window.
    bool send_failed = false;
    for (std::size_t i = first_open; i < states.size() && !send_failed; ++i) {
      if (i >= next_fresh && outstanding >= options.window) break;
      auto& state = states[i];
      if (state.acked || state.lost) continue;
      const bool timed_out =
          state.outstanding &&
          now - state.last_send >= ms(options.response_timeout_ms);
      const bool ready = !state.outstanding && now >= state.not_before &&
                         outstanding < options.window;
      if (!timed_out && !ready) continue;
      if (state.attempts >= options.max_attempts) {
        if (state.outstanding) --outstanding;
        state.outstanding = false;
        state.lost = true;
        ++report.lost;
        ++settled;
        continue;
      }
      if (timed_out) ++report.resends;
      if (state.attempts == 0) {
        state.body = make_request_body(options, i);
        next_fresh = i + 1;
      }
      ++state.attempts;
      state.last_send = now;
      if (!state.outstanding) {
        state.outstanding = true;
        ++outstanding;
      }
      if (!send_frame(fd, Frame::request(FrameKind::solve, i + 1, state.body,
                                         options.deadline_ms))) {
        send_failed = true;
      }
    }
    if (send_failed) {
      if (!reconnect()) {
        give_up_all();
        break;
      }
      continue;
    }

    // Wait for data: buffered leftovers first, else poll the socket. The
    // slice is short so backoff gates and resend timers stay responsive.
    if (buffer->in_avail() <= 0) {
      pollfd pfd{};
      pfd.fd = fd;
      pfd.events = POLLIN;
      const int ready = ::poll(&pfd, 1, 50);
      if (ready <= 0) continue;  // timeout/EINTR: rerun the send pass
    }

    std::optional<Frame> frame;
    try {
      frame = read_frame(*input);
    } catch (const ExecutionAborted&) {
      // In-process chaos tests arm "serve/frame_parse" globally, so the
      // fault can fire in the CLIENT's reader too. The frame's bytes are
      // consumed (stream synced); drop it and let the resend timer recover.
      continue;
    } catch (const ParseError&) {
      frame = std::nullopt;  // corrupt stream: treat as connection loss
    }
    if (!frame) {
      if (!reconnect()) {
        give_up_all();
        break;
      }
      continue;
    }

    if (frame->id == 0 || frame->id > states.size()) continue;  // stale
    auto& state = states[frame->id - 1];

    if (frame->kind == FrameKind::shed) {
      if (state.acked || state.lost) continue;
      ++report.shed_retries;
      if (state.outstanding) {
        state.outstanding = false;
        --outstanding;
      }
      // Honor the server's hint — this is the cooperative half of load
      // shedding. A zero hint still backs off one timer slice.
      state.not_before =
          Clock::now() + ms(std::max(frame->retry_after_ms, 1.0));
      continue;
    }

    // Final answers: OK / DEGRADED / TIMEOUT / ERROR all acknowledge the
    // request (the server accounted it); they differ only in outcome.
    if (state.acked) {
      ++report.duplicates;
      if (state.outcome != frame->kind || state.answer != frame->body) {
        ++report.inconsistent;
      }
      continue;
    }
    state.acked = true;
    state.outcome = frame->kind;
    state.answer = frame->body;
    if (state.outstanding) {
      state.outstanding = false;
      --outstanding;
    }
    ++settled;
    ++report.acked;
    switch (frame->kind) {
      case FrameKind::ok: ++report.ok; break;
      case FrameKind::degraded: ++report.degraded; break;
      case FrameKind::timeout: ++report.timeouts; break;
      default: ++report.errors; break;
    }
  }

  if (fetch_metrics && fd >= 0) {
    // One METRICS round-trip after the workload; id beyond the workload
    // range so a stale SOLVE answer cannot be mistaken for it. Like a SOLVE,
    // the request is resent when no answer arrives within the response
    // timeout (a dropped response or an eaten frame), up to max_attempts
    // sends; a resend's duplicate answer is ignored.
    const std::uint64_t metrics_id = states.size() + 1;
    bool answered = false;
    bool broken = false;
    for (std::size_t attempt = 0;
         attempt < options.max_attempts && !answered && !broken; ++attempt) {
      if (!send_frame(fd, Frame::request(FrameKind::metrics, metrics_id))) {
        break;
      }
      const auto deadline = Clock::now() + ms(options.response_timeout_ms);
      while (!answered && !broken && Clock::now() < deadline) {
        if (buffer->in_avail() <= 0) {
          pollfd pfd{};
          pfd.fd = fd;
          pfd.events = POLLIN;
          if (::poll(&pfd, 1, 50) <= 0) continue;
        }
        std::optional<Frame> frame;
        try {
          frame = read_frame(*input);
        } catch (const ExecutionAborted&) {
          continue;  // injected parse fault: frame consumed, stream synced
        } catch (const ParseError&) {
          broken = true;
          continue;
        }
        if (!frame) {
          broken = true;
        } else if (frame->kind == FrameKind::stats &&
                   frame->id == metrics_id) {
          report.metrics_body = frame->body;
          answered = true;
        }
      }
    }
  }

  if (fd >= 0) ::close(fd);
  return report;
}

}  // namespace kstable::serve
