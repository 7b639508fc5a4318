// `kmatch ping`: the bundled test client for `kmatch serve` (ISSUE 6).
//
// A single-threaded, windowed driver: it keeps at most `window` requests
// outstanding, generates deterministic SOLVE bodies from `seed`, and
// implements the client half of the service's resilience contract:
//
//   * SHED  → back off for the server's retry_after_ms hint, then resend.
//   * No response within response_timeout_ms → resend the same id, up to
//     100 sends per request before it counts as lost.
//   * Connection refused / reset / EOF → reconnect with linear backoff (10 s
//     of patience per reconnect) and resend every unacknowledged request.
//   * Duplicate responses (a natural consequence of resending) are deduped
//     by id; a duplicate that DISAGREES with the first answer is an
//     inconsistency — the one thing the protocol promises cannot happen.
//
// The kill-and-restart leg of the serve-smoke CI job rides entirely on
// this: the client observes the dead server as reconnect-and-resend, and
// the exit code says whether every request was eventually acknowledged
// exactly-once-consistently.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace kstable::serve {

struct PingOptions {
  std::uint16_t port = 0;          ///< server port (loopback)
  std::size_t requests = 100;      ///< SOLVE requests to drive
  std::size_t window = 8;          ///< max outstanding at once
  std::int32_t k = 3;              ///< genders per generated instance
  std::int32_t n = 4;              ///< members per gender
  std::uint64_t seed = 1;          ///< body-generation seed (deterministic)
  double deadline_ms = 0.0;        ///< per-request deadline attr (0 = none)
  double response_timeout_ms = 2000.0;  ///< resend trigger
};

struct PingReport {
  std::size_t acked = 0;        ///< requests with a final answer
  std::size_t ok = 0;           ///< ... OK
  std::size_t degraded = 0;     ///< ... DEGRADED
  std::size_t timeouts = 0;     ///< ... TIMEOUT
  std::size_t errors = 0;       ///< ... ERROR
  std::size_t lost = 0;         ///< no answer within 100 sends / dead server
  std::size_t shed_retries = 0; ///< SHED responses honored with backoff
  std::size_t resends = 0;      ///< response-timeout resends
  std::size_t reconnects = 0;   ///< connection losses recovered
  std::size_t duplicates = 0;   ///< duplicate answers (deduped)
  std::size_t inconsistent = 0; ///< duplicate answers that DISAGREED
  std::string metrics_body;     ///< STATS body when metrics were requested

  /// Success = every request acknowledged, and every duplicate agreed.
  [[nodiscard]] bool success() const noexcept {
    return lost == 0 && inconsistent == 0;
  }
};

/// The deterministic SOLVE body `run_ping` sends with frame id i+1: a pure
/// function of (options.seed, options.k, options.n, i).
std::string make_request_body(const PingOptions& options, std::size_t i);

/// Every body of the workload; body[i] pairs with frame id i+1.
std::vector<std::string> make_request_bodies(const PingOptions& options);

/// Writes the workload as raw frames (ids 1..requests) — the stdio-mode
/// driver: `kmatch ping --emit=F` then `kmatch serve --stdio < F`.
void emit_request_frames(const PingOptions& options, std::ostream& os);

/// Drives the workload against 127.0.0.1:port. When `fetch_metrics` is
/// true, a METRICS request follows the workload and the STATS body lands in
/// the report. Never throws for server-behavior failures — they are counted.
PingReport run_ping(const PingOptions& options, bool fetch_metrics = false);

}  // namespace kstable::serve
