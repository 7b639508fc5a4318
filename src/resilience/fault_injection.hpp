// Deterministic, seed-driven fault injection (tarantool ERROR_INJECT idiom).
//
// Code under test declares named fault points with KSTABLE_FAULT_POINT("x/y");
// a disarmed point costs one relaxed atomic load. Tests arm points through
// the global FaultRegistry (or the RAII ScopedFault) with a FaultConfig; when
// an armed point's firing rule matches, on_hit throws InjectedFault — an
// ExecutionAborted, so every recovery path (solve_with_fallback, thread-pool
// error propagation, CLI exit codes) treats an injected fault exactly like a
// real abort.
//
// Firing is deterministic: each armed point owns a private Rng seeded from
// its config, hit counting is per-arm, and the registry records the exact hit
// ordinals that fired (fire_log) so tests can assert replay equality.
//
// Registered points (grep KSTABLE_FAULT_POINT for ground truth):
//   thread_pool/task            inside every submit()ted task
//   thread_pool/for_each_index  inside every for_each_index body
//   io/load                     entry of the three deserializers
//   core/binding_edge           before each binding edge's GS run
//   core/parallel_round         before each parallel-executor round
//   rm/rotation                 before each rotation elimination
//   serve/accept                after each TCP accept, before the reader
//   serve/frame_parse           after a frame's bytes are fully consumed
//   serve/enqueue               between frame parse and admission
//   serve/respond               before each response write
//   serve/stall                 start of each admitted solve (wedged worker)
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "resilience/errors.hpp"

namespace kstable::resilience {

/// When and how often an armed fault point fires.
struct FaultConfig {
  /// Number of hits to let pass before the firing rule engages (0 = first
  /// hit is eligible).
  std::int64_t fire_after = 0;
  /// Chance an eligible hit fires; draws come from a private Rng seeded with
  /// `seed`, so firing patterns replay exactly. 1.0 = always.
  double probability = 1.0;
  /// Seed of the point's private random stream.
  std::uint64_t seed = 1;
  /// Total fires before the point stops firing (it stays armed for
  /// hit counting); 0 = unlimited.
  std::int64_t max_fires = 1;
};

/// Global registry of named fault points. Thread-safe: points fire from pool
/// workers as well as the calling thread.
class FaultRegistry {
 public:
  static FaultRegistry& instance();

  /// Arms `point` with `config`, resetting its counters and random stream.
  void arm(const std::string& point, FaultConfig config = {});

  /// Disarms `point`; hit/fire counters for it are discarded.
  void disarm(const std::string& point);

  /// Disarms every point (test teardown).
  void disarm_all();

  [[nodiscard]] bool armed(const std::string& point) const;

  /// Hits observed since `point` was armed (0 if not armed).
  [[nodiscard]] std::int64_t hits(const std::string& point) const;

  /// Times `point` has fired since armed (0 if not armed).
  [[nodiscard]] std::int64_t fires(const std::string& point) const;

  /// 1-based hit ordinals at which `point` fired, in order — the replay
  /// fingerprint deterministic-injection tests compare.
  [[nodiscard]] std::vector<std::int64_t> fire_log(
      const std::string& point) const;

  /// Called by KSTABLE_FAULT_POINT. Counts the hit and throws InjectedFault
  /// if the firing rule matches. No-op for unarmed points.
  void on_hit(const char* point);

 private:
  FaultRegistry() = default;
  struct State;  // defined in the .cpp: config + rng + counters per point

  // pimpl-free variant: the map lives behind this opaque accessor to keep
  // <unordered_map> and Rng out of the (hot-path-included) header.
  class Impl;
  Impl& impl() const;
};

namespace detail {
/// Fast-path gate: number of currently armed points. The KSTABLE_FAULT_POINT
/// macro skips the registry (one relaxed load) while this is zero.
extern std::atomic<std::int32_t> g_armed_points;
}  // namespace detail

/// RAII arm/disarm for tests: arms in the constructor, disarms in the
/// destructor so a failing test cannot leak an armed point into the next.
class ScopedFault {
 public:
  explicit ScopedFault(std::string point, FaultConfig config = {})
      : point_(std::move(point)) {
    FaultRegistry::instance().arm(point_, config);
  }
  ~ScopedFault() { FaultRegistry::instance().disarm(point_); }

  ScopedFault(const ScopedFault&) = delete;
  ScopedFault& operator=(const ScopedFault&) = delete;

  [[nodiscard]] const std::string& point() const noexcept { return point_; }
  [[nodiscard]] std::int64_t hits() const {
    return FaultRegistry::instance().hits(point_);
  }
  [[nodiscard]] std::int64_t fires() const {
    return FaultRegistry::instance().fires(point_);
  }

 private:
  std::string point_;
};

}  // namespace kstable::resilience

/// Declares a fault point. Disarmed cost: one relaxed atomic load.
#define KSTABLE_FAULT_POINT(name)                                              \
  do {                                                                         \
    if (::kstable::resilience::detail::g_armed_points.load(                    \
            std::memory_order_relaxed) > 0) {                                  \
      ::kstable::resilience::FaultRegistry::instance().on_hit(name);           \
    }                                                                          \
  } while (false)
