// Observability metrics: a process-wide registry of named counters, gauges,
// and histograms fed by every solver layer (ROADMAP: a serving system must
// expose its internal signals — proposals, cache hits, fallback rungs, PRAM
// rounds — without perturbing the hot paths it measures).
//
// Cost discipline:
//   * Registration (name lookup) takes a mutex, but every instrumented call
//     site resolves its handle ONCE through a function-local static — the
//     steady-state cost of KSTABLE_COUNTER_ADD is a single relaxed
//     fetch_add, and instruments are bumped per *solve* (or per edge), never
//     per proposal.
//   * Nothing allocates once a handle or series exists: a repeat lookup
//     finds the name through a string_view, and obs::record builds its
//     solve.<engine>.* names on the stack — asserted by the
//     allocation-counting tests in tests/metrics_overhead_test.cpp.
//
// Naming convention: dot-separated lowercase paths ("binding.proposals",
// "cache.hits", "ladder.rung.degraded"). Exporters sanitize names for their
// format (Prometheus: dots become underscores and a "kstable_" prefix is
// added). The full name table lives in docs/OBSERVABILITY.md (the serve.*
// rows in docs/SERVE.md); ctest metric_names holds every name literal under
// src/ to exactly one row.
#pragma once

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

namespace kstable::obs {

/// Monotonically increasing relaxed-atomic counter.
class Counter {
 public:
  void add(std::int64_t delta = 1) noexcept {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  [[nodiscard]] std::int64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() noexcept { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::int64_t> value_{0};
};

/// Last-write-wins instantaneous value (e.g. deadline margin of the most
/// recent guarded solve). Stored in micro-units when the source is a double;
/// see Gauge::set_ms.
class Gauge {
 public:
  void set(std::int64_t value) noexcept {
    value_.store(value, std::memory_order_relaxed);
  }
  /// Stores a millisecond quantity with microsecond resolution (values are
  /// integers; 1.25 ms is recorded as 1250).
  void set_ms(double ms) noexcept {
    set(static_cast<std::int64_t>(ms * 1e3));
  }
  [[nodiscard]] std::int64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() noexcept { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::int64_t> value_{0};
};

/// Exponential-bucket histogram over non-negative int64 observations: bucket
/// b counts values in [2^(b-1), 2^b) (bucket 0 holds 0), matching the
/// Mertens-style "the behaviour lives in the distribution" use cases —
/// proposal counts per solve, wall micros per phase. Fixed bucket count, all
/// relaxed atomics, no allocation after construction.
class Histogram {
 public:
  static constexpr int kBuckets = 40;  ///< covers values up to ~5.5e11

  void observe(std::int64_t value) noexcept {
    if (value < 0) value = 0;
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(value, std::memory_order_relaxed);
    buckets_[bucket_of(value)].fetch_add(1, std::memory_order_relaxed);
  }
  /// Observes a millisecond quantity at microsecond resolution.
  void observe_ms(double ms) noexcept {
    observe(static_cast<std::int64_t>(ms * 1e3));
  }

  [[nodiscard]] std::int64_t count() const noexcept {
    return count_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::int64_t sum() const noexcept {
    return sum_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::int64_t bucket(int b) const noexcept {
    return buckets_[b].load(std::memory_order_relaxed);
  }
  /// Inclusive upper bound of bucket `b` (the Prometheus `le` label).
  [[nodiscard]] static std::int64_t bucket_bound(int b) noexcept {
    return b == 0 ? 0 : (std::int64_t{1} << b) - 1;
  }
  void reset() noexcept {
    count_.store(0, std::memory_order_relaxed);
    sum_.store(0, std::memory_order_relaxed);
    for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
  }

 private:
  [[nodiscard]] static int bucket_of(std::int64_t value) noexcept {
    // observe() clamps negatives, so the cast keeps the value.
    return std::min(
        static_cast<int>(std::bit_width(static_cast<std::uint64_t>(value))),
        kBuckets - 1);
  }

  std::atomic<std::int64_t> count_{0};
  std::atomic<std::int64_t> sum_{0};
  std::atomic<std::int64_t> buckets_[kBuckets]{};
};

/// Named instrument registry. Instruments are created on first lookup and
/// never destroyed or moved (deque-backed), so references handed out stay
/// valid for the process lifetime — the macros below cache them in
/// function-local statics. One process-wide instance via global(); separate
/// registries can be constructed for tests.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;
  ~MetricsRegistry();

  /// The process-wide registry every KSTABLE_* macro feeds.
  static MetricsRegistry& global();

  /// Finds or creates the named instrument. The returned reference is stable
  /// for the registry's lifetime. A name registered as one kind must not be
  /// re-requested as another (contract-checked).
  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  Histogram& histogram(std::string_view name);

  /// Snapshot of one instrument for export; histograms carry buckets.
  struct Sample {
    std::string name;
    enum class Kind : std::uint8_t { counter, gauge, histogram } kind;
    std::int64_t value = 0;           ///< counter/gauge value; histogram sum
    std::int64_t count = 0;           ///< histogram observation count
    std::vector<std::int64_t> buckets;  ///< histogram bucket counts
  };
  /// All instruments, sorted by name (a point-in-time relaxed snapshot).
  [[nodiscard]] std::vector<Sample> snapshot() const;

  /// Single-line JSON object: {"binding.proposals":123,"binding.wall_us":
  /// {"count":4,"sum":87,"buckets":[...]},...}.
  void write_json(std::ostream& os) const;

  /// Prometheus text exposition format: names are prefixed with "kstable_",
  /// dots become underscores, counters get a _total suffix, histograms emit
  /// _bucket/_sum/_count series.
  void write_prometheus(std::ostream& os) const;

  /// Zeroes every instrument (tests and per-run CLI exports).
  void reset();

  /// Number of registered instruments.
  [[nodiscard]] std::size_t size() const;

  /// Registry body (instrument storage + name map); public only so the
  /// implementation file's helpers can name it.
  struct Impl;

 private:
  Impl& impl() const;
  mutable std::atomic<Impl*> impl_{nullptr};
};

}  // namespace kstable::obs

// ---------------------------------------------------------------------------
// Instrumentation macros. Name must be a string literal (it seeds a
// function-local static handle, resolved once).
// ---------------------------------------------------------------------------
#define KSTABLE_COUNTER_ADD(name, delta)                                   \
  do {                                                                     \
    static ::kstable::obs::Counter& kstable_obs_c_ =                       \
        ::kstable::obs::MetricsRegistry::global().counter(name);           \
    kstable_obs_c_.add(delta);                                             \
  } while (false)

#define KSTABLE_GAUGE_SET(name, value)                                    \
  do {                                                                     \
    static ::kstable::obs::Gauge& kstable_obs_g_ =                         \
        ::kstable::obs::MetricsRegistry::global().gauge(name);             \
    kstable_obs_g_.set(value);                                             \
  } while (false)

#define KSTABLE_GAUGE_SET_MS(name, ms)                                    \
  do {                                                                     \
    static ::kstable::obs::Gauge& kstable_obs_g_ =                         \
        ::kstable::obs::MetricsRegistry::global().gauge(name);             \
    kstable_obs_g_.set_ms(ms);                                             \
  } while (false)

#define KSTABLE_HISTOGRAM_OBSERVE(name, value)                            \
  do {                                                                     \
    static ::kstable::obs::Histogram& kstable_obs_h_ =                     \
        ::kstable::obs::MetricsRegistry::global().histogram(name);         \
    kstable_obs_h_.observe(value);                                         \
  } while (false)

#define KSTABLE_HISTOGRAM_OBSERVE_MS(name, ms)                            \
  do {                                                                     \
    static ::kstable::obs::Histogram& kstable_obs_h_ =                     \
        ::kstable::obs::MetricsRegistry::global().histogram(name);         \
    kstable_obs_h_.observe_ms(ms);                                         \
  } while (false)
