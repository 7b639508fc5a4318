#include "core/gs_cache.hpp"

#include <chrono>
#include <utility>

#include "observability/metrics.hpp"
#include "util/check.hpp"

namespace kstable::core {

namespace {

/// How long a single-flight waiter sleeps between checks of its ExecControl.
/// A GS edge run is O(n²) proposals, so waits are normally tens of
/// microseconds; the interval only bounds how stale a deadline/cancellation
/// check can get while the leader is unusually slow.
constexpr std::chrono::milliseconds kWaiterPollInterval{20};

}  // namespace

GsEdgeCache::GsEdgeCache(Gender k)
    : k_(k),
      slots_(static_cast<std::size_t>(k >= 2 ? k : 0) *
             static_cast<std::size_t>(k >= 2 ? k : 0) * kEngineCount) {
  KSTABLE_REQUIRE(k >= 2, "GsEdgeCache needs k >= 2, got " << k);
}

GsEdgeCache::GsEdgeCache(const KPartiteInstance& inst)
    : GsEdgeCache(inst.genders()) {
  bound_generation_ = inst.generation();
}

void GsEdgeCache::check_instance(const KPartiteInstance& inst) const {
  KSTABLE_REQUIRE(inst.genders() == k_,
                  "GsEdgeCache built for k=" << k_ << ", instance has k="
                                             << inst.genders());
  if (!bound_generation_.has_value()) return;  // unbound cache
  KSTABLE_REQUIRE(inst.generation() == *bound_generation_,
                  "stale GsEdgeCache: bound at instance generation "
                      << *bound_generation_ << ", instance is now at "
                      << inst.generation()
                      << " — invalidate()/clear() the touched edges and "
                         "rebind() before reusing the cache "
                         "(docs/INCREMENTAL.md)");
}

std::size_t GsEdgeCache::invalidate(GenderEdge edge) {
  // slot() re-validates the edge; the engine loop below walks the
  // kEngineCount consecutive slots of that oriented pair.
  const std::size_t base = slot(edge, GsEngine::queue);
  std::size_t dropped = 0;
  for (std::size_t e = 0; e < kEngineCount; ++e) {
    const std::size_t s = base + e;
    std::lock_guard<std::mutex> lock(stripe_for(s).m);
    if (slots_[s].state.load(std::memory_order_relaxed) == kReady) ++dropped;
    slots_[s].value.reset();
    slots_[s].state.store(kEmpty, std::memory_order_relaxed);
  }
  return dropped;
}

void GsEdgeCache::rebind(const KPartiteInstance& inst) {
  KSTABLE_REQUIRE(inst.genders() == k_,
                  "GsEdgeCache built for k=" << k_ << " cannot rebind to an "
                                             << inst.genders()
                                             << "-gender instance");
  bound_generation_ = inst.generation();
}

std::size_t GsEdgeCache::slot(GenderEdge edge, GsEngine engine) const {
  KSTABLE_REQUIRE(edge.a >= 0 && edge.a < k_ && edge.b >= 0 && edge.b < k_ &&
                      edge.a != edge.b,
                  "edge (" << edge.a << ',' << edge.b
                           << ") out of range for k=" << k_);
  // Contract-checked (not just asserted): an out-of-enum engine value would
  // index another key's slot and silently serve the wrong matching.
  const auto e = static_cast<std::size_t>(engine);
  KSTABLE_REQUIRE(e < kEngineCount,
                  "GsEngine value " << e << " out of range (have "
                                    << kEngineCount << " engines)");
  return (static_cast<std::size_t>(edge.a) * static_cast<std::size_t>(k_) +
          static_cast<std::size_t>(edge.b)) *
             kEngineCount +
         e;
}

const gs::GsResult& GsEdgeCache::get_or_compute(
    GenderEdge edge, GsEngine engine,
    const std::function<gs::GsResult()>& compute,
    resilience::ExecControl* control, bool* hit) {
  const std::size_t s = slot(edge, engine);
  Slot& entry = slots_[s];

  // Lock-free fast path — the overwhelmingly common case once a sweep has
  // warmed the k(k-1) keys.
  if (entry.state.load(std::memory_order_acquire) == kReady) {
    hits_.fetch_add(1, std::memory_order_relaxed);
    KSTABLE_COUNTER_ADD("cache.hits", 1);
    if (hit != nullptr) *hit = true;
    return *entry.value;
  }

  Stripe& stripe = stripe_for(s);
  std::unique_lock<std::mutex> lock(stripe.m);
  bool waited = false;
  for (;;) {
    const std::uint8_t state = entry.state.load(std::memory_order_relaxed);
    if (state == kReady) {
      hits_.fetch_add(1, std::memory_order_relaxed);
      KSTABLE_COUNTER_ADD("cache.hits", 1);
      if (waited) {
        single_flight_waits_.fetch_add(1, std::memory_order_relaxed);
        KSTABLE_COUNTER_ADD("cache.single_flight_waits", 1);
      }
      if (hit != nullptr) *hit = true;
      return *entry.value;
    }

    if (state == kEmpty) {
      // Leader path: claim the slot, run GS unlocked, publish under the
      // stripe lock.
      entry.state.store(kComputing, std::memory_order_relaxed);
      lock.unlock();
      gs::GsResult result;
      try {
        result = compute();
      } catch (...) {
        // Roll the claim back so a waiter (or the next caller) becomes the
        // new leader instead of blocking on an abandoned compute forever.
        lock.lock();
        entry.state.store(kEmpty, std::memory_order_relaxed);
        lock.unlock();
        stripe.cv.notify_all();
        throw;
      }
      KSTABLE_REQUIRE(result.proposer_gender == edge.a &&
                          result.responder_gender == edge.b,
                      "computed result genders ("
                          << result.proposer_gender << ','
                          << result.responder_gender
                          << ") do not match edge (" << edge.a << ',' << edge.b
                          << ')');
      // The leader owns the kComputing slot: nothing else can publish it.
      lock.lock();
      entry.value.emplace(std::move(result));
      entry.state.store(kReady, std::memory_order_release);
      lock.unlock();
      stripe.cv.notify_all();
      misses_.fetch_add(1, std::memory_order_relaxed);
      KSTABLE_COUNTER_ADD("cache.misses", 1);
      if (hit != nullptr) *hit = false;
      return *entry.value;
    }

    // state == kComputing: another thread owns the GS run for this key.
    // Wait it out, polling our own control so a deadline or cancellation
    // aborts a blocked waiter too (ExecutionAborted unwinds with the lock
    // released by RAII).
    waited = true;
    stripe.cv.wait_for(lock, kWaiterPollInterval);
    if (control != nullptr) control->check_now();
  }
}

std::size_t GsEdgeCache::clear() {
  // External-quiescence contract (see header): locking each stripe here is
  // belt-and-braces against stragglers, not a licence for concurrent clear.
  std::size_t dropped = 0;
  for (std::size_t s = 0; s < slots_.size(); ++s) {
    std::lock_guard<std::mutex> lock(stripe_for(s).m);
    if (slots_[s].state.load(std::memory_order_relaxed) == kReady) ++dropped;
    slots_[s].value.reset();
    slots_[s].state.store(kEmpty, std::memory_order_relaxed);
  }
  hits_.store(0, std::memory_order_relaxed);
  misses_.store(0, std::memory_order_relaxed);
  single_flight_waits_.store(0, std::memory_order_relaxed);
  return dropped;
}

std::size_t GsEdgeCache::size() const {
  std::size_t count = 0;
  for (const auto& entry : slots_) {
    count += entry.state.load(std::memory_order_acquire) == kReady ? 1 : 0;
  }
  return count;
}

}  // namespace kstable::core
