#include "core/gs_cache.hpp"

#include <utility>

#include "observability/metrics.hpp"
#include "util/check.hpp"

namespace kstable::core {

GsEdgeCache::GsEdgeCache(Gender k)
    : k_(k),
      slots_(static_cast<std::size_t>(k >= 2 ? k : 0) *
             static_cast<std::size_t>(k >= 2 ? k : 0)) {
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
  std::optional<gs::GsResult>& entry = slots_[slot(edge)];
  const std::size_t dropped = entry.has_value() ? 1 : 0;
  entry.reset();
  return dropped;
}

void GsEdgeCache::rebind(const KPartiteInstance& inst) {
  KSTABLE_REQUIRE(inst.genders() == k_,
                  "GsEdgeCache built for k=" << k_ << " cannot rebind to an "
                                             << inst.genders()
                                             << "-gender instance");
  bound_generation_ = inst.generation();
}

std::size_t GsEdgeCache::slot(GenderEdge edge) const {
  KSTABLE_REQUIRE(edge.a >= 0 && edge.a < k_ && edge.b >= 0 && edge.b < k_ &&
                      edge.a != edge.b,
                  "edge (" << edge.a << ',' << edge.b
                           << ") out of range for k=" << k_);
  return static_cast<std::size_t>(edge.a) * static_cast<std::size_t>(k_) +
         static_cast<std::size_t>(edge.b);
}

void GsEdgeCache::count_hit() {
  ++stats_.hits;
  KSTABLE_COUNTER_ADD("cache.hits", 1);
}

void GsEdgeCache::store(GenderEdge edge, std::optional<gs::GsResult>& entry,
                        gs::GsResult&& result) {
  KSTABLE_REQUIRE(result.proposer_gender == edge.a &&
                      result.responder_gender == edge.b,
                  "computed result genders ("
                      << result.proposer_gender << ','
                      << result.responder_gender << ") do not match edge ("
                      << edge.a << ',' << edge.b << ')');
  entry.emplace(std::move(result));
  ++stats_.misses;
  KSTABLE_COUNTER_ADD("cache.misses", 1);
}

std::size_t GsEdgeCache::clear() {
  std::size_t dropped = 0;
  for (auto& entry : slots_) {
    if (entry.has_value()) ++dropped;
    entry.reset();
  }
  stats_ = {};
  return dropped;
}

std::size_t GsEdgeCache::size() const {
  std::size_t count = 0;
  for (const auto& entry : slots_) count += entry.has_value() ? 1 : 0;
  return count;
}

}  // namespace kstable::core
