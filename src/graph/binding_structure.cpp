#include "graph/binding_structure.hpp"

#include <algorithm>
#include <numeric>

#include "util/check.hpp"

namespace kstable {

BindingStructure::BindingStructure(Gender k) : k_(k), components_(k) {
  KSTABLE_REQUIRE(k >= 1, "binding structure needs k >= 1, got " << k);
  edges_.reserve(static_cast<std::size_t>(k - 1));
  parent_.resize(static_cast<std::size_t>(k));
  std::iota(parent_.begin(), parent_.end(), Gender{0});
}

Gender BindingStructure::find(Gender g) const noexcept {
  while (parent_[static_cast<std::size_t>(g)] != g) {
    g = parent_[static_cast<std::size_t>(g)];
  }
  return g;
}

void BindingStructure::add_edge(GenderEdge e) {
  KSTABLE_REQUIRE(e.a >= 0 && e.a < k_ && e.b >= 0 && e.b < k_,
                  "edge (" << e.a << ',' << e.b << ") out of range, k=" << k_);
  KSTABLE_REQUIRE(e.a != e.b, "self-binding of gender " << e.a << " rejected");
  for (const auto& existing : edges_) {
    KSTABLE_REQUIRE(existing.normalized() != e.normalized(),
                    "duplicate binding edge (" << e.a << ',' << e.b << ")");
  }
  edges_.push_back(e);
  const Gender ra = find(e.a);
  const Gender rb = find(e.b);
  if (ra == rb) {
    ++cycle_edges_;
  } else {
    parent_[static_cast<std::size_t>(ra)] = rb;
    --components_;
  }
}

std::vector<std::int32_t> BindingStructure::component_labels() const {
  std::vector<std::int32_t> labels(static_cast<std::size_t>(k_));
  for (Gender g = 0; g < k_; ++g) labels[static_cast<std::size_t>(g)] = find(g);
  return labels;
}

bool BindingStructure::would_cycle(Gender i, Gender j) const {
  KSTABLE_REQUIRE(i >= 0 && i < k_ && j >= 0 && j < k_ && i != j,
                  "would_cycle(" << i << ',' << j << ") invalid, k=" << k_);
  return find(i) == find(j);
}

std::int32_t BindingStructure::degree(Gender g) const {
  KSTABLE_REQUIRE(g >= 0 && g < k_, "degree: gender " << g << " out of range");
  return static_cast<std::int32_t>(
      std::count_if(edges_.begin(), edges_.end(),
                    [g](const GenderEdge& e) { return e.a == g || e.b == g; }));
}

std::int32_t BindingStructure::max_degree() const {
  std::int32_t best = 0;
  for (Gender g = 0; g < k_; ++g) best = std::max(best, degree(g));
  return best;
}

std::int32_t BindingStructure::component_count() const { return components_; }

bool BindingStructure::has_cycle() const { return cycle_edges_ > 0; }

bool BindingStructure::is_spanning_tree() const {
  return components_ == 1 && static_cast<std::int32_t>(edges_.size()) == k_ - 1;
}

std::vector<Gender> BindingStructure::neighbors(Gender g) const {
  KSTABLE_REQUIRE(g >= 0 && g < k_, "neighbors: gender " << g << " out of range");
  std::vector<Gender> out;
  for (const auto& e : edges_) {
    if (e.a == g) out.push_back(e.b);
    if (e.b == g) out.push_back(e.a);
  }
  return out;
}

namespace trees {

BindingStructure path(Gender k) {
  BindingStructure t(k);
  for (Gender g = 0; g + 1 < k; ++g) t.add_edge({g, static_cast<Gender>(g + 1)});
  return t;
}

BindingStructure star(Gender k, Gender center) {
  KSTABLE_REQUIRE(center >= 0 && center < k,
                  "star center " << center << " out of range, k=" << k);
  BindingStructure t(k);
  for (Gender g = 0; g < k; ++g) {
    if (g != center) t.add_edge({center, g});
  }
  return t;
}

BindingStructure caterpillar(Gender k, Gender spine) {
  KSTABLE_REQUIRE(spine >= 1 && spine <= k,
                  "caterpillar spine " << spine << " invalid for k=" << k);
  BindingStructure t(k);
  for (Gender g = 0; g + 1 < spine; ++g) {
    t.add_edge({g, static_cast<Gender>(g + 1)});
  }
  // Remaining genders hang off the spine round-robin.
  for (Gender g = spine; g < k; ++g) {
    t.add_edge({static_cast<Gender>((g - spine) % spine), g});
  }
  return t;
}

}  // namespace trees

}  // namespace kstable
