// BindingStructure: a set of binding edges over the gender set I = {0..k-1}.
//
// Algorithm 1 (paper §IV.A) binds genders pairwise along a *spanning tree* of
// I; the tightness experiments (Theorem 4) also need proper forests (fewer
// than k-1 bindings) and cyclic edge sets (more than k-1 bindings), so the
// structure supports arbitrary simple edge sets with classification queries.
#pragma once

#include <cstdint>
#include <vector>

#include "prefs/ids.hpp"

namespace kstable {

/// An undirected binding edge between two genders. The orientation is
/// meaningful to the *matching engine* (a proposes to b) but not to the
/// structure; normalized() is used for equality/cycle checks.
struct GenderEdge {
  Gender a = -1;  ///< proposer gender in GS(a, b)
  Gender b = -1;  ///< responder gender in GS(a, b)

  [[nodiscard]] GenderEdge normalized() const {
    return a <= b ? *this : GenderEdge{b, a};
  }
  friend bool operator==(const GenderEdge&, const GenderEdge&) = default;
};

/// Simple undirected edge set over k genders with tree/forest classification.
/// Two allocations per structure: the edge list (reserved for a spanning
/// tree's k-1 edges) and a gender union-find that add_edge keeps current, so
/// every classification query reads it without allocating.
class BindingStructure {
 public:
  explicit BindingStructure(Gender k);

  /// Adds an edge; rejects self-loops, out-of-range endpoints, duplicates.
  void add_edge(GenderEdge e);

  /// True iff adding (i, j) would close a cycle (i and j already connected).
  [[nodiscard]] bool would_cycle(Gender i, Gender j) const;

  [[nodiscard]] Gender genders() const noexcept { return k_; }
  [[nodiscard]] const std::vector<GenderEdge>& edges() const noexcept {
    return edges_;
  }
  [[nodiscard]] std::int32_t degree(Gender g) const;
  [[nodiscard]] std::int32_t max_degree() const;

  /// Number of connected components (isolated genders count).
  [[nodiscard]] std::int32_t component_count() const;

  /// True iff the edge set contains a cycle.
  [[nodiscard]] bool has_cycle() const;

  /// True iff acyclic (spanning trees and proper forests both qualify).
  [[nodiscard]] bool is_forest() const { return !has_cycle(); }

  /// True iff connected and acyclic with exactly k-1 edges.
  [[nodiscard]] bool is_spanning_tree() const;

  /// Neighbors of gender `g`, in edge insertion order.
  [[nodiscard]] std::vector<Gender> neighbors(Gender g) const;

  /// Component label per gender (labels are arbitrary but consistent).
  [[nodiscard]] std::vector<std::int32_t> component_labels() const;

 private:
  /// Root of g's component in the union-find.
  [[nodiscard]] Gender find(Gender g) const noexcept;

  Gender k_;
  std::vector<GenderEdge> edges_;
  std::vector<Gender> parent_;       ///< union-find over genders
  std::int32_t components_ = 0;      ///< connected components, isolated included
  std::int32_t cycle_edges_ = 0;     ///< edges added inside one component
};

/// --- Tree factories -------------------------------------------------------
namespace trees {

/// Path 0-1-2-...-(k-1): the minimum-degree spanning tree (Δ = 2), used by
/// the Corollary 2 even-odd schedule (Fig. 4).
BindingStructure path(Gender k);

/// Star centered at `center` (Δ = k-1): the worst case for Corollary 1.
BindingStructure star(Gender k, Gender center = 0);

/// Caterpillar with spine length `spine`: interpolates path → star shapes.
BindingStructure caterpillar(Gender k, Gender spine);

}  // namespace trees

}  // namespace kstable
