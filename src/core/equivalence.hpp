// Equivalence-class derivation: binary bindings -> k-ary families
// (paper §IV.A, Algorithm 1 step "Derive E, equivalence classes from
// equivalence relation (-,-) 'in the same matching tuple' on P").
//
// The binding process produces a set of matched pairs P (one perfect binary
// matching per binding edge). "In the same matching tuple" is the reflexive-
// symmetric-transitive closure of P. On a spanning tree a class is the chain
// of partners reached from one member of the root gender, so the families
// are derived column by column: each component is walked from its smallest
// gender, and a walked edge fills its far gender's column through the
// edge's match array, one gather over n (Theorem 2's perfectness argument:
// every class is a k-tuple by construction). For forests each component is
// walked on its own and family t joins the components' t-th chains by index
// (the Theorem 4 "too few bindings" experiment). An edge between two walked
// genders closes a cycle; if it disagrees with the walked families, the
// families it joins are merged and the collapse — two same-gender members
// in a class, the Theorem 4 "too many bindings" witness — is reported rather
// than silently accepted. An edge result that is not a perfect matching
// (match arrays not mutually inverse permutations) is reported too.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "graph/binding_structure.hpp"
#include "gs/gale_shapley.hpp"
#include "prefs/matching.hpp"

namespace kstable::core {

/// Outcome of converting binding pair-sets into k-ary families.
struct EquivalenceReport {
  /// True iff every edge result is a perfect matching and every equivalence
  /// class held exactly one member per gender of its binding component (the
  /// precondition for forming families).
  bool consistent = false;
  /// Families (assembled across components by class index); set iff
  /// consistent.
  std::optional<KaryMatching> matching;
  /// Number of equivalence classes found (0 when an edge result is not a
  /// perfect matching).
  std::int32_t class_count = 0;
  /// Human-readable description of the first inconsistency (empty if none).
  std::string inconsistency;
};

/// Minimal union-find over dense int ids (path halving + union by rank):
/// joins the families a disagreeing closing edge merges.
class UnionFind {
 public:
  explicit UnionFind(std::int32_t size);
  std::int32_t find(std::int32_t x);
  /// Returns false iff x and y were already in the same class.
  bool unite(std::int32_t x, std::int32_t y);
  [[nodiscard]] std::int32_t size() const {
    return static_cast<std::int32_t>(parent_.size());
  }

 private:
  std::vector<std::int32_t> parent_;
  std::vector<std::int32_t> rank_;
};

/// Derives families from per-edge binding results. `edge_results[e]` must be
/// the GS outcome of `structure.edges()[e]`. See file comment for the
/// spanning-tree / forest / cyclic semantics.
EquivalenceReport derive_families(const KPartiteInstance& inst,
                                  const BindingStructure& structure,
                                  std::span<const gs::GsResult> edge_results);

}  // namespace kstable::core
