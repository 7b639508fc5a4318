// Prüfer sequences: the bijection behind Cayley's formula (paper §IV.B cites
// Cayley's k^(k-2) count of binding trees on k genders).
//
// encode/decode give a bijection between labeled trees on k >= 2 nodes and
// sequences in {0..k-1}^(k-2); the E5 experiment enumerates/counts binding
// trees through this bijection and sweeps binding results over tree shapes.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "graph/binding_structure.hpp"
#include "util/rng.hpp"

namespace kstable::prufer {

/// Prüfer sequence of a spanning tree (length k-2; empty for k = 2).
std::vector<Gender> encode(const BindingStructure& tree);

/// Tree for a Prüfer sequence over k = seq.size() + 2 labels.
BindingStructure decode(const std::vector<Gender>& seq, Gender k);

/// The edges decode(seq, k) adds, in its order: visit(leaf, parent) once per
/// edge, each oriented from the removed leaf to its parent, the last one
/// into k-1 (so gender k-1 is never a leaf). `degree` is scratch, resized to
/// k, so a caller scanning many codes decodes without allocating. Does not
/// validate `seq`; decode does.
template <typename EdgeVisitor>
void for_each_decoded_edge(std::span<const Gender> seq, Gender k,
                           std::vector<std::int32_t>& degree,
                           EdgeVisitor&& visit) {
  degree.assign(static_cast<std::size_t>(k), 1);
  for (const Gender v : seq) ++degree[static_cast<std::size_t>(v)];
  Gender ptr = 0;
  while (degree[static_cast<std::size_t>(ptr)] != 1) ++ptr;
  Gender leaf = ptr;
  for (const Gender v : seq) {
    visit(leaf, v);
    if (--degree[static_cast<std::size_t>(v)] == 1 && v < ptr) {
      leaf = v;  // new leaf below the scan pointer: take it immediately
    } else {
      while (degree[static_cast<std::size_t>(++ptr)] != 1) {
      }
      leaf = ptr;
    }
  }
  // The last edge joins the final leaf with the one remaining degree-1
  // node, always k-1 after the loop's degree accounting.
  visit(leaf, k - 1);
}

/// Advances `seq` to the next code of the enumeration order (the odometer
/// over {0..k-1}^(k-2), seq[0] least significant); false after the last.
inline bool next_code(std::vector<Gender>& seq, Gender k) {
  for (auto& digit : seq) {
    if (++digit < k) return true;
    digit = 0;
  }
  return false;
}

/// Uniformly random labeled tree on k genders (uniform Prüfer sequence).
BindingStructure random_tree(Gender k, Rng& rng);

/// k^(k-2) (Cayley); number of distinct binding trees. Saturates at
/// INT64_MAX for large k.
std::int64_t cayley_count(Gender k);

/// Prüfer sequence of the tree at position `index` in the enumeration order
/// of enumerate_trees (the odometer over {0..k-1}^(k-2) with seq[0] as the
/// least-significant digit): code_at(index, k)[j] = (index / k^j) mod k.
std::vector<Gender> code_at(std::int64_t index, Gender k);

/// decode(code_at(index, k), k): the index-th tree of the enumeration.
BindingStructure tree_at(std::int64_t index, Gender k);

/// Enumerates all k^(k-2) spanning trees for small k (k <= 8 recommended;
/// 8^6 = 262144 trees). Calls `visit` with each tree.
template <typename Visitor>
void enumerate_trees(Gender k, Visitor&& visit) {
  if (k == 1) return;
  std::vector<Gender> seq(static_cast<std::size_t>(k > 2 ? k - 2 : 0), 0);
  do {
    visit(decode(seq, k));
  } while (next_code(seq, k));
}

}  // namespace kstable::prufer
