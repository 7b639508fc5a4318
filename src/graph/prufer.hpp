// Prüfer sequences: the bijection behind Cayley's formula (paper §IV.B cites
// Cayley's k^(k-2) count of binding trees on k genders).
//
// encode/decode give a bijection between labeled trees on k >= 2 nodes and
// sequences in {0..k-1}^(k-2); the E5 experiment enumerates/counts binding
// trees through this bijection and sweeps binding results over tree shapes.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/binding_structure.hpp"
#include "util/rng.hpp"

namespace kstable::prufer {

/// Prüfer sequence of a spanning tree (length k-2; empty for k = 2).
std::vector<Gender> encode(const BindingStructure& tree);

/// Tree for a Prüfer sequence over k = seq.size() + 2 labels. Each edge is
/// oriented from the removed leaf to its parent, the last one into k-1 (so
/// gender k-1 never proposes): the in-arborescence rooted at k-1.
BindingStructure decode(const std::vector<Gender>& seq, Gender k);

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
  for (;;) {
    visit(decode(seq, k));
    // The odometer step, seq[0] least significant; done after the last code.
    std::size_t j = 0;
    for (; j < seq.size() && ++seq[j] == k; ++j) seq[j] = 0;
    if (j == seq.size()) return;
  }
}

}  // namespace kstable::prufer
