#include "graph/prufer.hpp"

#include <limits>

#include "util/check.hpp"

namespace kstable::prufer {

std::vector<Gender> encode(const BindingStructure& tree) {
  KSTABLE_REQUIRE(tree.is_spanning_tree(), "Prüfer encode needs a spanning tree");
  const Gender k = tree.genders();
  std::vector<Gender> seq;
  if (k <= 2) return seq;
  seq.reserve(static_cast<std::size_t>(k - 2));

  std::vector<std::int32_t> deg(static_cast<std::size_t>(k));
  std::vector<std::vector<Gender>> adj(static_cast<std::size_t>(k));
  for (const auto& e : tree.edges()) {
    adj[static_cast<std::size_t>(e.a)].push_back(e.b);
    adj[static_cast<std::size_t>(e.b)].push_back(e.a);
    ++deg[static_cast<std::size_t>(e.a)];
    ++deg[static_cast<std::size_t>(e.b)];
  }
  std::vector<bool> removed(static_cast<std::size_t>(k), false);
  // Classic pointer-scan leaf elimination: O(k log k)-ish without a heap by
  // tracking the smallest candidate leaf.
  Gender ptr = 0;
  while (deg[static_cast<std::size_t>(ptr)] != 1) ++ptr;
  Gender leaf = ptr;
  for (Gender step = 0; step < k - 2; ++step) {
    // Neighbor of the current leaf that is still present.
    Gender parent = -1;
    for (Gender nb : adj[static_cast<std::size_t>(leaf)]) {
      if (!removed[static_cast<std::size_t>(nb)]) {
        parent = nb;
        break;
      }
    }
    KSTABLE_ASSERT(parent >= 0);
    seq.push_back(parent);
    removed[static_cast<std::size_t>(leaf)] = true;
    if (--deg[static_cast<std::size_t>(parent)] == 1 && parent < ptr) {
      leaf = parent;  // new leaf below the scan pointer: take it immediately
    } else {
      while (deg[static_cast<std::size_t>(++ptr)] != 1 ||
             removed[static_cast<std::size_t>(ptr)]) {
      }
      leaf = ptr;
    }
  }
  return seq;
}

BindingStructure decode(const std::vector<Gender>& seq, Gender k) {
  KSTABLE_REQUIRE(k >= 2, "Prüfer decode needs k >= 2, got " << k);
  KSTABLE_REQUIRE(static_cast<Gender>(seq.size()) == (k > 2 ? k - 2 : 0),
                  "Prüfer sequence length " << seq.size() << " wrong for k=" << k);
  for (Gender v : seq) {
    KSTABLE_REQUIRE(v >= 0 && v < k, "Prüfer entry " << v << " out of range");
  }
  BindingStructure tree(k);
  std::vector<std::int32_t> degree(static_cast<std::size_t>(k), 1);
  for (const Gender v : seq) ++degree[static_cast<std::size_t>(v)];
  Gender ptr = 0;
  while (degree[static_cast<std::size_t>(ptr)] != 1) ++ptr;
  Gender leaf = ptr;
  for (const Gender v : seq) {
    tree.add_edge({leaf, v});
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
  tree.add_edge({leaf, k - 1});
  KSTABLE_ENSURE(tree.is_spanning_tree(), "Prüfer decode produced a non-tree");
  return tree;
}

BindingStructure random_tree(Gender k, Rng& rng) {
  KSTABLE_REQUIRE(k >= 2, "random_tree needs k >= 2, got " << k);
  std::vector<Gender> seq;
  if (k > 2) {
    seq.resize(static_cast<std::size_t>(k - 2));
    for (auto& v : seq) {
      v = static_cast<Gender>(rng.below(static_cast<std::uint64_t>(k)));
    }
  }
  return decode(seq, k);
}

std::vector<Gender> code_at(std::int64_t index, Gender k) {
  KSTABLE_REQUIRE(k >= 2, "code_at needs k >= 2, got " << k);
  KSTABLE_REQUIRE(index >= 0 && index < cayley_count(k),
                  "tree index " << index << " out of range for k=" << k);
  std::vector<Gender> seq(static_cast<std::size_t>(k > 2 ? k - 2 : 0));
  for (auto& digit : seq) {
    digit = static_cast<Gender>(index % k);
    index /= k;
  }
  return seq;
}

BindingStructure tree_at(std::int64_t index, Gender k) {
  return decode(code_at(index, k), k);
}

std::int64_t cayley_count(Gender k) {
  KSTABLE_REQUIRE(k >= 1, "cayley_count needs k >= 1, got " << k);
  if (k <= 2) return 1;
  std::int64_t count = 1;
  for (Gender i = 0; i < k - 2; ++i) {
    if (count > std::numeric_limits<std::int64_t>::max() / k) {
      return std::numeric_limits<std::int64_t>::max();
    }
    count *= k;
  }
  return count;
}

}  // namespace kstable::prufer
