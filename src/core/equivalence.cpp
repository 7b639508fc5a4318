#include "core/equivalence.hpp"

#include <algorithm>
#include <span>
#include <sstream>

#include "util/check.hpp"

namespace kstable::core {

UnionFind::UnionFind(std::int32_t size) {
  KSTABLE_REQUIRE(size >= 0, "negative union-find size");
  parent_.resize(static_cast<std::size_t>(size));
  rank_.assign(static_cast<std::size_t>(size), 0);
  for (std::int32_t i = 0; i < size; ++i) parent_[static_cast<std::size_t>(i)] = i;
}

std::int32_t UnionFind::find(std::int32_t x) {
  KSTABLE_ASSERT(x >= 0 && x < size());
  while (parent_[static_cast<std::size_t>(x)] != x) {
    // Path halving.
    parent_[static_cast<std::size_t>(x)] =
        parent_[static_cast<std::size_t>(parent_[static_cast<std::size_t>(x)])];
    x = parent_[static_cast<std::size_t>(x)];
  }
  return x;
}

bool UnionFind::unite(std::int32_t x, std::int32_t y) {
  std::int32_t rx = find(x);
  std::int32_t ry = find(y);
  if (rx == ry) return false;
  if (rank_[static_cast<std::size_t>(rx)] < rank_[static_cast<std::size_t>(ry)]) {
    std::swap(rx, ry);
  }
  parent_[static_cast<std::size_t>(ry)] = rx;
  if (rank_[static_cast<std::size_t>(rx)] == rank_[static_cast<std::size_t>(ry)]) {
    ++rank_[static_cast<std::size_t>(rx)];
  }
  return true;
}

EquivalenceReport derive_families(const KPartiteInstance& inst,
                                  const BindingStructure& structure,
                                  std::span<const gs::GsResult> edge_results) {
  const Gender k = inst.genders();
  const Index n = inst.per_gender();
  KSTABLE_REQUIRE(structure.genders() == k, "structure genders "
                      << structure.genders() << " != instance genders " << k);
  KSTABLE_REQUIRE(edge_results.size() == structure.edges().size(),
                  "got " << edge_results.size() << " edge results for "
                         << structure.edges().size() << " edges");

  EquivalenceReport report;
  UnionFind uf(k * n);
  for (std::size_t e = 0; e < edge_results.size(); ++e) {
    const auto& r = edge_results[e];
    const auto& edge = structure.edges()[e];
    KSTABLE_REQUIRE(r.proposer_gender == edge.a && r.responder_gender == edge.b,
                    "edge result " << e << " is GS(" << r.proposer_gender << ','
                                   << r.responder_gender << ") but edge is ("
                                   << edge.a << ',' << edge.b << ")");
    for (Index p = 0; p < n; ++p) {
      const Index q = r.proposer_match[static_cast<std::size_t>(p)];
      uf.unite(flat_id({edge.a, p}, n), flat_id({edge.b, q}, n));
    }
  }

  // Gender-level components drive the expected class shape.
  const auto gender_component = structure.component_labels();

  // Number the classes in first-appearance order over flat ids, then
  // counting-sort the members into one flat table: class c's members are
  // members[class_start[c] .. class_start[c + 1]), ascending by flat id, so
  // a class's first member is the one of its smallest gender.
  const std::int32_t total = k * n;
  std::vector<std::int32_t> class_of_root(static_cast<std::size_t>(total), -1);
  std::vector<std::int32_t> class_of(static_cast<std::size_t>(total));
  std::vector<std::int32_t> class_start(static_cast<std::size_t>(total) + 1, 0);
  std::int32_t classes = 0;
  for (std::int32_t f = 0; f < total; ++f) {
    auto& cls = class_of_root[static_cast<std::size_t>(uf.find(f))];
    if (cls == -1) cls = classes++;
    class_of[static_cast<std::size_t>(f)] = cls;
    ++class_start[static_cast<std::size_t>(cls)];
  }
  // Inclusive prefix sum: class_start[c] is now the end of class c. The
  // descending fill decrements it back to the start, keeping members sorted.
  for (std::int32_t c = 1; c <= classes; ++c) {
    class_start[static_cast<std::size_t>(c)] +=
        class_start[static_cast<std::size_t>(c - 1)];
  }
  std::vector<std::int32_t> members(static_cast<std::size_t>(total));
  for (std::int32_t f = total - 1; f >= 0; --f) {
    const auto cls =
        static_cast<std::size_t>(class_of[static_cast<std::size_t>(f)]);
    members[static_cast<std::size_t>(--class_start[cls])] = f;
  }
  report.class_count = classes;
  const auto class_members = [&](std::int32_t c) {
    return std::span<const std::int32_t>(members).subspan(
        static_cast<std::size_t>(class_start[static_cast<std::size_t>(c)]),
        static_cast<std::size_t>(class_start[static_cast<std::size_t>(c) + 1] -
                                 class_start[static_cast<std::size_t>(c)]));
  };

  // Validate each class: all members in one gender-component, exactly one
  // member per gender of that component.
  const Gender component_count =
      static_cast<Gender>([&gender_component] {
        auto labels = gender_component;
        std::sort(labels.begin(), labels.end());
        return std::unique(labels.begin(), labels.end()) - labels.begin();
      }());
  // classes_in_component[label] counts the valid classes of each component
  // (indexed by component label, a gender id).
  std::vector<Index> classes_in_component(static_cast<std::size_t>(k), 0);
  std::vector<std::int32_t> gender_count(static_cast<std::size_t>(k));
  for (std::int32_t c = 0; c < classes; ++c) {
    const auto cls = class_members(c);
    std::fill(gender_count.begin(), gender_count.end(), 0);
    const std::int32_t label = gender_component[static_cast<std::size_t>(
        member_of(cls.front(), n).gender)];
    for (const std::int32_t f : cls) {
      const MemberId m = member_of(f, n);
      ++gender_count[static_cast<std::size_t>(m.gender)];
      if (gender_component[static_cast<std::size_t>(m.gender)] != label) {
        // Cannot happen: union edges stay within a component by construction.
        report.inconsistency = "class spans binding components";
        return report;
      }
    }
    for (Gender g = 0; g < k; ++g) {
      const bool in_component =
          gender_component[static_cast<std::size_t>(g)] == label;
      const std::int32_t expected = in_component ? 1 : 0;
      if (gender_count[static_cast<std::size_t>(g)] != expected) {
        std::ostringstream os;
        os << "equivalence class has " << gender_count[static_cast<std::size_t>(g)]
           << " members of gender " << g << " (expected " << expected
           << "); binding structure "
           << (structure.has_cycle() ? "contains a cycle" : "is acyclic");
        report.inconsistency = os.str();
        return report;
      }
    }
    ++classes_in_component[static_cast<std::size_t>(label)];
  }

  // Each component must contribute exactly n classes.
  for (Gender label = 0; label < k; ++label) {
    const Index count = classes_in_component[static_cast<std::size_t>(label)];
    if (count == 0) continue;  // not a component label
    if (count != n) {
      std::ostringstream os;
      os << "component " << label << " produced " << count
         << " classes, expected " << n;
      report.inconsistency = os.str();
      return report;
    }
  }

  // Assemble: family t = union over components of their class whose first
  // member (the one of the component's smallest gender) has index t. Every
  // class holds one member of that gender, so a component's n anchors are a
  // permutation of 0..n-1 and no sort is needed.
  std::vector<Index> families(
      static_cast<std::size_t>(n) * static_cast<std::size_t>(k), Index{-1});
  for (std::int32_t c = 0; c < classes; ++c) {
    const auto cls = class_members(c);
    const auto t = static_cast<std::size_t>(member_of(cls.front(), n).index);
    for (const std::int32_t f : cls) {
      const MemberId m = member_of(f, n);
      families[t * static_cast<std::size_t>(k) +
               static_cast<std::size_t>(m.gender)] = m.index;
    }
  }
  report.consistent = true;
  report.matching.emplace(k, n, std::move(families));
  KSTABLE_ENSURE(component_count >= 1, "component bookkeeping broke");
  return report;
}

}  // namespace kstable::core
