#include "core/equivalence.hpp"

#include <optional>
#include <span>
#include <sstream>
#include <utility>
#include <vector>

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

namespace {

/// The match array that carries gender `from`'s members across result `r`:
/// proposer_match from the proposer side, responder_match from the other.
const std::vector<Index>& partners_from(const gs::GsResult& r, Gender from) {
  return from == r.proposer_gender ? r.proposer_match : r.responder_match;
}

/// Empty iff result `r` of edge `e` holds mutually inverse permutations of
/// [0, n); otherwise names the edge and the first proposer they disagree on.
std::string perfect_matching_fault(const gs::GsResult& r, std::size_t e,
                                   Index n) {
  for (Index p = 0; p < n; ++p) {
    const Index q = r.proposer_match[static_cast<std::size_t>(p)];
    if (q >= 0 && q < n &&
        r.responder_match[static_cast<std::size_t>(q)] == p) {
      continue;
    }
    std::ostringstream os;
    os << "binding edge " << e << " = GS(" << r.proposer_gender << ','
       << r.responder_gender << ") is not a perfect matching: member "
       << MemberId{r.proposer_gender, p};
    if (q < 0 || q >= n) {
      os << " has partner index " << q << ", outside [0, " << n << ')';
    } else {
      os << " is matched to " << MemberId{r.responder_gender, q}
         << ", whose partner is "
         << MemberId{r.proposer_gender,
                     r.responder_match[static_cast<std::size_t>(q)]};
    }
    return os.str();
  }
  return {};
}

/// Describes the first class of a component (rooted at gender `root`) whose
/// families a disagreeing closing edge joined: family t holds root member t,
/// so the first t in a class of two or more families is its anchor.
std::string merged_class_text(UnionFind& joined, Gender root, Index n) {
  std::vector<Index> families_in(static_cast<std::size_t>(n), 0);
  for (Index t = 0; t < n; ++t) {
    ++families_in[static_cast<std::size_t>(joined.find(t))];
  }
  Index t = 0;
  while (families_in[static_cast<std::size_t>(joined.find(t))] == 1) ++t;
  std::ostringstream os;
  os << "equivalence class has "
     << families_in[static_cast<std::size_t>(joined.find(t))]
     << " members of gender " << root
     << " (expected 1); binding structure contains a cycle";
  return os.str();
}

}  // namespace

EquivalenceReport derive_families(const KPartiteInstance& inst,
                                  const BindingStructure& structure,
                                  std::span<const gs::GsResult> edge_results) {
  const Gender k = inst.genders();
  const Index n = inst.per_gender();
  const auto& edges = structure.edges();
  KSTABLE_REQUIRE(structure.genders() == k, "structure genders "
                      << structure.genders() << " != instance genders " << k);
  KSTABLE_REQUIRE(edge_results.size() == edges.size(),
                  "got " << edge_results.size() << " edge results for "
                         << edges.size() << " edges");

  EquivalenceReport report;
  for (std::size_t e = 0; e < edges.size(); ++e) {
    const auto& r = edge_results[e];
    KSTABLE_REQUIRE(r.proposer_gender == edges[e].a &&
                        r.responder_gender == edges[e].b,
                    "edge result " << e << " is GS(" << r.proposer_gender << ','
                                   << r.responder_gender << ") but edge is ("
                                   << edges[e].a << ',' << edges[e].b << ")");
    KSTABLE_REQUIRE(r.proposer_match.size() == static_cast<std::size_t>(n) &&
                        r.responder_match.size() == static_cast<std::size_t>(n),
                    "edge result " << e << " has match arrays of size "
                                   << r.proposer_match.size() << " and "
                                   << r.responder_match.size() << ", expected "
                                   << n);
    report.inconsistency = perfect_matching_fault(r, e, n);
    if (!report.inconsistency.empty()) return report;
  }

  // families[t·k + g] is family t's gender-g member. Each component is walked
  // from its smallest gender, whose column is the identity; a gender's column
  // is filled whole when the walk reaches it, so families[g] (family 0's
  // entry) is -1 exactly while gender g is unreached.
  const auto stride = static_cast<std::size_t>(k);
  std::vector<Index> families(static_cast<std::size_t>(n) * stride, Index{-1});
  Index* const fam = families.data();
  const auto reached = [fam](Gender g) { return fam[g] != -1; };
  // done[e]: edge e has filled a column or been checked as a closing edge.
  std::vector<char> done(edges.size(), 0);
  for (Gender root = 0; root < k; ++root) {
    if (reached(root)) continue;
    for (Index t = 0; t < n; ++t) {
      fam[static_cast<std::size_t>(t) * stride +
          static_cast<std::size_t>(root)] = t;
    }
    // Families of this component joined by a disagreeing closing edge.
    std::optional<UnionFind> joined;
    Index merges = 0;
    // Sweep the edge list until the component stops growing: an edge with
    // one reached end fills the other end's column; an edge with both ends
    // reached closes a cycle and is checked family by family.
    for (bool grew = true; grew;) {
      grew = false;
      for (std::size_t e = 0; e < edges.size(); ++e) {
        const GenderEdge edge = edges[e];
        if (done[e] || (!reached(edge.a) && !reached(edge.b))) continue;
        done[e] = 1;
        const Gender x = reached(edge.a) ? edge.a : edge.b;
        const Gender y = x == edge.a ? edge.b : edge.a;
        const Index* const partner = partners_from(edge_results[e], x).data();
        const auto x_of = [&](Index t) {
          return fam[static_cast<std::size_t>(t) * stride +
                     static_cast<std::size_t>(x)];
        };
        const auto y_of = [&](Index t) -> Index& {
          return fam[static_cast<std::size_t>(t) * stride +
                     static_cast<std::size_t>(y)];
        };
        if (!reached(y)) {
          for (Index t = 0; t < n; ++t) y_of(t) = partner[x_of(t)];
          grew = true;
          continue;
        }
        Index t = 0;
        while (t < n && partner[x_of(t)] == y_of(t)) ++t;
        if (t == n) continue;
        // Disagreement: each family joins the family holding the y member
        // its x member is matched to.
        std::vector<Index> family_of_y(static_cast<std::size_t>(n));
        for (Index s = 0; s < n; ++s) {
          family_of_y[static_cast<std::size_t>(y_of(s))] = s;
        }
        if (!joined) joined.emplace(n);
        for (Index s = 0; s < n; ++s) {
          const Index other =
              family_of_y[static_cast<std::size_t>(partner[x_of(s)])];
          if (joined->unite(s, other)) ++merges;
        }
      }
    }
    report.class_count += n - merges;
    if (merges > 0 && report.inconsistency.empty()) {
      report.inconsistency = merged_class_text(*joined, root, n);
    }
  }
  if (!report.inconsistency.empty()) return report;
  report.consistent = true;
  report.matching.emplace(k, n, std::move(families));
  return report;
}

}  // namespace kstable::core
