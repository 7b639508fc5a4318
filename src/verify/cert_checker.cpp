#include "verify/cert_checker.hpp"

#include <cstdint>
#include <sstream>

namespace kstable::verify {
namespace {

/// Formats a failure via an ostringstream expression.
#define VERIFY_FAIL(expr)                    \
  do {                                       \
    std::ostringstream os_;                  \
    os_ << expr; /* NOLINT */                \
    return CertFailure{os_.str()};           \
  } while (false)

/// True iff `values` is a permutation of [0, n).
bool is_permutation_of_n(const std::vector<Index>& values, Index n) {
  if (values.size() != static_cast<std::size_t>(n)) return false;
  std::vector<bool> seen(static_cast<std::size_t>(n), false);
  for (const Index v : values) {
    if (v < 0 || v >= n) return false;
    if (seen[static_cast<std::size_t>(v)]) return false;
    seen[static_cast<std::size_t>(v)] = true;
  }
  return true;
}

}  // namespace

std::int32_t scan_rank(const KPartiteInstance& inst, MemberId m,
                       MemberId target) {
  // Walks the list entry by entry via pref_at, never rank_of: on the
  // implicit backend this exercises the forward generator only, keeping the
  // certificate independent of the inverse path it is checking.
  const Index n = inst.per_gender();
  for (Index r = 0; r < n; ++r) {
    if (inst.pref_at(m, target.gender, r) == target.index) {
      return static_cast<std::int32_t>(r);
    }
  }
  return n;  // absent: malformed list, treated as worst
}

std::optional<CertFailure> check_gs_certificate(const KPartiteInstance& inst,
                                                Gender proposer,
                                                Gender responder,
                                                const gs::GsResult& result) {
  const Index n = inst.per_gender();
  if (!is_permutation_of_n(result.proposer_match, n)) {
    VERIFY_FAIL("GS(" << proposer << "," << responder
                      << "): proposer_match is not a permutation of [0, " << n
                      << ")");
  }
  if (!is_permutation_of_n(result.responder_match, n)) {
    VERIFY_FAIL("GS(" << proposer << "," << responder
                      << "): responder_match is not a permutation of [0, " << n
                      << ")");
  }
  for (Index p = 0; p < n; ++p) {
    const Index r = result.proposer_match[static_cast<std::size_t>(p)];
    if (result.responder_match[static_cast<std::size_t>(r)] != p) {
      VERIFY_FAIL("GS(" << proposer << "," << responder
                        << "): match arrays are not mutual inverses at "
                           "proposer "
                        << p << " -> responder " << r << " -> proposer "
                        << result.responder_match[static_cast<std::size_t>(r)]);
    }
  }
  // Theorem 3's per-binding unit: a perfect matching needs at least one
  // proposal per proposer, and no proposer ever proposes to the same
  // responder twice, so proposals lie in [n, n²].
  const auto n64 = static_cast<std::int64_t>(n);
  if (result.proposals < n64 || result.proposals > n64 * n64) {
    VERIFY_FAIL("GS(" << proposer << "," << responder << "): proposal count "
                      << result.proposals << " outside [" << n64 << ", "
                      << n64 * n64 << "]");
  }
  // Blocking pair sweep against the RAW lists: (p, r) blocks when p strictly
  // prefers r to its assigned responder AND r strictly prefers p to its
  // assigned proposer.
  for (Index p = 0; p < n; ++p) {
    const MemberId mp{proposer, p};
    const Index pr = result.proposer_match[static_cast<std::size_t>(p)];
    const std::int32_t p_current = scan_rank(inst, mp, MemberId{responder, pr});
    for (Index r = 0; r < n; ++r) {
      if (r == pr) continue;
      if (scan_rank(inst, mp, MemberId{responder, r}) >= p_current) continue;
      const MemberId mr{responder, r};
      const Index rp = result.responder_match[static_cast<std::size_t>(r)];
      if (scan_rank(inst, mr, MemberId{proposer, p}) <
          scan_rank(inst, mr, MemberId{proposer, rp})) {
        VERIFY_FAIL("GS(" << proposer << "," << responder
                          << "): blocking pair (proposer " << p
                          << ", responder " << r << ") — both prefer each "
                          << "other to their assigned partners");
      }
    }
  }
  return std::nullopt;
}

std::optional<CertFailure> check_kary_certificate(
    const KPartiteInstance& inst, const KaryMatching& matching,
    const BindingStructure& bound) {
  const Gender k = inst.genders();
  const Index n = inst.per_gender();
  if (matching.genders() != k || matching.per_gender() != n) {
    VERIFY_FAIL("k-ary matching shape (" << matching.genders() << ", "
                                         << matching.per_gender()
                                         << ") does not match instance (" << k
                                         << ", " << n << ")");
  }
  // Structural perfection: each gender's column is a permutation of [0, n).
  for (Gender g = 0; g < k; ++g) {
    std::vector<Index> column;
    column.reserve(static_cast<std::size_t>(n));
    for (Index t = 0; t < n; ++t) {
      column.push_back(matching.member_at(t, g).index);
    }
    if (!is_permutation_of_n(column, n)) {
      VERIFY_FAIL("k-ary matching: gender " << g
                                            << " column is not a permutation "
                                               "— some member is missing or "
                                               "duplicated across families");
    }
  }
  // Per-bound-edge projection stability: for every binding edge (a, b) the
  // induced binary matching between genders a and b must have no blocking
  // pair. This is exactly the certificate the Theorem 2 construction
  // provides (each edge's pairs came from a stable GS run).
  for (const auto& edge : bound.edges()) {
    for (Index s = 0; s < n; ++s) {
      const MemberId ma = matching.member_at(s, edge.a);
      const MemberId partner_a = matching.member_at(s, edge.b);
      const std::int32_t current_a = scan_rank(inst, ma, partner_a);
      for (Index t = 0; t < n; ++t) {
        if (t == s) continue;
        const MemberId mb = matching.member_at(t, edge.b);
        if (scan_rank(inst, ma, mb) >= current_a) continue;
        const MemberId partner_b = matching.member_at(t, edge.a);
        if (scan_rank(inst, mb, ma) < scan_rank(inst, mb, partner_b)) {
          VERIFY_FAIL("k-ary matching: bound pair ("
                      << edge.a << "," << edge.b << ") has blocking pair "
                      << ma << " / " << mb << " across families " << s
                      << " and " << t);
        }
      }
    }
  }
  // Two-family blocking-coalition screen (§IV.A, k' = 2, strict mode): a
  // candidate tuple takes gender-g members from family s where the subset
  // mask selects s, else from family t; it blocks when EVERY member strictly
  // prefers EVERY cross-group member to the corresponding-gender member of
  // its own current family. Sound but (for k >= 3) incomplete — a hit is
  // always a genuine instability witness.
  if (k <= 16) {  // mask arithmetic guard; harness sizes are far below this
    const std::uint32_t full = (1u << k) - 2u;  // proper non-empty subsets
    std::vector<MemberId> tuple(static_cast<std::size_t>(k));
    for (Index s = 0; s < n; ++s) {
      for (Index t = 0; t < n; ++t) {
        if (t == s) continue;
        for (std::uint32_t mask = 1; mask <= full; ++mask) {
          bool blocks = true;
          for (Gender g = 0; g < k && blocks; ++g) {
            tuple[static_cast<std::size_t>(g)] =
                matching.member_at((mask >> g) & 1u ? s : t, g);
          }
          for (Gender g = 0; g < k && blocks; ++g) {
            const MemberId m = tuple[static_cast<std::size_t>(g)];
            const Index own_family = (mask >> g) & 1u ? s : t;
            for (Gender h = 0; h < k && blocks; ++h) {
              if (h == g) continue;
              const bool cross = (((mask >> h) & 1u) != ((mask >> g) & 1u));
              if (!cross) continue;  // same group: no constraint
              const MemberId candidate = tuple[static_cast<std::size_t>(h)];
              const MemberId current = matching.member_at(own_family, h);
              if (scan_rank(inst, m, candidate) >=
                  scan_rank(inst, m, current)) {
                blocks = false;
              }
            }
          }
          if (blocks) {
            std::ostringstream members;
            for (const MemberId m : tuple) members << ' ' << m;
            VERIFY_FAIL("k-ary matching: two-family blocking coalition from "
                        "families "
                        << s << "/" << t << " (mask " << mask
                        << "): members" << members.str());
          }
        }
      }
    }
  }
  return std::nullopt;
}

std::optional<CertFailure> check_roommates_certificate(
    const rm::RoommatesInstance& inst, const std::vector<rm::Person>& match) {
  const rm::Person count = inst.size();
  if (match.size() != static_cast<std::size_t>(count)) {
    VERIFY_FAIL("roommates matching covers " << match.size() << " of "
                                             << count << " persons");
  }
  // Scan-based rank within p's raw list; list length if absent.
  auto list_rank = [&](rm::Person p, rm::Person q) -> std::size_t {
    const auto& list = inst.list(p);
    for (std::size_t r = 0; r < list.size(); ++r) {
      if (list[r] == q) return r;
    }
    return list.size();
  };
  for (rm::Person p = 0; p < count; ++p) {
    const rm::Person q = match[static_cast<std::size_t>(p)];
    if (q < 0 || q >= count) {
      VERIFY_FAIL("roommates matching: person " << p
                                                << " has out-of-range partner "
                                                << q);
    }
    if (q == p) VERIFY_FAIL("roommates matching: person " << p << " matched to itself");
    if (match[static_cast<std::size_t>(q)] != p) {
      VERIFY_FAIL("roommates matching: not an involution at " << p << " -> "
                                                              << q << " -> "
                  << match[static_cast<std::size_t>(q)]);
    }
    if (list_rank(p, q) == inst.list(p).size()) {
      VERIFY_FAIL("roommates matching: partner " << q
                                                 << " absent from person " << p
                                                 << "'s list");
    }
  }
  for (rm::Person p = 0; p < count; ++p) {
    const std::size_t current_p = list_rank(p, match[static_cast<std::size_t>(p)]);
    for (const rm::Person q : inst.list(p)) {
      if (q == match[static_cast<std::size_t>(p)]) continue;
      if (list_rank(p, q) >= current_p) continue;
      if (list_rank(q, p) <
          list_rank(q, match[static_cast<std::size_t>(q)])) {
        VERIFY_FAIL("roommates matching: blocking pair (" << p << ", " << q
                                                          << ")");
      }
    }
  }
  return std::nullopt;
}

std::optional<CertFailure> check_best_tree_certificate(
    const std::vector<std::int64_t>& cost, const BindingStructure& tree,
    const std::vector<core::DualSet>& dual) {
  const Gender k = tree.genders();
  const auto m = static_cast<std::size_t>(k);
  if (cost.size() != m * m) {
    VERIFY_FAIL("cost table has " << cost.size() << " entries for k=" << k);
  }
  if (!tree.is_spanning_tree()) VERIFY_FAIL("the tree does not span");
  std::vector<bool> proposes(m, false);
  for (const auto& e : tree.edges()) {
    if (e.a == k - 1 || proposes[static_cast<std::size_t>(e.a)]) {
      VERIFY_FAIL("edge " << e.a << "->" << e.b
                          << ": not an in-arborescence rooted at " << k - 1);
    }
    proposes[static_cast<std::size_t>(e.a)] = true;
  }
  // in[s][g]: gender g belongs to set s.
  std::vector<std::vector<bool>> in(dual.size(), std::vector<bool>(m, false));
  std::int64_t y_sum = 0;
  for (std::size_t s = 0; s < dual.size(); ++s) {
    if (dual[s].members.empty() || dual[s].y < 0) {
      VERIFY_FAIL("dual set " << s << " is empty or has y < 0");
    }
    for (const Gender g : dual[s].members) {
      if (g < 0 || g >= k - 1 || in[s][static_cast<std::size_t>(g)]) {
        VERIFY_FAIL("dual set " << s << " holds gender " << g
                                << " out of range, twice, or the root");
      }
      in[s][static_cast<std::size_t>(g)] = true;
    }
    y_sum += dual[s].y;
  }
  // Reduced cost of a→b: c(a→b) minus y_S over the sets a leaves.
  const auto reduced = [&](std::size_t a, std::size_t b) {
    std::int64_t r = cost[a * m + b];
    for (std::size_t s = 0; s < dual.size(); ++s) {
      if (in[s][a] && !in[s][b]) r -= dual[s].y;
    }
    return r;
  };
  for (std::size_t a = 0; a + 1 < m; ++a) {
    for (std::size_t b = 0; b < m; ++b) {
      if (a != b && reduced(a, b) < 0) {
        VERIFY_FAIL("edge " << a << "->" << b << " has reduced cost "
                            << reduced(a, b) << " < 0");
      }
    }
  }
  std::int64_t tree_cost = 0;
  for (const auto& e : tree.edges()) {
    const auto a = static_cast<std::size_t>(e.a);
    const auto b = static_cast<std::size_t>(e.b);
    if (reduced(a, b) != 0) {
      VERIFY_FAIL("tree edge " << e.a << "->" << e.b << " has reduced cost "
                               << reduced(a, b) << ", not 0");
    }
    tree_cost += cost[a * m + b];
  }
  if (y_sum != tree_cost) {
    VERIFY_FAIL("dual sum " << y_sum << " differs from the tree's cost "
                            << tree_cost);
  }
  return std::nullopt;
}

#undef VERIFY_FAIL

}  // namespace kstable::verify
