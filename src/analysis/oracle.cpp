#include "analysis/oracle.hpp"

#include <algorithm>
#include <functional>
#include <numeric>

#include "roommates/solver.hpp"
#include "util/check.hpp"

namespace kstable::analysis {

namespace {

/// Recursive perfect-matching enumeration: match the lowest unmatched person
/// with every acceptable unmatched candidate.
void enumerate_binary(const rm::RoommatesInstance& inst,
                      std::vector<rm::Person>& match, rm::Person from,
                      BinaryCensus& census, std::int64_t limit, bool& stop) {
  const rm::Person n = inst.size();
  rm::Person p = from;
  while (p < n && match[static_cast<std::size_t>(p)] != -1) ++p;
  if (p == n) {
    ++census.perfect_matchings;
    if (rm::is_stable_matching(inst, match)) {
      ++census.stable_matchings;
      if (!census.witness) census.witness = match;
    }
    if (limit > 0 && census.perfect_matchings >= limit) stop = true;
    return;
  }
  for (const rm::Person q : inst.list(p)) {
    if (q < p || match[static_cast<std::size_t>(q)] != -1) continue;
    match[static_cast<std::size_t>(p)] = q;
    match[static_cast<std::size_t>(q)] = p;
    enumerate_binary(inst, match, p + 1, census, limit, stop);
    match[static_cast<std::size_t>(p)] = -1;
    match[static_cast<std::size_t>(q)] = -1;
    if (stop) return;
  }
}

/// Visits every completion of `families` over genders [from, k): for each
/// gender in turn, every permutation in lexicographic order.
void enumerate_kary_from(const KPartiteInstance& inst,
                         std::vector<Index>& families, Gender from,
                         const std::function<void(const KaryMatching&)>& visit) {
  const Gender k = inst.genders();
  const Index n = inst.per_gender();
  if (from == k) {
    visit(KaryMatching(k, n, families));
    return;
  }
  std::vector<Index> perm(static_cast<std::size_t>(n));
  std::iota(perm.begin(), perm.end(), Index{0});
  do {
    for (Index t = 0; t < n; ++t) {
      families[static_cast<std::size_t>(t) * static_cast<std::size_t>(k) +
               static_cast<std::size_t>(from)] =
          perm[static_cast<std::size_t>(t)];
    }
    enumerate_kary_from(inst, families, from + 1, visit);
  } while (std::next_permutation(perm.begin(), perm.end()));
}

}  // namespace

BinaryCensus binary_census(const rm::RoommatesInstance& inst,
                           std::int64_t limit) {
  BinaryCensus census;
  std::vector<rm::Person> match(static_cast<std::size_t>(inst.size()), -1);
  bool stop = false;
  enumerate_binary(inst, match, 0, census, limit, stop);
  return census;
}

KaryCensus kary_census(const KPartiteInstance& inst,
                       const std::vector<std::int32_t>& priority) {
  const auto k = static_cast<std::size_t>(inst.genders());
  // Identity-prefixed family table: families[t*k + 0] = t (tuples are
  // unordered, so fixing gender 0's assignment removes the n! relabelings).
  std::vector<Index> families(static_cast<std::size_t>(inst.per_gender()) * k);
  for (Index t = 0; t < inst.per_gender(); ++t) {
    families[static_cast<std::size_t>(t) * k] = t;
  }
  KaryCensus census;
  enumerate_kary_from(inst, families, 1, [&](const KaryMatching& matching) {
    ++census.total_matchings;
    if (!find_blocking_family(inst, matching).has_value()) {
      ++census.stable_matchings;
      if (!census.witness) census.witness = matching;
    }
    if (!priority.empty() &&
        !find_weakened_blocking_family(inst, matching, priority).has_value()) {
      ++census.weakened_stable_matchings;
    }
  });
  return census;
}

}  // namespace kstable::analysis
