#include "incremental/mutation.hpp"

#include <algorithm>
#include <utility>

#include "util/check.hpp"

namespace kstable::incremental {

namespace {

/// Rank width for a rebuilt instance of per-gender size `n`: preserve the
/// source's layout choice unless n outgrew narrow16.
prefs::RankWidth width_for(const KPartiteInstance& src, Index n) {
  if (src.rank_width() == prefs::RankWidth::narrow16 &&
      prefs::natural_rank_width(n) == prefs::RankWidth::wide32) {
    return prefs::RankWidth::wide32;
  }
  return src.rank_width();
}

}  // namespace

bool MutationDelta::touches(Gender a, Gender b) const noexcept {
  if (shape_changed) return true;
  for (const RowDelta& row : rows) {
    const Gender observer = row.member.gender;
    if ((observer == a && row.target == b) ||
        (observer == b && row.target == a)) {
      return true;
    }
  }
  return false;
}

std::vector<GenderEdge> MutationDelta::touched_pairs() const {
  std::vector<GenderEdge> pairs;
  pairs.reserve(rows.size());
  for (const RowDelta& row : rows) {
    pairs.push_back(GenderEdge{row.member.gender, row.target}.normalized());
  }
  std::sort(pairs.begin(), pairs.end(),
            [](GenderEdge lhs, GenderEdge rhs) {
              return lhs.a != rhs.a ? lhs.a < rhs.a : lhs.b < rhs.b;
            });
  pairs.erase(std::unique(pairs.begin(), pairs.end(),
                          [](GenderEdge lhs, GenderEdge rhs) {
                            return lhs.a == rhs.a && lhs.b == rhs.b;
                          }),
              pairs.end());
  return pairs;
}

void MutationDelta::merge(const MutationDelta& later) {
  KSTABLE_REQUIRE(later.from_generation == to_generation,
                  "merging non-adjacent deltas: this ends at generation "
                      << to_generation << ", later starts at "
                      << later.from_generation);
  for (const RowDelta& row : later.rows) {
    // A row rewritten again stays one row: the instance holds its contents,
    // and every rank either edit moved lies in the union of the windows.
    const auto mine =
        std::find_if(rows.begin(), rows.end(), [&](const RowDelta& earlier) {
          return earlier.member == row.member && earlier.target == row.target;
        });
    if (mine == rows.end()) {
      rows.push_back(row);
      continue;
    }
    mine->lo = std::min(mine->lo, row.lo);
    mine->hi = std::max(mine->hi, row.hi);
    mine->single_swap = false;
  }
  shape_changed = shape_changed || later.shape_changed;
  to_generation = later.to_generation;
}

MutationDelta swap_entries(KPartiteInstance& inst, MemberId m, Gender g,
                           Index rank_a, Index rank_b) {
  MutationDelta delta;
  delta.from_generation = inst.generation();
  inst.swap_pref_entries(m, g, rank_a, rank_b);
  if (rank_a == rank_b) {
    delta.rows.push_back({m, g, inst.per_gender(), -1, false});
  } else {
    delta.rows.push_back(
        {m, g, std::min(rank_a, rank_b), std::max(rank_a, rank_b), true});
  }
  delta.to_generation = inst.generation();
  return delta;
}

MutationDelta replace_list(KPartiteInstance& inst, MemberId m, Gender g,
                           std::span<const Index> order) {
  MutationDelta delta;
  delta.from_generation = inst.generation();
  RowDelta row{m, g};
  // set_pref_list rejects a list of the wrong length or content; only a
  // row-sized list is compared, and the whole-row default covers the rest.
  const Index n = inst.per_gender();
  if (order.size() == static_cast<std::size_t>(n)) {
    const auto current = inst.pref_list(m, g);
    Index changed = 0;
    row.lo = n;
    row.hi = -1;
    for (Index rank = 0; rank < n; ++rank) {
      const auto i = static_cast<std::size_t>(rank);
      if (current[i] == order[i]) continue;
      row.lo = std::min(row.lo, rank);
      row.hi = rank;
      ++changed;
    }
    // Two changed ranks of a permutation are an exchange of their entries.
    row.single_swap = changed == 2;
  }
  inst.set_pref_list(m, g, order);
  delta.rows.push_back(row);
  delta.to_generation = inst.generation();
  return delta;
}

ResizeResult add_member(const KPartiteInstance& inst, Rng& rng) {
  const Gender k = inst.genders();
  const Index n = inst.per_gender();
  const Index grown = n + 1;
  KPartiteInstance out(k, grown, width_for(inst, grown));
  std::vector<Index> list(static_cast<std::size_t>(grown));
  for (Gender g = 0; g < k; ++g) {
    for (Index i = 0; i < n; ++i) {
      for (Gender h = 0; h < k; ++h) {
        if (h == g) continue;
        // Existing list, with the new index spliced in at a random position.
        const auto old = inst.pref_list({g, i}, h);
        const auto pos =
            static_cast<std::size_t>(rng.below(static_cast<std::uint64_t>(grown)));
        list.assign(old.begin(), old.begin() + static_cast<std::ptrdiff_t>(pos));
        list.push_back(n);
        list.insert(list.end(), old.begin() + static_cast<std::ptrdiff_t>(pos),
                    old.end());
        out.set_pref_list({g, i}, h, list);
      }
    }
    for (Gender h = 0; h < k; ++h) {
      if (h == g) continue;
      out.set_pref_list({g, n}, h, rng.permutation(grown));
    }
  }
  MutationDelta delta;
  delta.from_generation = inst.generation();
  delta.to_generation = out.generation();
  delta.shape_changed = true;
  return {std::move(out), std::move(delta)};
}

ResizeResult remove_member(const KPartiteInstance& inst, Index victim) {
  const Gender k = inst.genders();
  const Index n = inst.per_gender();
  KSTABLE_REQUIRE(n >= 2, "remove_member needs n >= 2, got n=" << n);
  KSTABLE_REQUIRE(victim >= 0 && victim < n,
                  "victim index " << victim << " out of range for n=" << n);
  const Index shrunk = n - 1;
  KPartiteInstance out(k, shrunk, width_for(inst, shrunk));
  std::vector<Index> list;
  list.reserve(static_cast<std::size_t>(shrunk));
  for (Gender g = 0; g < k; ++g) {
    for (Index i = 0; i < n; ++i) {
      if (i == victim) continue;
      const Index reindexed = i - (i > victim ? 1 : 0);
      for (Gender h = 0; h < k; ++h) {
        if (h == g) continue;
        list.clear();
        for (const Index entry : inst.pref_list({g, i}, h)) {
          if (entry == victim) continue;
          list.push_back(entry - (entry > victim ? 1 : 0));
        }
        out.set_pref_list({g, reindexed}, h, list);
      }
    }
  }
  MutationDelta delta;
  delta.from_generation = inst.generation();
  delta.to_generation = out.generation();
  delta.shape_changed = true;
  return {std::move(out), std::move(delta)};
}

MutationDelta random_mutation(KPartiteInstance& inst, Rng& rng) {
  const Gender k = inst.genders();
  const Index n = inst.per_gender();
  const auto g = static_cast<Gender>(rng.below(static_cast<std::uint64_t>(k)));
  const auto i = static_cast<Index>(rng.below(static_cast<std::uint64_t>(n)));
  auto target =
      static_cast<Gender>(rng.below(static_cast<std::uint64_t>(k - 1)));
  target += target >= g ? 1 : 0;
  // Mostly cheap single-pair swaps (the realistic churn unit); occasionally a
  // full list replacement to exercise the many-rows-dirty path. n == 1 lists
  // have nothing to swap, so they always replace (a generation-bumping no-op).
  if (n >= 2 && !rng.chance(0.125)) {
    const auto rank_a =
        static_cast<Index>(rng.below(static_cast<std::uint64_t>(n)));
    auto rank_b =
        static_cast<Index>(rng.below(static_cast<std::uint64_t>(n - 1)));
    rank_b += rank_b >= rank_a ? 1 : 0;
    return swap_entries(inst, {g, i}, target, rank_a, rank_b);
  }
  const auto order = rng.permutation(n);
  return replace_list(inst, {g, i}, target, order);
}

}  // namespace kstable::incremental
