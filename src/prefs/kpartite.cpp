#include "prefs/kpartite.hpp"

#include <algorithm>
#include <cstring>
#include <string>
#include <vector>

#include "resilience/errors.hpp"
#include "util/check.hpp"

namespace kstable {

namespace {

/// set_pref_list's candidate rank row: one buffer per thread, grown to the
/// largest n it has checked, so a warm thread checks every row without
/// allocating.
std::uint16_t* rank_scratch(std::size_t n) {
  thread_local std::vector<std::uint16_t> ranks;
  if (ranks.size() < n) ranks.resize(n);
  return ranks.data();
}

/// Writes `order` and its inverse into a pref row and its rank row when
/// `order` is a permutation of [0, n); returns false, writing nothing,
/// otherwise. No step waits on the previous entry's store: a branch-free
/// range check, then the inverse scattered into scratch, which is a
/// permutation's inverse iff every entry reads back its own rank.
bool write_if_permutation(std::span<const Index> order, Index* pref_row,
                          std::uint16_t* rank_row) {
  const std::size_t n = order.size();
  bool in_range = true;
  for (const Index idx : order) {
    in_range &= static_cast<std::uint32_t>(idx) < static_cast<std::uint32_t>(n);
  }
  if (!in_range) return false;
  std::uint16_t* const scratch = rank_scratch(n);
  for (std::size_t r = 0; r < n; ++r) {
    scratch[order[r]] = static_cast<std::uint16_t>(r);
  }
  bool distinct = true;
  for (std::size_t r = 0; r < n; ++r) {
    distinct &= scratch[order[r]] == static_cast<std::uint16_t>(r);
  }
  if (!distinct) return false;
  std::memmove(pref_row, order.data(), n * sizeof(Index));  // may alias
  std::memcpy(rank_row, scratch, n * sizeof(std::uint16_t));
  return true;
}

}  // namespace

const char* to_string(PrefBackend backend) noexcept {
  switch (backend) {
    case PrefBackend::explicit_tables: return "explicit";
    case PrefBackend::implicit_gen: return "implicit";
  }
  return "unknown";
}

KPartiteInstance::KPartiteInstance(Gender k, Index n) : k_(k), n_(n) {
  KSTABLE_REQUIRE(k >= 2, "need at least two genders, got k=" << k);
  KSTABLE_REQUIRE(n >= 1, "need at least one member per gender, got n=" << n);
  // Ranks run 0..n-1, so at n = kMaxExplicitN the largest is 65534, one below
  // the unset marker. Rejected before the arena exists: at n = 65536 the
  // tables alone would take 2·65536²·8 B = 64 GiB even for k = 2.
  static_assert(kMaxExplicitN == kUnsetRank,
                "the largest stored rank must sit below the unset marker");
  if (n > kMaxExplicitN) {
    throw ParseError("instance dimensions too large: explicit rank tables "
                     "hold n <= " + std::to_string(kMaxExplicitN) + ", got n=" +
                     std::to_string(n) +
                     "; larger instances need the implicit preference "
                     "backend (KPartiteInstance::make_implicit)");
  }
  // Overflow-checked 64-bit sizing (the old code multiplied k·k·n·n straight
  // into size_t — wrapped, silently undersized tables, UB on index — and
  // sized the diagonal (m.gender == g) rows nobody can ever address).
  cells_ = prefs::checked_mul(
      prefs::checked_mul(static_cast<std::size_t>(k),
                         static_cast<std::size_t>(k - 1)),
      prefs::checked_mul(static_cast<std::size_t>(n),
                         static_cast<std::size_t>(n)));
  const std::size_t pref_sz = prefs::checked_mul(cells_, sizeof(Index));
  const std::size_t rank_sz = prefs::checked_mul(cells_, sizeof(std::uint16_t));
  pref_offset_ = 0;
  rank_offset_ = prefs::round_up(pref_sz, prefs::kArenaAlign);
  const std::size_t total = prefs::checked_add(rank_offset_, rank_sz);
  arena_ = prefs::PrefArena(total);

  std::fill_n(pref_data(), cells_, Index{-1});
  std::fill_n(rank_data(), cells_, kUnsetRank);
}

KPartiteInstance KPartiteInstance::make_implicit(Gender k, Index n,
                                                 prefs::imp::ImplicitSpec spec) {
  KSTABLE_REQUIRE(k >= 2, "need at least two genders, got k=" << k);
  KSTABLE_REQUIRE(n >= 1, "need at least one member per gender, got n=" << n);
  KPartiteInstance out;
  out.k_ = k;
  out.n_ = n;
  out.backend_ = PrefBackend::implicit_gen;
  out.implicit_ = prefs::imp::ImplicitPrefs(spec, k, n);
  // No tables: cells_ stays 0 (pref_bytes/rank_bytes report the true
  // footprint — nothing) and the arena stays unallocated.
  return out;
}

const prefs::imp::ImplicitPrefs& KPartiteInstance::implicit_prefs() const {
  KSTABLE_REQUIRE(backend_ == PrefBackend::implicit_gen,
                  "implicit_prefs() on an explicit-table instance");
  return implicit_;
}

void KPartiteInstance::require_explicit(const char* op) const {
  KSTABLE_REQUIRE(backend_ == PrefBackend::explicit_tables,
                  op << ": this instance uses the implicit preference backend "
                        "(no stored tables); use pref_at/rank_of, or "
                        "materialized() for an explicit copy — "
                        "docs/PERFORMANCE.md §Implicit preferences");
}

Index KPartiteInstance::raw_pref_at(MemberId m, Gender g,
                                    Index r) const noexcept {
  if (backend_ == PrefBackend::implicit_gen) {
    return implicit_.pref(m, g, r);
  }
  return pref_data()[row_base(m, g) + static_cast<std::size_t>(r)];
}

Index KPartiteInstance::pref_at(MemberId m, Gender g, Index r) const {
  check_member(m);
  check_target(m, g);
  KSTABLE_REQUIRE(r >= 0 && r < n_,
                  "pref_at rank " << r << " out of range for n=" << n_);
  const Index choice = raw_pref_at(m, g, r);
  KSTABLE_REQUIRE(choice >= 0, "preference list of " << m << " over gender "
                                                     << g << " is unset");
  return choice;
}

KPartiteInstance KPartiteInstance::materialized() const {
  KPartiteInstance out(k_, n_);
  std::vector<Index> order(static_cast<std::size_t>(n_));
  for (Gender g = 0; g < k_; ++g) {
    for (Index i = 0; i < n_; ++i) {
      const MemberId m{g, i};
      for (Gender h = 0; h < k_; ++h) {
        if (h == g) continue;
        for (Index r = 0; r < n_; ++r) {
          order[static_cast<std::size_t>(r)] = pref_at(m, h, r);
        }
        out.set_pref_list(m, h, order);
      }
    }
  }
  out.generation_ = generation_;
  return out;
}

void KPartiteInstance::check_member(MemberId m) const {
  KSTABLE_REQUIRE(m.gender >= 0 && m.gender < k_ && m.index >= 0 && m.index < n_,
                  "member " << m << " out of range (k=" << k_ << ", n=" << n_ << ")");
}

void KPartiteInstance::check_target(MemberId m, Gender g) const {
  KSTABLE_REQUIRE(g >= 0 && g < k_ && g != m.gender,
                  "gender " << g << " invalid as a preference target for " << m);
}

std::span<const Index> KPartiteInstance::pref_list(MemberId m, Gender g) const {
  require_explicit("pref_list");
  check_member(m);
  check_target(m, g);
  return {pref_data() + row_base(m, g), static_cast<std::size_t>(n_)};
}

void KPartiteInstance::set_pref_list(MemberId m, Gender g,
                                     std::span<const Index> order) {
  require_explicit("set_pref_list");
  check_member(m);
  check_target(m, g);
  KSTABLE_REQUIRE(order.size() == static_cast<std::size_t>(n_),
                  "list for " << m << " over gender " << g << " has "
                              << order.size() << " entries, expected " << n_);
  // Permutation check (fail-fast, I.6): each index in [0, n) exactly once.
  // It passes before any write, so a rejected list changes nothing.
  const std::size_t base = row_base(m, g);
  if (!write_if_permutation(order, pref_data() + base, rank_data() + base)) {
    // Not a permutation: name the first entry that is out of range or
    // repeats an earlier one, in list order.
    std::vector<std::uint64_t> seen((static_cast<std::size_t>(n_) + 63) / 64);
    for (Index idx : order) {
      KSTABLE_REQUIRE(idx >= 0 && idx < n_, "preference entry " << idx
                                                << " out of range for " << m);
      std::uint64_t& word = seen[static_cast<std::size_t>(idx) / 64];
      const std::uint64_t bit = std::uint64_t{1} << (idx % 64);
      KSTABLE_REQUIRE((word & bit) == 0,
                      "duplicate preference entry " << idx << " for " << m);
      word |= bit;
    }
  }
  ++generation_;
}

void KPartiteInstance::swap_pref_entries(MemberId m, Gender g, Index rank_a,
                                         Index rank_b) {
  require_explicit("swap_pref_entries");
  check_member(m);
  check_target(m, g);
  KSTABLE_REQUIRE(rank_a >= 0 && rank_a < n_ && rank_b >= 0 && rank_b < n_,
                  "swap_pref_entries ranks (" << rank_a << ',' << rank_b
                                              << ") out of range for n=" << n_);
  const std::size_t base = row_base(m, g);
  Index* const pref = pref_data();
  const Index at_a = pref[base + static_cast<std::size_t>(rank_a)];
  const Index at_b = pref[base + static_cast<std::size_t>(rank_b)];
  KSTABLE_REQUIRE(at_a >= 0 && at_b >= 0,
                  "swap_pref_entries on an unset list of " << m
                                                           << " over gender "
                                                           << g);
  pref[base + static_cast<std::size_t>(rank_a)] = at_b;
  pref[base + static_cast<std::size_t>(rank_b)] = at_a;
  // Only the two swapped members' rank cells move; the rest of the row is
  // untouched (the in-place rewrite the incremental layer relies on).
  std::uint16_t* const rank = rank_data();
  rank[base + static_cast<std::size_t>(at_a)] =
      static_cast<std::uint16_t>(rank_b);
  rank[base + static_cast<std::size_t>(at_b)] =
      static_cast<std::uint16_t>(rank_a);
  ++generation_;
}

std::int32_t KPartiteInstance::rank_of(MemberId m, MemberId other) const {
  check_member(m);
  check_member(other);
  KSTABLE_REQUIRE(other.gender != m.gender,
                  "rank_of: " << other << " has the same gender as " << m);
  if (backend_ == PrefBackend::implicit_gen) {
    // O(1) on this backend too: the PRP inversion is the rank table.
    return implicit_.rank(m, other.gender, other.index);
  }
  const std::uint16_t r = rank_data()[row_base(m, other.gender) +
                                      static_cast<std::size_t>(other.index)];
  KSTABLE_REQUIRE(r != kUnsetRank, "preference list of "
                                       << m << " over gender " << other.gender
                                       << " is unset");
  return r;
}

bool KPartiteInstance::prefers(MemberId m, MemberId a, MemberId b) const {
  KSTABLE_REQUIRE(a.gender == b.gender,
                  "prefers: " << a << " and " << b << " differ in gender");
  return rank_of(m, a) < rank_of(m, b);
}

void KPartiteInstance::validate() const {
  if (backend_ == PrefBackend::implicit_gen) {
    // Complete by construction: every list is a PRP (hence a permutation)
    // of [0, n) — the bijectivity property test pins this.
    return;
  }
  for (Gender g = 0; g < k_; ++g) {
    for (Index i = 0; i < n_; ++i) {
      const MemberId m{g, i};
      for (Gender h = 0; h < k_; ++h) {
        if (h == g) continue;
        const std::size_t base = row_base(m, h);
        const Index* const pref = pref_data();
        const std::uint16_t* const rank = rank_data();
        std::vector<bool> seen(static_cast<std::size_t>(n_), false);
        for (Index r = 0; r < n_; ++r) {
          const Index idx = pref[base + static_cast<std::size_t>(r)];
          KSTABLE_REQUIRE(idx >= 0 && idx < n_,
                          "unset/out-of-range preference for " << m
                              << " over gender " << h << " at rank " << r);
          KSTABLE_REQUIRE(!seen[static_cast<std::size_t>(idx)],
                          "duplicate entry " << idx << " in list of " << m
                                             << " over gender " << h);
          seen[static_cast<std::size_t>(idx)] = true;
          KSTABLE_REQUIRE(rank[base + static_cast<std::size_t>(idx)] == r,
                          "rank table inconsistent for " << m << " over gender "
                                                         << h);
        }
      }
    }
  }
}

bool KPartiteInstance::is_complete() const noexcept {
  try {
    validate();
    return true;
  } catch (const ContractViolation&) {
    return false;
  }
}

bool operator==(const KPartiteInstance& a, const KPartiteInstance& b) {
  if (a.k_ != b.k_ || a.n_ != b.n_) return false;
  if (a.backend_ == PrefBackend::explicit_tables &&
      b.backend_ == PrefBackend::explicit_tables) {
    // The rank table is derived from the pref table, so pref equality is
    // semantic equality; memcmp is sound because unset entries are a
    // deterministic -1 fill.
    return std::memcmp(a.pref_data(), b.pref_data(), a.pref_bytes()) == 0;
  }
  if (a.backend_ == PrefBackend::implicit_gen &&
      b.backend_ == PrefBackend::implicit_gen &&
      a.implicit_.spec() == b.implicit_.spec()) {
    return true;  // same generator, same shape: identical lists in O(1)
  }
  // Cross-backend (or different implicit specs): element-wise semantic
  // comparison. O(k·(k-1)·n²) evaluations — the DiffRunner/test sizes this
  // path exists for are tiny.
  for (Gender g = 0; g < a.k_; ++g) {
    for (Index i = 0; i < a.n_; ++i) {
      for (Gender h = 0; h < a.k_; ++h) {
        if (h == g) continue;
        for (Index r = 0; r < a.n_; ++r) {
          if (a.raw_pref_at({g, i}, h, r) != b.raw_pref_at({g, i}, h, r)) {
            return false;
          }
        }
      }
    }
  }
  return true;
}

}  // namespace kstable
