// KPartiteInstance: the preference system of a complete, balanced k-partite
// graph (paper §II.B).
//
// Each of the k genders holds n members. Every member keeps k-1 *separate*
// strict preference orders, one per other gender — exactly the paper's model
// ("separate orders are maintained for different genders, one for each
// gender"), as opposed to the combination/cyclic preferences of prior
// multi-dimensional SMP work.
//
// Storage is flat and gender-major with a precomputed rank table so that
// "does m prefer a over b" is two loads and a compare (O(1)); this is the
// representation every engine (GS, roommates adapter, binding, stability
// checkers) runs on.
//
// Memory layout (docs/PERFORMANCE.md §Compact memory layout):
//   * Both tables live in ONE extent-granular arena slab (prefs/arena.hpp) —
//     SoA, no per-row vectors, 64-byte-aligned carves, overflow-checked
//     sizing that throws ParseError instead of wrapping at giant n.
//   * Rows exist only for the k-1 *other* genders: the row index of (m, g)
//     is flat_id(m)·(k-1) + slot(g), so the old layout's dead same-gender
//     diagonal rows (a full 1/k of the table — half of it for bipartite
//     instances) are gone.
//   * Ranks are std::uint16_t: half the bytes of a 32-bit rank, and the
//     queue engine measured faster on them (E19). A rank is below n, so an
//     explicit instance holds at most kMaxExplicitN = 65535 members per
//     gender, leaving the all-ones value free as the "unset" marker. At that
//     n the tables already take tens of GiB; larger instances use the
//     implicit backend (make_implicit).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

#include "prefs/arena.hpp"
#include "prefs/ids.hpp"
#include "prefs/implicit/implicit_prefs.hpp"

namespace kstable {

/// Where an instance's preference system lives
/// (docs/PERFORMANCE.md §Implicit preferences):
///   * explicit_tables — the arena-backed pref + rank tables above; O(k²n²)
///     memory, O(1) lookups by load. Mutable (generation-counted).
///   * implicit_gen    — a generator (prefs/implicit/): entries computed on
///     demand from a seed, O(1) instance memory. Immutable by construction —
///     mutators throw, generation() stays 0, so generation-bound caches work
///     unchanged.
enum class PrefBackend : std::uint8_t { explicit_tables, implicit_gen };

[[nodiscard]] const char* to_string(PrefBackend backend) noexcept;

/// A complete balanced k-partite preference instance.
class KPartiteInstance {
 public:
  /// Largest n whose ranks fit the table: every rank is below n, and the
  /// all-ones std::uint16_t is the unset marker.
  static constexpr Index kMaxExplicitN = 65535;
  /// Stored value of a rank cell whose list is not set yet.
  static constexpr std::uint16_t kUnsetRank = 0xffff;

  /// Creates an instance with k genders of n members and *unset* preference
  /// lists (all entries -1). Call set_pref_list() for every (member, gender)
  /// pair and then validate(), or use a prefs::gen generator. Throws
  /// ParseError, before allocating anything, when n > kMaxExplicitN.
  KPartiteInstance(Gender k, Index n);

  /// Creates an instance whose preference system is computed on demand from
  /// `spec` (prefs/implicit/) instead of being stored: O(1) instance memory
  /// at any n, which is what makes n >= 10^5 solvable at all (explicit
  /// tables there are ~100 GB). The instance is complete by construction and
  /// immutable: set_pref_list/swap_pref_entries throw, generation() stays 0.
  /// Checked explicit-table accessors (pref_list) throw; the
  /// unchecked hot-path ones (pref_row, rank_row) must simply
  /// never be called here — engines go through the PrefView dispatch
  /// (prefs/implicit/pref_view.hpp), which only constructs an ExplicitView
  /// for explicit instances, and everything rank-based (rank_of, prefers,
  /// pref_at) works identically on both backends.
  static KPartiteInstance make_implicit(Gender k, Index n,
                                        prefs::imp::ImplicitSpec spec);

  /// Which backend answers preference queries for this instance.
  [[nodiscard]] PrefBackend backend() const noexcept { return backend_; }

  /// The generator of an implicit instance. Requires backend() ==
  /// implicit_gen (throws ContractViolation otherwise).
  [[nodiscard]] const prefs::imp::ImplicitPrefs& implicit_prefs() const;

  /// The r-th choice of member `m` over gender `g` (0 = most preferred), on
  /// either backend: a table load when explicit, an O(1) PRP evaluation when
  /// implicit. Checked; throws on an unset explicit entry.
  [[nodiscard]] Index pref_at(MemberId m, Gender g, Index r) const;

  /// Explicit-table copy of this instance (both backends): every list is
  /// evaluated through pref_at and stored. O(k·(k-1)·n²) time and memory —
  /// small instances only; this is how the DiffRunner pins implicit
  /// instances against the table engines bitwise. The copy inherits
  /// generation() (0 for implicit sources), so caches treat it as equal.
  [[nodiscard]] KPartiteInstance materialized() const;

  [[nodiscard]] Gender genders() const noexcept { return k_; }
  [[nodiscard]] Index per_gender() const noexcept { return n_; }
  /// k·n, in 64 bits: the product overflows int32 for instances whose
  /// *tables* could never be built, but the count itself must stay exact.
  [[nodiscard]] std::int64_t total_members() const noexcept {
    return static_cast<std::int64_t>(k_) * static_cast<std::int64_t>(n_);
  }

  /// Preference order of member `m` over gender `g` (best first); entries are
  /// indices into gender `g`. Requires g != m.gender and the explicit
  /// backend (implicit instances have no stored rows — use pref_at).
  [[nodiscard]] std::span<const Index> pref_list(MemberId m, Gender g) const;

  /// Overwrites the preference order of `m` over gender `g`. `order` must be
  /// a permutation of [0, n) — enforced here (fail-fast on malformed input)
  /// before anything is written, so a rejected list leaves the pref row, the
  /// rank row and generation() unchanged; its error names the first entry
  /// that is out of range or repeats an earlier one. An accepted list
  /// allocates nothing once the calling thread has checked a list of this
  /// length. A mutation: bumps generation() (see below).
  void set_pref_list(MemberId m, Gender g, std::span<const Index> order);

  /// Swaps the entries at ranks `rank_a` and `rank_b` in m's list over gender
  /// `g`, rewriting both the pref row and the two touched rank-table cells in
  /// place (no allocation). The list must already be set. A mutation: bumps
  /// generation(). rank_a == rank_b is a no-op that still bumps (callers
  /// treat every mutator call as a delta).
  void swap_pref_entries(MemberId m, Gender g, Index rank_a, Index rank_b);

  /// Mutation counter: starts at 0 and increments on every mutating call
  /// (set_pref_list, swap_pref_entries). Consumers that memoize per-instance
  /// results (core::GsEdgeCache) record the generation they were built
  /// against and fail loudly when it has moved — the staleness guard that
  /// replaced the old "instances are immutable" contract
  /// (docs/INCREMENTAL.md). Copies inherit the source's generation: they are
  /// semantically equal at the moment of the copy.
  [[nodiscard]] std::uint64_t generation() const noexcept {
    return generation_;
  }

  /// Rank of `other` in m's list for other.gender (0 = most preferred).
  [[nodiscard]] std::int32_t rank_of(MemberId m, MemberId other) const;

  /// Unchecked row views for validated hot loops (the GS engines). Explicit
  /// backend only — the engines dispatch per backend through
  /// prefs::with_pref_view, so these are never reached on an implicit
  /// instance; other callers must check backend() first. One
  /// row_base computation buys the whole row, so a responder's accept/reject
  /// decision is two loads off rank_row and a compare. Callers must have
  /// range-checked (m, g) up front (the engines validate the gender pair once
  /// per solve); no per-call contract checks, no allocation.
  [[nodiscard]] std::span<const Index> pref_row(MemberId m,
                                                Gender g) const noexcept {
    return {pref_data() + row_base(m, g), static_cast<std::size_t>(n_)};
  }
  /// rank_row(m, g)[i] = rank of member (g, i) in m's list over gender g
  /// (kUnsetRank while the list is unset).
  [[nodiscard]] std::span<const std::uint16_t> rank_row(
      MemberId m, Gender g) const noexcept {
    return {rank_data() + row_base(m, g), static_cast<std::size_t>(n_)};
  }

  /// True iff `m` strictly prefers `a` over `b`; a and b must belong to the
  /// same gender, different from m's.
  [[nodiscard]] bool prefers(MemberId m, MemberId a, MemberId b) const;

  /// Full structural validation: every cross-gender list set and a
  /// permutation. Throws ContractViolation otherwise.
  void validate() const;

  /// True iff validate() would pass (no throw).
  [[nodiscard]] bool is_complete() const noexcept;

  /// Layout introspection for E19 and the docs' bytes/proposal accounting.
  [[nodiscard]] std::size_t cells() const noexcept { return cells_; }
  [[nodiscard]] std::size_t pref_bytes() const noexcept {
    return cells_ * sizeof(Index);
  }
  [[nodiscard]] std::size_t rank_bytes() const noexcept {
    return cells_ * sizeof(std::uint16_t);
  }
  /// Total slab footprint including extent-rounding slack.
  [[nodiscard]] std::size_t arena_bytes() const noexcept {
    return arena_.capacity();
  }

  /// Semantic equality: same shape and same preference lists, on either
  /// backend.
  friend bool operator==(const KPartiteInstance& a, const KPartiteInstance& b);

 private:
  /// make_implicit builds instances member-by-member without the allocating
  /// public constructor.
  KPartiteInstance() = default;

  [[nodiscard]] Index* pref_data() noexcept {
    return arena_.at<Index>(pref_offset_);
  }
  [[nodiscard]] const Index* pref_data() const noexcept {
    return arena_.at<Index>(pref_offset_);
  }
  [[nodiscard]] std::uint16_t* rank_data() noexcept {
    return arena_.at<std::uint16_t>(rank_offset_);
  }
  [[nodiscard]] const std::uint16_t* rank_data() const noexcept {
    return arena_.at<std::uint16_t>(rank_offset_);
  }
  /// Flat element offset of row (m, g) into both tables.
  [[nodiscard]] std::size_t row_base(MemberId m, Gender g) const noexcept {
    const std::size_t flat = static_cast<std::size_t>(m.gender) *
                                 static_cast<std::size_t>(n_) +
                             static_cast<std::size_t>(m.index);
    const std::size_t slot =
        static_cast<std::size_t>(g) - static_cast<std::size_t>(g > m.gender);
    return (flat * static_cast<std::size_t>(k_ - 1) + slot) *
           static_cast<std::size_t>(n_);
  }
  /// The r-th choice on either backend without range checks; -1 for an unset
  /// explicit entry (implicit entries are never unset).
  [[nodiscard]] Index raw_pref_at(MemberId m, Gender g, Index r) const noexcept;
  void check_member(MemberId m) const;
  void check_target(MemberId m, Gender g) const;
  /// Throws ContractViolation when `op` needs the explicit tables but the
  /// backend is implicit.
  void require_explicit(const char* op) const;

  Gender k_ = 0;
  Index n_ = 0;
  std::uint64_t generation_ = 0;
  PrefBackend backend_ = PrefBackend::explicit_tables;
  prefs::imp::ImplicitPrefs implicit_;  ///< engaged iff backend_ == implicit_gen
  std::size_t cells_ = 0;        ///< k·(k-1)·n·n used entries per table
  std::size_t pref_offset_ = 0;  ///< byte offset of the pref carve (0)
  std::size_t rank_offset_ = 0;  ///< byte offset of the rank carve
  // One slab for both tables:
  //   pref[row_base(m,g) + r] = index of the r-th choice of m in gender g;
  //   rank[row_base(m,g) + i] = rank of member (g, i) in m's list.
  prefs::PrefArena arena_;
};

}  // namespace kstable
