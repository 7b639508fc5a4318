// PrefView: the per-backend preference accessors the GS engines monomorphize
// on (docs/PERFORMANCE.md §Implicit preferences).
//
// The engines' hot loops need these operations for one oriented gender pair
// (i proposes to j):
//
//   pref_at(p, c)        — proposer p's c-th choice
//   resp_row(r)          — a hoisted handle for responder r's rank row
//   rank_in(row, p)      — p's rank with responder r (the accept/reject load)
//   resp_pref_in(row, c) — responder r's c-th choice (scan engine only)
//
// The queue engine also hoists the proposer's row, which stays put while a
// rejected proposer keeps proposing, and asks for the accept/reject rank and
// the proposer's next choice in one call:
//
//   prop_row(p)                      — a hoisted handle for p's pref row
//   choice_in(prow, c)               — pref_at(p, c) through the handle
//   rank_and_next(row, p, prow, c)   — {rank_in(row, p), choice_in(prow, c)}
//
// plus two hooks the queue loop calls on every proposal, prefetch_pref and
// prefetch_rank.
//
// ExplicitView implements them as the raw-pointer arithmetic the engines
// used to inline directly (one row-base multiply per proposal, uint16_t rank
// loads, real software prefetches) — the explicit backend keeps its
// zero-overhead path, checked by the E19 baseline gate. ImplicitView
// implements them as O(1) generator evaluations (prefs/implicit/feistel.hpp)
// with no-op prefetches (there is no memory to warm); its rank_and_next runs
// the two PRP walks in lockstep. with_pref_view() performs the one dispatch
// per solve; everything inside is monomorphized.
#pragma once

#include "prefs/kpartite.hpp"

namespace kstable::prefs {

/// rank_and_next's result: the proposer's rank with the responder and the
/// proposer's choice at the requested rank.
struct RankNext {
  std::uint32_t rank;
  Index next;
};

/// Read-mostly software prefetch with low temporal locality: a rank cell is
/// touched once per proposal and then usually not again for a long time.
inline void view_prefetch_ro(const void* p) noexcept {
#if defined(__GNUC__) || defined(__clang__)
  __builtin_prefetch(p, /*rw=*/0, /*locality=*/1);
#else
  (void)p;
#endif
}

/// Arena-table view. Construction hoists the three row bases the old engine
/// code computed inline; all accessors compile to the identical loads.
class ExplicitView {
 public:
  using Rank = std::uint16_t;
  /// Hoisted responder row: the rank row for the accept/reject compare plus
  /// the pref row for the scan engine's list walk.
  struct RespRow {
    const Rank* ranks;
    const Index* prefs;
  };
  ExplicitView(const KPartiteInstance& inst, Gender i, Gender j) noexcept
      : pref_(inst.pref_row({i, 0}, j).data()),
        resp_pref_(inst.pref_row({j, 0}, i).data()),
        resp_rank_(inst.rank_row({j, 0}, i).data()),
        stride_(static_cast<std::size_t>(inst.genders() - 1) *
                static_cast<std::size_t>(inst.per_gender())) {}

  using PropRow = const Index*;
  [[nodiscard]] PropRow prop_row(Index p) const noexcept {
    return pref_ + static_cast<std::size_t>(p) * stride_;
  }
  [[nodiscard]] static Index choice_in(PropRow prow, Index c) noexcept {
    return prow[static_cast<std::size_t>(c)];
  }
  [[nodiscard]] Index pref_at(Index p, Index c) const noexcept {
    return choice_in(prop_row(p), c);
  }
  [[nodiscard]] RespRow resp_row(Index r) const noexcept {
    const std::size_t off = static_cast<std::size_t>(r) * stride_;
    return {resp_rank_ + off, resp_pref_ + off};
  }
  [[nodiscard]] static Rank rank_in(const RespRow& row, Index p) noexcept {
    return row.ranks[static_cast<std::size_t>(p)];
  }
  [[nodiscard]] static Index resp_pref_in(const RespRow& row,
                                          Index c) noexcept {
    return row.prefs[static_cast<std::size_t>(c)];
  }

  [[nodiscard]] static RankNext rank_and_next(const RespRow& row, Index p,
                                              PropRow prow, Index c) noexcept {
    return {rank_in(row, p), choice_in(prow, c)};
  }

  void prefetch_pref(Index p, Index c) const noexcept {
    view_prefetch_ro(prop_row(p) + static_cast<std::size_t>(c));
  }
  static void prefetch_rank(const RespRow& row, Index p) noexcept {
    view_prefetch_ro(row.ranks + static_cast<std::size_t>(p));
  }

 private:
  const Index* pref_;       ///< pref row base of proposer (i, 0) over j
  const Index* resp_pref_;  ///< pref row base of responder (j, 0) over i
  const Rank* resp_rank_;   ///< rank row base of responder (j, 0) over i
  std::size_t stride_;      ///< (k-1)·n elements between consecutive members
};

/// Generator view: every accessor is an O(1) Feistel evaluation. resp_row
/// and prop_row derive a row's round keys — the implicit analogue of
/// hoisting a row pointer — and rank_in / choice_in are then pure PRP walks.
/// Ranks surface as uint32_t (any rank < n fits).
class ImplicitView {
 public:
  using Rank = std::uint32_t;
  using RespRow = imp::ImplicitPrefs::Row;

  ImplicitView(const KPartiteInstance& inst, Gender i, Gender j) noexcept
      : gen_(&inst.implicit_prefs()), i_(i), j_(j) {}

  using PropRow = imp::ImplicitPrefs::Row;
  [[nodiscard]] PropRow prop_row(Index p) const noexcept {
    return gen_->row({i_, p}, j_);
  }
  [[nodiscard]] Index choice_in(const PropRow& prow, Index c) const noexcept {
    return gen_->pref_in(prow, c);
  }
  [[nodiscard]] Index pref_at(Index p, Index c) const noexcept {
    return choice_in(prop_row(p), c);
  }
  [[nodiscard]] RespRow resp_row(Index r) const noexcept {
    return gen_->row({j_, r}, i_);
  }
  [[nodiscard]] Rank rank_in(const RespRow& row, Index p) const noexcept {
    return static_cast<Rank>(gen_->rank_in(row, p));
  }
  [[nodiscard]] Index resp_pref_in(const RespRow& row, Index c) const noexcept {
    return gen_->pref_in(row, c);
  }

  [[nodiscard]] RankNext rank_and_next(const RespRow& row, Index p,
                                       const PropRow& prow,
                                       Index c) const noexcept {
    const auto both = gen_->rank_and_pref(row, p, prow, c);
    return {static_cast<Rank>(both.inverse), both.forward};
  }

  static void prefetch_pref(Index, Index) noexcept {}
  static void prefetch_rank(const RespRow&, Index) noexcept {}

 private:
  const imp::ImplicitPrefs* gen_;
  Gender i_;
  Gender j_;
};

/// One backend dispatch per solve: calls `fn` with the matching
/// monomorphized view. The callable is instantiated for ExplicitView and
/// ImplicitView.
template <typename Fn>
decltype(auto) with_pref_view(const KPartiteInstance& inst, Gender i, Gender j,
                              Fn&& fn) {
  if (inst.backend() == PrefBackend::implicit_gen) {
    return fn(ImplicitView(inst, i, j));
  }
  return fn(ExplicitView(inst, i, j));
}

}  // namespace kstable::prefs
