// PrefView: the per-backend preference accessors the GS engines monomorphize
// on (docs/PERFORMANCE.md §Implicit preferences).
//
// The engines' hot loops need exactly four operations for one oriented
// gender pair (i proposes to j):
//
//   pref_at(p, c)        — proposer p's c-th choice
//   resp_row(r)          — a hoisted handle for responder r's rank row
//   rank_in(row, p)      — p's rank with responder r (the accept/reject load)
//   resp_pref_in(row, c) — responder r's c-th choice (scan engine only)
//
// plus two hooks the queue loop calls on every proposal, prefetch_pref and
// prefetch_rank.
//
// ExplicitView<R> implements them as the raw-pointer arithmetic the engines
// used to inline directly (one row-base multiply per proposal, typed rank
// loads, real software prefetches) — the explicit backend keeps its
// zero-overhead path, checked by the E19 baseline gate. ImplicitView
// implements them as O(1) generator evaluations (prefs/implicit/feistel.hpp)
// with no-op prefetches (there is no memory to warm). with_pref_view()
// performs the one dispatch per solve; everything inside is monomorphized.
#pragma once

#include "prefs/kpartite.hpp"

namespace kstable::prefs {

/// Read-mostly software prefetch with low temporal locality: rank rows are
/// touched twice per proposal and then usually not again for a long time.
inline void view_prefetch_ro(const void* p) noexcept {
#if defined(__GNUC__) || defined(__clang__)
  __builtin_prefetch(p, /*rw=*/0, /*locality=*/1);
#else
  (void)p;
#endif
}

/// Arena-table view, monomorphized on the stored rank type R. Construction
/// hoists the three row bases the old engine code computed inline; all
/// accessors compile to the identical loads.
template <typename R>
class ExplicitView {
 public:
  using Rank = R;
  /// Hoisted responder row: the rank row for the accept/reject compare plus
  /// the pref row for the scan engine's list walk.
  struct RespRow {
    const R* ranks;
    const Index* prefs;
  };
  ExplicitView(const KPartiteInstance& inst, Gender i, Gender j) noexcept
      : pref_(inst.pref_row({i, 0}, j).data()),
        resp_pref_(inst.pref_row({j, 0}, i).data()),
        resp_rank_(inst.rank_base<R>() + inst.row_base({j, 0}, i)),
        stride_(static_cast<std::size_t>(inst.genders() - 1) *
                static_cast<std::size_t>(inst.per_gender())) {}

  [[nodiscard]] Index pref_at(Index p, Index c) const noexcept {
    return pref_[static_cast<std::size_t>(p) * stride_ +
                 static_cast<std::size_t>(c)];
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

  void prefetch_pref(Index p, Index c) const noexcept {
    view_prefetch_ro(pref_ + static_cast<std::size_t>(p) * stride_ +
                     static_cast<std::size_t>(c));
  }
  static void prefetch_rank(const RespRow& row, Index p) noexcept {
    view_prefetch_ro(row.ranks + static_cast<std::size_t>(p));
  }

 private:
  const Index* pref_;       ///< pref row base of proposer (i, 0) over j
  const Index* resp_pref_;  ///< pref row base of responder (j, 0) over i
  const R* resp_rank_;      ///< rank row base of responder (j, 0) over i
  std::size_t stride_;      ///< (k-1)·n elements between consecutive members
};

/// Generator view: every accessor is an O(1) Feistel evaluation. resp_row
/// derives the responder's round keys once per proposal — the implicit
/// analogue of hoisting the rank-row pointer — and rank_in is then a pure
/// PRP inversion. Ranks surface as uint32_t (any rank < n fits).
class ImplicitView {
 public:
  using Rank = std::uint32_t;
  using RespRow = imp::ImplicitPrefs::Row;

  ImplicitView(const KPartiteInstance& inst, Gender i, Gender j) noexcept
      : gen_(&inst.implicit_prefs()), i_(i), j_(j) {}

  [[nodiscard]] Index pref_at(Index p, Index c) const noexcept {
    return gen_->pref({i_, p}, j_, c);
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

  static void prefetch_pref(Index, Index) noexcept {}
  static void prefetch_rank(const RespRow&, Index) noexcept {}

 private:
  const imp::ImplicitPrefs* gen_;
  Gender i_;
  Gender j_;
};

/// One backend + width dispatch per solve: calls `fn` with the matching
/// monomorphized view. The callable is instantiated for ExplicitView<u16>,
/// ExplicitView<u32>, and ImplicitView.
template <typename Fn>
decltype(auto) with_pref_view(const KPartiteInstance& inst, Gender i, Gender j,
                              Fn&& fn) {
  if (inst.backend() == PrefBackend::implicit_gen) {
    return fn(ImplicitView(inst, i, j));
  }
  if (inst.rank_width() == RankWidth::narrow16) {
    return fn(ExplicitView<std::uint16_t>(inst, i, j));
  }
  return fn(ExplicitView<std::uint32_t>(inst, i, j));
}

}  // namespace kstable::prefs
