#include "gs/scan_gs.hpp"

#include "gs/simd.hpp"
#include "observability/metrics.hpp"
#include "prefs/implicit/pref_view.hpp"
#include "util/check.hpp"
#include "util/timer.hpp"

namespace kstable::gs {

namespace {

#if KSTABLE_METRICS_ENABLED
/// Eager instrument registration (same pattern as gale_shapley.cpp).
const bool kScanInstrumentsWarm = [] {
  auto& registry = obs::MetricsRegistry::global();
  registry.counter("gs.scan.solves");
  registry.counter("gs.scan.proposals");
  registry.counter("gs.scan_simd.solves");
  registry.counter("gs.scan_simd.proposals");
  return true;
}();
#endif

/// True iff responder r prefers proposer a over proposer b, determined by
/// walking the responder's list front-to-back through the view (no rank
/// table). On the implicit backend each step is one Feistel evaluation.
template <typename View>
bool scan_prefers(const View& view, Index r, Index n, Index a, Index b) {
  const auto row = view.resp_row(r);
  for (Index c = 0; c < n; ++c) {
    const Index candidate = view.resp_pref_in(row, c);
    if (candidate == a) return true;
    if (candidate == b) return false;
  }
  KSTABLE_REQUIRE(false, "neither " << a << " nor " << b
                                    << " on responder " << r << "'s list");
  return false;
}

/// Vectorized scan_prefers: position of the earliest of {a, b} on the list,
/// found 8/4 lanes at a time. Same verdict as the scalar scan bit for bit.
/// The kernel needs the row in contiguous memory; the implicit backend has
/// none, so it falls back to the scalar walk (identical earliest-hit
/// semantics, pinned by the DiffRunner implicit battery).
template <typename View>
bool scan_prefers_simd(const View& view, Index r, Index n, Index a, Index b) {
  if constexpr (View::kContiguousRows) {
    const auto list = view.resp_pref_span(r, n);
    const std::size_t pos =
        simd::first_of_pair(list.data(), list.size(), a, b);
    KSTABLE_REQUIRE(pos < list.size(), "neither " << a << " nor " << b
                                                  << " on responder " << r
                                                  << "'s list");
    return list[pos] == a;
  } else {
    return scan_prefers(view, r, n, a, b);
  }
}

/// Shared body of the two scan engines: textbook free-stack GS where the
/// accept/reject test is `prefers(view, r, n, challenger, holder)`. The
/// `prefers` callable is generic over the view so each backend/width gets
/// its own monomorphized loop.
template <typename Prefers>
GsResult scan_engine(const KPartiteInstance& inst, Gender i, Gender j,
                     const char* engine_label, Prefers&& prefers) {
  check_genders(inst, i, j);
  const Index n = inst.per_gender();
  const WallTimer timer;
  GsResult result;
  reset_result(result, i, j, n);

  std::vector<Index> next_choice(static_cast<std::size_t>(n), Index{0});
  std::vector<Index> free_stack(static_cast<std::size_t>(n));
  for (Index p = 0; p < n; ++p) {
    free_stack[static_cast<std::size_t>(p)] = n - 1 - p;
  }
  prefs::with_pref_view(inst, i, j, [&](const auto view) {
    while (!free_stack.empty()) {
      const Index p = free_stack.back();
      free_stack.pop_back();
      const Index r =
          view.pref_at(p, next_choice[static_cast<std::size_t>(p)]++);
      ++result.proposals;
      const Index holder = result.responder_match[static_cast<std::size_t>(r)];
      if (holder < 0) {
        result.responder_match[static_cast<std::size_t>(r)] = p;
        result.proposer_match[static_cast<std::size_t>(p)] = r;
      } else if (prefers(view, r, n, p, holder)) {
        result.responder_match[static_cast<std::size_t>(r)] = p;
        result.proposer_match[static_cast<std::size_t>(p)] = r;
        result.proposer_match[static_cast<std::size_t>(holder)] = -1;
        free_stack.push_back(holder);
      } else {
        free_stack.push_back(p);
      }
    }
  });
  result.rounds = result.proposals;
  finish_engine(inst, engine_label, timer.millis(), result);
  return result;
}

}  // namespace

GsResult gale_shapley_scan(const KPartiteInstance& inst, Gender i, Gender j) {
  auto result = scan_engine(inst, i, j, "gs.scan",
                            [](const auto& view, Index r, Index n,
                               Index challenger, Index holder) {
                              return scan_prefers(view, r, n, challenger,
                                                  holder);
                            });
  KSTABLE_COUNTER_ADD("gs.scan.solves", 1);
  KSTABLE_COUNTER_ADD("gs.scan.proposals", result.proposals);
  return result;
}

GsResult gale_shapley_scan_simd(const KPartiteInstance& inst, Gender i,
                                Gender j) {
  auto result = scan_engine(inst, i, j, "gs.scan_simd",
                            [](const auto& view, Index r, Index n,
                               Index challenger, Index holder) {
                              return scan_prefers_simd(view, r, n, challenger,
                                                       holder);
                            });
  KSTABLE_COUNTER_ADD("gs.scan_simd.solves", 1);
  KSTABLE_COUNTER_ADD("gs.scan_simd.proposals", result.proposals);
  return result;
}

}  // namespace kstable::gs
