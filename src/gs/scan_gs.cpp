#include "gs/scan_gs.hpp"

#include "observability/metrics.hpp"
#include "prefs/implicit/pref_view.hpp"
#include "util/check.hpp"
#include "util/timer.hpp"

namespace kstable::gs {

namespace {

/// Eager instrument registration (same pattern as gale_shapley.cpp).
const bool kScanInstrumentsWarm = [] {
  auto& registry = obs::MetricsRegistry::global();
  registry.counter("gs.scan.solves");
  registry.counter("gs.scan.proposals");
  return true;
}();

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

}  // namespace

/// Textbook free-stack GS where the accept/reject test is a list walk,
/// monomorphized per backend through with_pref_view.
GsResult gale_shapley_scan(const KPartiteInstance& inst, Gender i, Gender j) {
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
      } else if (scan_prefers(view, r, n, p, holder)) {
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
  finish_engine(inst, "gs.scan", timer.millis(), result);
  KSTABLE_COUNTER_ADD("gs.scan.solves", 1);
  KSTABLE_COUNTER_ADD("gs.scan.proposals", result.proposals);
  return result;
}

}  // namespace kstable::gs
