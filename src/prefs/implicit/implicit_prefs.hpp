// Implicit (generator-backed) preference families: preference entries and
// ranks computed in O(1) from a seed, never stored
// (docs/PERFORMANCE.md §Implicit preferences).
//
// An ImplicitPrefs value replaces both arena tables of a KPartiteInstance:
// it answers the two table queries —
//
//   pref_in(row, r)  — the r-th choice of the row's member        (pref table)
//   rank_in(row, t)  — the rank of member t in the row's list     (rank table)
//
// — from a handful of 64-bit words. Two families:
//
//   * Family::uniform — each (member, target-gender) row is an independent
//     seeded Feistel permutation (prefs/implicit/feistel.hpp). This is the
//     uniform-random instance family of the Mertens experiment
//     (cond-mat/0509221): distributionally the same instances gen::uniform
//     materializes, at O(1) memory per row.
//   * Family::cyclic  — the structured/identity family: member x's list over
//     any other gender is x, x+1, ..., x-1 (mod n). Closed-form rank, a
//     worst-case-free "everyone nearly agrees" workload, and a cheap
//     smoke-test family whose lists are human-predictable.
//
// A Row handle caches one row's derived keys the way the explicit engines
// hoist one row pointer: the queue engine derives the responder's row once
// per proposal and the proposer's row once per run of consecutive proposals
// by the same proposer, then rank_in / pref_in are pure PRP walks (and
// rank_and_pref runs one of each in lockstep).
#pragma once

#include <string_view>

#include "prefs/ids.hpp"
#include "prefs/implicit/feistel.hpp"

namespace kstable::prefs::imp {

/// Implicit preference family selector.
enum class Family : std::uint8_t {
  uniform,  ///< independent seeded PRP per row
  cyclic,   ///< pref(x, r) = (x + r) mod n, rank(x, t) = (t - x) mod n
};

[[nodiscard]] const char* to_string(Family family) noexcept;
/// Parses "uniform"/"cyclic"; returns false on anything else.
bool parse_family(std::string_view text, Family& out) noexcept;

/// Full description of an implicit instance's preference system: the family
/// plus the 64-bit master seed. Two instances with equal specs (and shapes)
/// have identical preference lists.
struct ImplicitSpec {
  Family family = Family::uniform;
  std::uint64_t seed = 0;

  friend bool operator==(const ImplicitSpec&, const ImplicitSpec&) = default;
};

/// The generator: evaluates one instance's preference system on the fly.
/// A value type of a few words — copying an implicit instance is O(1).
class ImplicitPrefs {
 public:
  ImplicitPrefs() = default;
  ImplicitPrefs(ImplicitSpec spec, Gender k, Index n) noexcept
      : spec_(spec), k_(k), n_(n), geom_(feistel_geometry(n)) {}

  /// One (member, target-gender) row: the derived permutation keys plus the
  /// member index (the cyclic family's closed form needs only the latter).
  struct Row {
    RowKeys keys;
    Index member = 0;
  };

  /// Row handle for member m's list over gender g. Requires valid m, g
  /// (g != m.gender) — callers are the instance's checked accessors and the
  /// engines, which validate the gender pair once per solve.
  [[nodiscard]] Row row(MemberId m, Gender g) const noexcept {
    Row out;
    out.member = m.index;
    if (spec_.family == Family::uniform) {
      out.keys = derive_row_keys(spec_.seed, flat_row(m, g));
    }
    return out;
  }

  /// The rank-r entry of the row's list, in O(1).
  [[nodiscard]] Index pref_in(const Row& row, Index rank) const noexcept {
    if (spec_.family == Family::cyclic) {
      const Index sum = row.member + rank;
      return sum >= n_ ? sum - n_ : sum;
    }
    return prp_forward(geom_, row.keys, rank);
  }

  /// The rank of member `target` in the row's list, in O(1).
  [[nodiscard]] Index rank_in(const Row& row, Index target) const noexcept {
    if (spec_.family == Family::cyclic) {
      const Index diff = target - row.member;
      return diff < 0 ? diff + n_ : diff;
    }
    return prp_inverse(geom_, row.keys, target);
  }

  /// rank_in(rank_row, target) and pref_in(pref_row, rank) in one call. On
  /// the uniform family the two PRP walks run in lockstep
  /// (prp_forward_inverse), so together they cost about one walk's latency.
  [[nodiscard]] ForwardInverse rank_and_pref(const Row& rank_row,
                                             Index target, const Row& pref_row,
                                             Index rank) const noexcept {
    if (spec_.family == Family::cyclic) {
      return {pref_in(pref_row, rank), rank_in(rank_row, target)};
    }
    return prp_forward_inverse(geom_, pref_row.keys, rank, rank_row.keys,
                               target);
  }

  /// Convenience forms that derive the row handle per call.
  [[nodiscard]] Index pref(MemberId m, Gender g, Index rank) const noexcept {
    return pref_in(row(m, g), rank);
  }
  [[nodiscard]] Index rank(MemberId m, Gender g, Index target) const noexcept {
    return rank_in(row(m, g), target);
  }

  [[nodiscard]] const ImplicitSpec& spec() const noexcept { return spec_; }
  [[nodiscard]] const FeistelGeometry& geometry() const noexcept {
    return geom_;
  }

 private:
  /// Flat row id, matching KPartiteInstance::row_base's row indexing (the
  /// k-1 other-gender rows of flat member m.gender·n + m.index).
  [[nodiscard]] std::uint64_t flat_row(MemberId m, Gender g) const noexcept {
    const std::uint64_t flat = static_cast<std::uint64_t>(m.gender) *
                                   static_cast<std::uint64_t>(n_) +
                               static_cast<std::uint64_t>(m.index);
    const std::uint64_t slot =
        static_cast<std::uint64_t>(g) - static_cast<std::uint64_t>(g > m.gender);
    return flat * static_cast<std::uint64_t>(k_ - 1) + slot;
  }

  ImplicitSpec spec_{};
  Gender k_ = 0;
  Index n_ = 0;
  FeistelGeometry geom_{};
};

}  // namespace kstable::prefs::imp
