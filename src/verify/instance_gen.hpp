// InstanceGen: seeded instance generation for the differential verification
// harness (docs/VERIFY.md).
//
// Every seed deterministically draws one instance of a requested *shape*
// (which engine battery runs on it) and *distribution* (what the preference
// lists look like). The draw is a pure function of (options, seed), so a
// mismatch report containing the seed replays exactly — the same property
// the experiment generators already have, specialized to the small sizes the
// differential battery and the shrinker want (the O(n² · 2^k) independent
// certificate checker and the greedy delta-debugger both need room to stay
// cheap and to move DOWN).
//
// All generated instances are ties-free by construction (KPartiteInstance
// stores strict total orders). The adversarial distribution plants the
// Theorem 1 pariah/cycle neighborhoods (gen::theorem1_adversarial); skewed
// draws correlated popularity preferences — the regime where engines take
// their longest proposal chains.
#pragma once

#include <cstdint>
#include <optional>
#include <string_view>

#include "prefs/kpartite.hpp"
#include "util/rng.hpp"

namespace kstable::verify {

/// Which differential battery a generated instance runs through.
enum class Shape {
  bipartite,  ///< k = 2: GS engines + fair-SMP cross-checks + binding
  kpartite,   ///< k >= 3: full binding/sweep/cache/ladder battery
  roommates,  ///< linearized roommates derivations of a k-partite draw
};

/// Preference-list distribution knob.
enum class Dist {
  uniform,      ///< independent uniform permutations
  master,       ///< one shared order per (observer, target) gender pair
  skewed,       ///< popularity-correlated lists (score + personal noise)
  adversarial,  ///< Theorem-1 pariah/cycle neighborhoods (k >= 3)
  mixed,        ///< draw one of the above per seed
};

[[nodiscard]] const char* to_string(Shape shape) noexcept;
[[nodiscard]] const char* to_string(Dist dist) noexcept;
std::optional<Shape> parse_shape(std::string_view text);
std::optional<Dist> parse_dist(std::string_view text);

/// Each seed draws k in [3, 5] and n in [2, 8]. Kept small on purpose: the
/// certificate checker is exponential in k and the shrinker works best when
/// the starting point is already modest. bipartite pins k = 2.
struct GenOptions {
  Shape shape = Shape::kpartite;
  Dist dist = Dist::mixed;
};

/// One drawn instance: the k-partite preference system every engine pair
/// runs on (the roommates battery derives its instances from it via the
/// adapter linearizations), plus the provenance a mismatch report needs.
struct GeneratedInstance {
  KPartiteInstance instance;
  Shape shape = Shape::kpartite;
  Dist dist = Dist::uniform;  ///< concrete distribution drawn (never mixed)
  std::uint64_t seed = 0;
};

/// Draws the instance for `seed` under `options`. Deterministic: equal
/// (options, seed) always yields an identical instance.
GeneratedInstance generate(const GenOptions& options, std::uint64_t seed);

}  // namespace kstable::verify
