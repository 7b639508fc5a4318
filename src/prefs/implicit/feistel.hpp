// Seeded pseudorandom permutations over [0, n) via a cycle-walking Feistel
// network — the primitive behind the implicit preference backend
// (docs/PERFORMANCE.md §Implicit preferences).
//
// A uniform-random preference list is a permutation of [0, n); storing it
// costs O(n) per row and O(k·(k-1)·n²) per instance — ~100 GB at n = 10^5.
// A keyed bijection gives the same list without storing it:
//
//   pref(m, g, r)  = forward(keys(m, g), r)   — the r-th choice, O(1)
//   rank(m, g, t)  = inverse(keys(m, g), t)   — rank of member t, O(1)
//
// The bijection is a 4-round balanced Feistel network over the smallest even
// power-of-two domain 2^(2w) >= n, with *cycle walking* to restrict it to
// [0, n): values that land outside [0, n) are re-encrypted until they fall
// inside. Because the network permutes the whole domain and the domain is
// less than 4n (minimality of w), the walk terminates and takes < 4 steps in
// expectation. Both directions walk, so forward and inverse stay exact
// mutual inverses on [0, n).
//
// Per-row round keys are derived from (master seed, flat row id) through
// splitmix64 chains (util/rng.hpp) — no state beyond the 64-bit seed, and
// distinct rows get independent permutations. This is a statistical PRP
// (instance generation), not a cryptographic one.
#pragma once

#include <cstdint>

#include "prefs/ids.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace kstable::prefs::imp {

/// splitmix64's finalizer as a standalone 64-bit mixer (stateless flavor of
/// util/rng.hpp's splitmix64 step), used by the Feistel round function.
[[nodiscard]] constexpr std::uint64_t mix64(std::uint64_t z) noexcept {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// Feistel geometry shared by every row of one instance: half-width w such
/// that the domain 2^(2w) is the smallest even power of two covering n.
struct FeistelGeometry {
  std::uint32_t half_bits = 1;   ///< w
  std::uint32_t half_mask = 1;   ///< (1 << w) - 1
  Index n = 0;                   ///< permutation size (walk target)
};

/// Geometry for permutations of [0, n). Requires n >= 1; w >= 1 always, so
/// the network has real halves even for tiny n (the walk absorbs the slack).
[[nodiscard]] constexpr FeistelGeometry feistel_geometry(Index n) noexcept {
  FeistelGeometry g;
  g.n = n;
  std::uint32_t w = 1;
  // Smallest w with 4^w >= n; n <= 2^31 so w <= 16 and the loop is bounded.
  while ((std::uint64_t{1} << (2 * w)) < static_cast<std::uint64_t>(n)) ++w;
  g.half_bits = w;
  g.half_mask = static_cast<std::uint32_t>((std::uint64_t{1} << w) - 1);
  return g;
}

/// Round keys of one row's permutation (one per Feistel round).
struct RowKeys {
  std::uint64_t k[4] = {0, 0, 0, 0};
};

/// Derives one row's keys from the instance seed and the row's flat id (the
/// same flat row index KPartiteInstance::row_base uses), via a splitmix64
/// chain so rows with adjacent ids still get decorrelated keys.
[[nodiscard]] constexpr RowKeys derive_row_keys(std::uint64_t seed,
                                                std::uint64_t row) noexcept {
  std::uint64_t state =
      mix64(seed ^ 0x6a09e667f3bcc909ULL) ^
      mix64(row * 0x9e3779b97f4a7c15ULL + 0xbb67ae8584caa73bULL);
  RowKeys keys;
  for (auto& k : keys.k) k = splitmix64(state);
  return keys;
}

/// Round function: keyed mix of one half, truncated to w bits. Any good
/// 64-bit mixer works — only the bijection structure needs to be exact.
[[nodiscard]] constexpr std::uint32_t feistel_round(
    std::uint32_t half, std::uint64_t key,
    const FeistelGeometry& g) noexcept {
  return static_cast<std::uint32_t>(mix64(key ^ half)) & g.half_mask;
}

/// One encryption pass over the full domain [0, 2^(2w)).
[[nodiscard]] constexpr std::uint32_t feistel_encrypt(
    const FeistelGeometry& g, const RowKeys& keys, std::uint32_t x) noexcept {
  std::uint32_t left = x >> g.half_bits;
  std::uint32_t right = x & g.half_mask;
  for (const std::uint64_t key : keys.k) {
    const std::uint32_t next = left ^ feistel_round(right, key, g);
    left = right;
    right = next;
  }
  return (left << g.half_bits) | right;
}

/// One decryption pass (exact inverse of feistel_encrypt).
[[nodiscard]] constexpr std::uint32_t feistel_decrypt(
    const FeistelGeometry& g, const RowKeys& keys, std::uint32_t y) noexcept {
  std::uint32_t left = y >> g.half_bits;
  std::uint32_t right = y & g.half_mask;
  for (int r = 3; r >= 0; --r) {
    const std::uint32_t prev = right ^ feistel_round(left, keys.k[r], g);
    right = left;
    left = prev;
  }
  return (left << g.half_bits) | right;
}

/// forward(x) for x in [0, n): the permutation value, cycle-walked back into
/// [0, n). Terminates because the network permutes the finite domain and the
/// cycle through x re-enters [0, n) at the latest back at x itself.
[[nodiscard]] constexpr Index prp_forward(const FeistelGeometry& g,
                                          const RowKeys& keys,
                                          Index x) noexcept {
  std::uint32_t v = static_cast<std::uint32_t>(x);
  do {
    v = feistel_encrypt(g, keys, v);
  } while (v >= static_cast<std::uint32_t>(g.n));
  return static_cast<Index>(v);
}

/// inverse(y) for y in [0, n): prp_forward's exact inverse (walks the same
/// cycle in the opposite direction).
[[nodiscard]] constexpr Index prp_inverse(const FeistelGeometry& g,
                                          const RowKeys& keys,
                                          Index y) noexcept {
  std::uint32_t v = static_cast<std::uint32_t>(y);
  do {
    v = feistel_decrypt(g, keys, v);
  } while (v >= static_cast<std::uint32_t>(g.n));
  return static_cast<Index>(v);
}

/// The two results of prp_forward_inverse.
struct ForwardInverse {
  Index forward;  ///< prp_forward(g, forward_keys, x)
  Index inverse;  ///< prp_inverse(g, inverse_keys, y)
};

/// prp_forward on one row and prp_inverse on another, walked in lockstep:
/// each pass runs one encryption and one decryption as two independent
/// dependency chains, and a walk that has already landed in [0, n) keeps
/// its value through a select rather than a branch. The pair costs
/// max(walk lengths) passes of overlapped latency instead of their sum, and
/// returns exactly what the two separate walks return.
[[nodiscard]] constexpr ForwardInverse prp_forward_inverse(
    const FeistelGeometry& g, const RowKeys& forward_keys, Index x,
    const RowKeys& inverse_keys, Index y) noexcept {
  const auto n = static_cast<std::uint32_t>(g.n);
  std::uint32_t a = feistel_encrypt(g, forward_keys,
                                    static_cast<std::uint32_t>(x));
  std::uint32_t b = feistel_decrypt(g, inverse_keys,
                                    static_cast<std::uint32_t>(y));
  while ((a >= n) | (b >= n)) {
    const std::uint32_t a_next = feistel_encrypt(g, forward_keys, a);
    const std::uint32_t b_next = feistel_decrypt(g, inverse_keys, b);
    a = a >= n ? a_next : a;
    b = b >= n ? b_next : b;
  }
  return {static_cast<Index>(a), static_cast<Index>(b)};
}

}  // namespace kstable::prefs::imp
