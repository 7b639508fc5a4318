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
// The bijection is a 4-round Feistel network over the domain 2^b, with
// *cycle walking* to restrict it to [0, n): values that land outside [0, n)
// are re-encrypted until they fall inside. b = ceil(log2 n), at least 2. The
// network splits b bits into a high half of floor(b/2) and a low half of
// ceil(b/2) bits, and its rounds alternate output widths (an unbalanced
// alternating Feistel network, Schneier–Kelsey, FSE 1996), so an odd b
// needs no rounding up and the domain is < 2n for every n > 512. Below
// b = 10 an odd b is raised to b + 1, where the domain stays < 4n: four
// rounds over unequal halves of 1 to 4 bits are visibly non-uniform
// (docs/PERFORMANCE.md §Small-n bias). For even b the network is the
// balanced one. Because the network permutes the whole domain, the walk
// terminates, after at most 2^b/n passes on average. Both directions walk,
// so forward and inverse stay exact mutual inverses on [0, n).
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

/// Feistel geometry shared by every row of one instance: the domain 2^b is
/// split into a high half of u = floor(b/2) bits and a low half of
/// v = ceil(b/2) bits.
struct FeistelGeometry {
  std::uint32_t low_bits = 1;   ///< v
  std::uint32_t high_mask = 1;  ///< (1 << u) - 1: even rounds' output width
  std::uint32_t low_mask = 1;   ///< (1 << v) - 1: odd rounds' output width
  Index n = 0;                  ///< permutation size (walk target)
};

/// Geometry for permutations of [0, n). Requires n >= 1; b >= 2 always, so
/// the network has real halves even for tiny n (the walk absorbs the slack).
[[nodiscard]] constexpr FeistelGeometry feistel_geometry(Index n) noexcept {
  std::uint32_t b = 2;
  // Smallest b with 2^b >= n; n <= 2^31 so b <= 31 and the loop is bounded.
  while ((std::uint64_t{1} << b) < static_cast<std::uint64_t>(n)) ++b;
  // Odd widths below 10 are raised (see the file comment).
  if (b % 2 == 1 && b < 10) ++b;
  FeistelGeometry g;
  g.n = n;
  g.low_bits = b - b / 2;
  g.high_mask = (std::uint32_t{1} << (b / 2)) - 1;
  g.low_mask = (std::uint32_t{1} << g.low_bits) - 1;
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

/// Round function: keyed mix of one half, truncated to `mask`. Any good
/// 64-bit mixer works — only the bijection structure needs to be exact.
[[nodiscard]] constexpr std::uint32_t feistel_round(
    std::uint32_t half, std::uint64_t key, std::uint32_t mask) noexcept {
  return static_cast<std::uint32_t>(mix64(key ^ half)) & mask;
}

/// One encryption pass over the full domain [0, 2^b). The state is a pair
/// (left, right) that starts as (high half, low half); each round replaces
/// it with (right, left ^ F(right)), so the new right half has left's width.
/// That width alternates u, v, u, v, and after the fourth round the pair is
/// back to (u bits, v bits).
[[nodiscard]] constexpr std::uint32_t feistel_encrypt(
    const FeistelGeometry& g, const RowKeys& keys, std::uint32_t x) noexcept {
  std::uint32_t left = x >> g.low_bits;
  std::uint32_t right = x & g.low_mask;
  for (int r = 0; r < 4; ++r) {
    const std::uint32_t mask = r % 2 == 0 ? g.high_mask : g.low_mask;
    const std::uint32_t next = left ^ feistel_round(right, keys.k[r], mask);
    left = right;
    right = next;
  }
  return (left << g.low_bits) | right;
}

/// One decryption pass (exact inverse of feistel_encrypt).
[[nodiscard]] constexpr std::uint32_t feistel_decrypt(
    const FeistelGeometry& g, const RowKeys& keys, std::uint32_t y) noexcept {
  std::uint32_t left = y >> g.low_bits;
  std::uint32_t right = y & g.low_mask;
  for (int r = 3; r >= 0; --r) {
    const std::uint32_t mask = r % 2 == 0 ? g.high_mask : g.low_mask;
    const std::uint32_t prev = right ^ feistel_round(left, keys.k[r], mask);
    right = left;
    left = prev;
  }
  return (left << g.low_bits) | right;
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
