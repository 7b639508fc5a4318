#include "verify/instance_gen.hpp"

#include "prefs/generators.hpp"

namespace kstable::verify {

namespace {

/// Per-seed size bounds (see GenOptions).
constexpr std::int64_t kMinGenders = 3;
constexpr std::int64_t kMaxGenders = 5;
constexpr std::int64_t kMinSize = 2;
constexpr std::int64_t kMaxSize = 8;

}  // namespace

const char* to_string(Shape shape) noexcept {
  switch (shape) {
    case Shape::bipartite: return "bipartite";
    case Shape::kpartite: return "kpartite";
    case Shape::roommates: return "roommates";
  }
  return "unknown";
}

const char* to_string(Dist dist) noexcept {
  switch (dist) {
    case Dist::uniform: return "uniform";
    case Dist::master: return "master";
    case Dist::skewed: return "skewed";
    case Dist::adversarial: return "adversarial";
    case Dist::mixed: return "mixed";
  }
  return "unknown";
}

std::optional<Shape> parse_shape(std::string_view text) {
  if (text == "bipartite") return Shape::bipartite;
  if (text == "kpartite") return Shape::kpartite;
  if (text == "roommates") return Shape::roommates;
  return std::nullopt;
}

std::optional<Dist> parse_dist(std::string_view text) {
  if (text == "uniform") return Dist::uniform;
  if (text == "master") return Dist::master;
  if (text == "skewed") return Dist::skewed;
  if (text == "adversarial") return Dist::adversarial;
  if (text == "mixed") return Dist::mixed;
  return std::nullopt;
}

GeneratedInstance generate(const GenOptions& options, std::uint64_t seed) {
  // Mix the seed with the shape so the three shape streams of one base seed
  // do not draw identical size/distribution sequences.
  std::uint64_t sm = seed ^ (0x9e3779b97f4a7c15ULL *
                             (static_cast<std::uint64_t>(options.shape) + 1));
  Rng rng(splitmix64(sm));

  const bool bip = options.shape == Shape::bipartite;
  const Gender k =
      bip ? 2 : static_cast<Gender>(rng.range(kMinGenders, kMaxGenders));
  const Index n = static_cast<Index>(rng.range(kMinSize, kMaxSize));

  Dist dist = options.dist;
  if (dist == Dist::mixed) {
    switch (rng.below(4)) {
      case 0: dist = Dist::uniform; break;
      case 1: dist = Dist::master; break;
      case 2: dist = Dist::skewed; break;
      default: dist = Dist::adversarial; break;
    }
  }
  // The Theorem-1 construction needs k > 2; for bipartite draws degrade to
  // the most degenerate strict distribution instead (master lists are the
  // extremal bipartite case: a unique stable matching, n(n+1)/2 proposals).
  if (dist == Dist::adversarial && k <= 2) dist = Dist::master;

  auto build = [&]() -> KPartiteInstance {
    switch (dist) {
      case Dist::uniform: return gen::uniform(k, n, rng);
      case Dist::master: return gen::master_list(k, n, rng);
      case Dist::skewed: {
        const double noise = 0.05 + rng.uniform01() * 0.5;
        return gen::popularity(k, n, rng, noise);
      }
      case Dist::adversarial: {
        const auto pariah = static_cast<Gender>(rng.below(
            static_cast<std::uint64_t>(k)));
        return gen::theorem1_adversarial(k, n, rng, pariah);
      }
      case Dist::mixed: break;  // resolved above
    }
    return gen::uniform(k, n, rng);
  };

  return GeneratedInstance{build(), options.shape, dist, seed};
}

}  // namespace kstable::verify
