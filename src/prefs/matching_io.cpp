#include "prefs/matching_io.hpp"

#include <sstream>
#include <string_view>
#include <vector>

#include "resilience/errors.hpp"
#include "resilience/fault_injection.hpp"
#include "util/check.hpp"
#include "util/scan.hpp"

namespace kstable::io {

namespace {

void read_header(util::LineReader& lines, std::string_view magic, Gender& k,
                 Index& n) {
  {
    const auto header = lines.next();
    KSTABLE_PARSE_REQUIRE(header.has_value(), "empty matching stream");
    util::TokenScanner hs(*header);
    KSTABLE_PARSE_REQUIRE(hs.expect(magic) && hs.expect("v1") && hs.at_end(),
                          "bad header '" << *header << "'");
  }
  const auto dims = lines.next();
  KSTABLE_PARSE_REQUIRE(dims.has_value(), "missing dimensions line");
  util::TokenScanner ds(*dims);
  const auto k_read = ds.integer<Gender>();
  const auto n_read = ds.integer<Index>();
  KSTABLE_PARSE_REQUIRE(k_read && n_read && ds.at_end() && *k_read >= 2 &&
                            *n_read >= 1,
                        "bad dimensions line '" << *dims << "'");
  k = *k_read;
  n = *n_read;
}

KaryMatching parse_kary(util::LineReader& lines) {
  KSTABLE_FAULT_POINT("io/load");
  Gender k = 0;
  Index n = 0;
  read_header(lines, "kstable-kary", k, n);
  std::vector<Index> families(
      static_cast<std::size_t>(k) * static_cast<std::size_t>(n), Index{-1});
  std::vector<bool> seen(static_cast<std::size_t>(n), false);
  while (const auto line = lines.next()) {
    util::TokenScanner ls(*line);
    const bool tag_ok = ls.expect("family");
    const auto t_read = ls.integer<Index>();
    KSTABLE_PARSE_REQUIRE(tag_ok && t_read && ls.expect(":"),
                          "bad family line '" << *line << "'");
    const Index t = *t_read;
    KSTABLE_PARSE_REQUIRE(t >= 0 && t < n, "family index " << t << " out of range");
    KSTABLE_PARSE_REQUIRE(!seen[static_cast<std::size_t>(t)],
                    "duplicate family " << t);
    seen[static_cast<std::size_t>(t)] = true;
    for (Gender g = 0; g < k; ++g) {
      const auto idx = ls.integer<Index>();
      KSTABLE_PARSE_REQUIRE(idx.has_value(),
                            "family " << t << " has too few members");
      families[static_cast<std::size_t>(t) * static_cast<std::size_t>(k) +
               static_cast<std::size_t>(g)] = *idx;
    }
    KSTABLE_PARSE_REQUIRE(ls.at_end(), "family " << t
                                           << " has trailing tokens on line '"
                                           << *line << "'");
  }
  for (Index t = 0; t < n; ++t) {
    KSTABLE_PARSE_REQUIRE(seen[static_cast<std::size_t>(t)], "missing family " << t);
  }
  try {
    return KaryMatching(k, n, std::move(families));
  } catch (const ContractViolation& e) {
    throw ParseError("parse error: " + e.reason());
  }
}

BinaryMatchingKP parse_binary(util::LineReader& lines) {
  KSTABLE_FAULT_POINT("io/load");
  Gender k = 0;
  Index n = 0;
  read_header(lines, "kstable-binary", k, n);
  const auto total = static_cast<std::size_t>(k) * static_cast<std::size_t>(n);
  std::vector<std::int32_t> partner(total, -1);
  while (const auto line = lines.next()) {
    util::TokenScanner ls(*line);
    const bool tag_ok = ls.expect("pair");
    const auto a_read = ls.integer<std::int32_t>();
    const auto b_read = ls.integer<std::int32_t>();
    KSTABLE_PARSE_REQUIRE(tag_ok && a_read && b_read && ls.at_end(),
                          "bad pair line '" << *line << "'");
    const std::int32_t a = *a_read;
    const std::int32_t b = *b_read;
    KSTABLE_PARSE_REQUIRE(a >= 0 && b >= 0 &&
                              a < static_cast<std::int32_t>(total) &&
                              b < static_cast<std::int32_t>(total),
                          "pair (" << a << ',' << b << ") out of range");
    KSTABLE_PARSE_REQUIRE(partner[static_cast<std::size_t>(a)] == -1 &&
                              partner[static_cast<std::size_t>(b)] == -1,
                          "member in two pairs on line '" << *line << "'");
    partner[static_cast<std::size_t>(a)] = b;
    partner[static_cast<std::size_t>(b)] = a;
  }
  try {
    return BinaryMatchingKP(k, n, std::move(partner));
  } catch (const ContractViolation& e) {
    throw ParseError("parse error: " + e.reason());
  }
}

}  // namespace

void save(const KaryMatching& matching, std::ostream& os) {
  os << "kstable-kary v1\n"
     << matching.genders() << ' ' << matching.per_gender() << '\n';
  for (Index t = 0; t < matching.family_count(); ++t) {
    os << "family " << t << " :";
    for (Gender g = 0; g < matching.genders(); ++g) {
      os << ' ' << matching.member_at(t, g).index;
    }
    os << '\n';
  }
}

KaryMatching load_kary(std::istream& is) {
  util::LineReader lines(is);
  return parse_kary(lines);
}

std::string to_string(const KaryMatching& matching) {
  std::ostringstream os;
  save(matching, os);
  return os.str();
}

KaryMatching kary_from_string(std::string_view text) {
  util::LineReader lines(text);
  return parse_kary(lines);
}

void save(const BinaryMatchingKP& matching, std::ostream& os) {
  os << "kstable-binary v1\n"
     << matching.genders() << ' ' << matching.per_gender() << '\n';
  const auto& raw = matching.raw();
  for (std::size_t f = 0; f < raw.size(); ++f) {
    if (raw[f] > static_cast<std::int32_t>(f)) {
      os << "pair " << f << ' ' << raw[f] << '\n';
    }
  }
}

BinaryMatchingKP load_binary(std::istream& is) {
  util::LineReader lines(is);
  return parse_binary(lines);
}

std::string to_string(const BinaryMatchingKP& matching) {
  std::ostringstream os;
  save(matching, os);
  return os.str();
}

BinaryMatchingKP binary_from_string(std::string_view text) {
  util::LineReader lines(text);
  return parse_binary(lines);
}

}  // namespace kstable::io
