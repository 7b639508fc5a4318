#include "prefs/io.hpp"

#include <fstream>
#include <sstream>
#include <string_view>
#include <vector>

#include "resilience/errors.hpp"
#include "resilience/fault_injection.hpp"
#include "util/check.hpp"
#include "util/scan.hpp"

namespace kstable::io {

namespace {

constexpr std::string_view kMagic = "kstable-kpartite";
constexpr std::string_view kVersion = "v1";

/// The one v1 parser behind load() and from_string().
KPartiteInstance parse(util::LineReader& lines) {
  KSTABLE_FAULT_POINT("io/load");
  {
    const auto header = lines.next();
    KSTABLE_PARSE_REQUIRE(header.has_value(), "empty instance stream");
    util::TokenScanner hs(*header);
    KSTABLE_PARSE_REQUIRE(hs.expect(kMagic) && hs.expect(kVersion) &&
                              hs.at_end(),
                          "bad header '" << *header << "'");
  }
  Gender k = 0;
  Index n = 0;
  {
    const auto dims = lines.next();
    KSTABLE_PARSE_REQUIRE(dims.has_value(), "missing dimensions line");
    util::TokenScanner ds(*dims);
    const auto k_read = ds.integer<Gender>();
    const auto n_read = ds.integer<Index>();
    KSTABLE_PARSE_REQUIRE(k_read && n_read && ds.at_end(),
                          "bad dimensions line '" << *dims << "'");
    k = *k_read;
    n = *n_read;
    KSTABLE_PARSE_REQUIRE(k >= 2 && n >= 1,
                          "dimensions out of range: k=" << k << " n=" << n);
  }
  KPartiteInstance inst = [&] {
    try {
      return KPartiteInstance(k, n);
    } catch (const std::bad_alloc&) {
      throw ParseError("parse error: instance dimensions too large");
    }
  }();
  const std::size_t expected_lists = static_cast<std::size_t>(k) *
                                     static_cast<std::size_t>(n) *
                                     static_cast<std::size_t>(k - 1);
  // One slot per (observer member, target gender): duplicates are rejected
  // outright instead of trusting the final count (a duplicate plus a missing
  // line would otherwise pass the seen == expected_lists check).
  std::vector<bool> filled(expected_lists, false);
  std::vector<Index> order;
  order.reserve(static_cast<std::size_t>(n));
  std::size_t seen = 0;
  while (const auto line = lines.next()) {
    util::TokenScanner ls(*line);
    const bool tag_ok = ls.expect("pref");
    const auto g_read = ls.integer<Gender>();
    const auto i_read = ls.integer<Index>();
    const auto h_read = ls.integer<Gender>();
    KSTABLE_PARSE_REQUIRE(tag_ok && g_read && i_read && h_read &&
                              ls.expect(":"),
                          "bad pref line '" << *line << "'");
    const Gender g = *g_read;
    const Index i = *i_read;
    const Gender h = *h_read;
    // Bounds-check before indexing anything with g/i/h.
    KSTABLE_PARSE_REQUIRE(g >= 0 && g < k, "gender " << g
                              << " out of range on line '" << *line << "'");
    KSTABLE_PARSE_REQUIRE(i >= 0 && i < n, "member " << i
                              << " out of range on line '" << *line << "'");
    KSTABLE_PARSE_REQUIRE(h >= 0 && h < k && h != g,
                          "target gender " << h << " invalid on line '"
                                           << *line << "'");
    const std::size_t slot =
        (static_cast<std::size_t>(g) * static_cast<std::size_t>(n) +
         static_cast<std::size_t>(i)) *
            static_cast<std::size_t>(k - 1) +
        static_cast<std::size_t>(h < g ? h : h - 1);
    KSTABLE_PARSE_REQUIRE(!filled[slot], "duplicate pref line for member ("
                                             << g << ',' << i
                                             << ") over gender " << h);
    filled[slot] = true;
    order.clear();
    while (!ls.at_end()) {
      const auto idx = ls.integer<Index>();
      KSTABLE_PARSE_REQUIRE(idx.has_value(), "bad preference entry '"
                                                 << *ls.token()
                                                 << "' on line '" << *line
                                                 << "'");
      order.push_back(*idx);
    }
    try {
      inst.set_pref_list({g, i}, h, order);
    } catch (const ContractViolation& e) {
      // Non-permutation list: malformed input, not a programming error.
      throw ParseError(std::string("parse error: ") + e.what());
    }
    ++seen;
  }
  // filled[] admits each row once and set_pref_list wrote each one as a
  // permutation together with its rank row, so once every row has arrived
  // the instance is complete (validate() would pass).
  KSTABLE_PARSE_REQUIRE(seen == expected_lists,
                        "instance has " << seen << " pref lines, expected "
                                        << expected_lists);
  return inst;
}

}  // namespace

void save(const KPartiteInstance& inst, std::ostream& os) {
  os << kMagic << ' ' << kVersion << '\n';
  os << inst.genders() << ' ' << inst.per_gender() << '\n';
  for (Gender g = 0; g < inst.genders(); ++g) {
    for (Index i = 0; i < inst.per_gender(); ++i) {
      for (Gender h = 0; h < inst.genders(); ++h) {
        if (h == g) continue;
        os << "pref " << g << ' ' << i << ' ' << h << " :";
        for (Index idx : inst.pref_list({g, i}, h)) os << ' ' << idx;
        os << '\n';
      }
    }
  }
}

KPartiteInstance load(std::istream& is) {
  util::LineReader lines(is);
  return parse(lines);
}

void save_file(const KPartiteInstance& inst, const std::string& path) {
  std::ofstream os(path);
  KSTABLE_REQUIRE(os.good(), "cannot open '" << path << "' for writing");
  save(inst, os);
  KSTABLE_REQUIRE(os.good(), "write to '" << path << "' failed");
}

KPartiteInstance load_file(const std::string& path) {
  std::ifstream is(path);
  KSTABLE_REQUIRE(is.good(), "cannot open '" << path << "' for reading");
  return load(is);
}

std::string to_string(const KPartiteInstance& inst) {
  std::ostringstream os;
  save(inst, os);
  return os.str();
}

KPartiteInstance from_string(std::string_view text) {
  util::LineReader lines(text);
  return parse(lines);
}

}  // namespace kstable::io
