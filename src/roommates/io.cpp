#include "roommates/io.hpp"

#include <fstream>
#include <sstream>
#include <string_view>
#include <vector>

#include "resilience/errors.hpp"
#include "resilience/fault_injection.hpp"
#include "util/check.hpp"
#include "util/scan.hpp"

namespace kstable::rm::io {

namespace {

constexpr std::string_view kMagic = "kstable-roommates";
constexpr std::string_view kVersion = "v1";

RoommatesInstance parse(util::LineReader& lines) {
  KSTABLE_FAULT_POINT("io/load");
  {
    const auto header = lines.next();
    KSTABLE_PARSE_REQUIRE(header.has_value(), "empty roommates stream");
    util::TokenScanner hs(*header);
    KSTABLE_PARSE_REQUIRE(hs.expect(kMagic) && hs.expect(kVersion) &&
                              hs.at_end(),
                          "bad header '" << *header << "'");
  }
  Person n = 0;
  {
    const auto dims = lines.next();
    KSTABLE_PARSE_REQUIRE(dims.has_value(), "missing size line");
    util::TokenScanner ds(*dims);
    const auto n_read = ds.integer<Person>();
    KSTABLE_PARSE_REQUIRE(n_read && ds.at_end() && *n_read >= 1,
                          "bad size line '" << *dims << "'");
    n = *n_read;
  }
  std::vector<std::vector<Person>> lists(static_cast<std::size_t>(n));
  std::vector<bool> seen(static_cast<std::size_t>(n), false);
  while (const auto line = lines.next()) {
    util::TokenScanner ls(*line);
    const bool tag_ok = ls.expect("list");
    const auto p_read = ls.integer<Person>();
    KSTABLE_PARSE_REQUIRE(tag_ok && p_read && ls.expect(":"),
                          "bad list line '" << *line << "'");
    const Person p = *p_read;
    KSTABLE_PARSE_REQUIRE(p >= 0 && p < n, "person " << p << " out of range");
    KSTABLE_PARSE_REQUIRE(!seen[static_cast<std::size_t>(p)],
                    "duplicate list for person " << p);
    seen[static_cast<std::size_t>(p)] = true;
    const bool list_read = ls.integers(lists[static_cast<std::size_t>(p)]);
    KSTABLE_PARSE_REQUIRE(list_read, "bad list entry '"
                                         << *ls.token() << "' on line '"
                                         << *line << "'");
  }
  for (Person p = 0; p < n; ++p) {
    KSTABLE_PARSE_REQUIRE(seen[static_cast<std::size_t>(p)],
                    "missing list for person " << p);
  }
  try {
    return RoommatesInstance(std::move(lists));
  } catch (const ContractViolation& e) {
    // Constructor validation failure (bad entry, self-reference, duplicate):
    // malformed input, not a programming error.
    throw ParseError("parse error: " + e.reason());
  }
}

}  // namespace

void save(const RoommatesInstance& inst, std::ostream& os) {
  os << kMagic << ' ' << kVersion << '\n' << inst.size() << '\n';
  for (Person p = 0; p < inst.size(); ++p) {
    os << "list " << p << " :";
    for (const Person q : inst.list(p)) os << ' ' << q;
    os << '\n';
  }
}

RoommatesInstance load(std::istream& is) {
  util::LineReader lines(is);
  return parse(lines);
}

void save_file(const RoommatesInstance& inst, const std::string& path) {
  std::ofstream os(path);
  KSTABLE_REQUIRE(os.good(), "cannot open '" << path << "' for writing");
  save(inst, os);
  KSTABLE_REQUIRE(os.good(), "write to '" << path << "' failed");
}

RoommatesInstance load_file(const std::string& path) {
  std::ifstream is(path);
  KSTABLE_REQUIRE(is.good(), "cannot open '" << path << "' for reading");
  return load(is);
}

std::string to_string(const RoommatesInstance& inst) {
  std::ostringstream os;
  save(inst, os);
  return os.str();
}

RoommatesInstance from_string(std::string_view text) {
  util::LineReader lines(text);
  return parse(lines);
}

}  // namespace kstable::rm::io
