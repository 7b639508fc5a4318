#include "observability/telemetry.hpp"

#include <algorithm>
#include <ostream>
#include <sstream>
#include <string_view>

#include "observability/metrics.hpp"
#include "util/check.hpp"
#include "util/json.hpp"

namespace kstable::obs {

void SolveTelemetry::write_json(std::ostream& os) const {
  os << "{\"engine\":\"" << engine << "\",\"genders\":" << genders
     << ",\"size\":" << size << ",\"wall_ms\":" << wall_ms << ",\"phases\":{";
  for (int p = 0; p < phase_count; ++p) {
    if (p != 0) os << ',';
    os << '"' << phases[p].name << "\":" << phases[p].ms;
  }
  os << "},\"status\":{\"outcome\":\"" << to_string(status.outcome)
     << "\",\"abort_reason\":\"" << kstable::to_string(status.abort_reason)
     << "\",\"detail\":";
  util::write_json_string(os, status.detail);  // may carry anything
  os << "},\"proposals\":" << proposals
     << ",\"executed_proposals\":" << executed_proposals
     << ",\"cache_hits\":" << cache_hits
     << ",\"cache_misses\":" << cache_misses << ",\"rounds\":" << rounds
     << ",\"attempts\":" << attempts << ",\"rung\":" << rung
     << ",\"deadline_margin_ms\":" << deadline_margin_ms << '}';
}

std::string SolveTelemetry::to_json() const {
  std::ostringstream os;
  write_json(os);
  return os.str();
}

void SolveTelemetry::write_prometheus(std::ostream& os) const {
  const auto sample = [&](const char* name, auto value) {
    os << "kstable_solve_" << name << "{engine=\"" << engine << "\"} " << value
       << '\n';
  };
  sample("wall_ms", wall_ms);
  sample("proposals", proposals);
  sample("executed_proposals", executed_proposals);
  sample("cache_hits", cache_hits);
  sample("cache_misses", cache_misses);
  sample("rounds", rounds);
  sample("attempts", attempts);
  sample("ok", status.ok() ? 1 : 0);
  sample("deadline_margin_ms", deadline_margin_ms);
}

std::string SolveTelemetry::to_prometheus() const {
  std::ostringstream os;
  write_prometheus(os);
  return os.str();
}

void record(const SolveTelemetry& t) {
  auto& registry = MetricsRegistry::global();
  // Names are looked up once per solve (not per proposal); the registry's
  // lock is noise next to any GS run. "solve.<engine>." is built once in a
  // stack buffer and each series appends its field: the registry's map
  // compares with std::less<>, so a string_view finds an existing series and
  // after a label's first record nothing allocates. A label too long for the
  // buffer is a contract violation, never a truncated name.
  constexpr std::string_view kPrefix = "solve.";
  constexpr std::size_t kLongestField =
      std::string_view("executed_proposals").size();
  const std::string_view engine = t.engine;
  char buffer[64];
  KSTABLE_REQUIRE(
      kPrefix.size() + engine.size() + 1 + kLongestField <= sizeof(buffer),
      "engine label '" << engine << "' is too long for a "
                       << "solve.<engine>.<field> metric name");
  char* stem = std::copy(kPrefix.begin(), kPrefix.end(), buffer);
  stem = std::copy(engine.begin(), engine.end(), stem);
  *stem++ = '.';
  const auto name = [&](std::string_view field) {
    KSTABLE_ASSERT(field.size() <= kLongestField);
    char* const end = std::copy(field.begin(), field.end(), stem);
    return std::string_view(buffer, static_cast<std::size_t>(end - buffer));
  };
  registry.counter(name("count")).add(1);
  registry.counter(name("proposals")).add(t.proposals);
  registry.histogram(name("wall_us")).observe_ms(t.wall_ms);
  if (t.executed_proposals != 0) {
    registry.counter(name("executed_proposals")).add(t.executed_proposals);
  }
  // Cache hit/miss totals are bumped by GsEdgeCache itself (the authoritative
  // count, covering aborted attempts too); the per-record fields are only
  // exported, not re-aggregated, to avoid double counting.
  if (t.rounds != 0) registry.counter(name("rounds")).add(t.rounds);
  switch (t.status.outcome) {
    case resilience::SolveOutcome::ok:
      registry.counter("solve.outcome.ok").add(1);
      break;
    case resilience::SolveOutcome::aborted:
      registry.counter("solve.outcome.aborted").add(1);
      break;
    case resilience::SolveOutcome::no_stable:
      registry.counter("solve.outcome.no_stable").add(1);
      break;
  }
  if (t.rung >= 0) {
    registry.gauge("ladder.last_rung").set(t.rung);
    registry.counter("ladder.attempts").add(t.attempts);
  }
  if (t.deadline_margin_ms > 0.0) {
    registry.gauge("deadline.margin_us").set_ms(t.deadline_margin_ms);
  }
}

}  // namespace kstable::obs
