#!/usr/bin/env bash
# Metric-name parity between the code and its catalogue (run by CTest as
# `metric_names`).
#
# Usage: check_metric_names.sh <repo-root>
#
# An instrument name is a string literal under src/ passed to one of the
# KSTABLE_* instrumentation macros or to a registry's counter(), gauge() or
# histogram(); obs::record's per-driver series add one solve.<engine>.<field>
# name per field it passes to its name builder in telemetry.cpp. The names
# are documented as the rows of docs/OBSERVABILITY.md §Metric name table and
# docs/SERVE.md §Metrics, each name written out in full in backticks in the
# row's first cell: | `cache.hits`, `cache.misses` | counter | ...
# Fails when a name in the code has no row, when a row names something the
# code does not register, or when a name has more than one row. Then it
# checks that it can fail: the check must reject a copy of the docs with any
# one row deleted.
set -u
export LC_ALL=C

ROOT="$1"
OBS="$ROOT/docs/OBSERVABILITY.md"
SERVE="$ROOT/docs/SERVE.md"
name_re='[a-z0-9_<>]+(\.[a-z0-9_<>]+)+'
instrument_re='(KSTABLE_(COUNTER_ADD|GAUGE_SET(_MS)?|HISTOGRAM_OBSERVE(_MS)?)|\.(counter|gauge|histogram))\([[:space:]]*"[^"]*"'

tmp_obs="$(mktemp)"
tmp_serve="$(mktemp)"
trap 'rm -f "$tmp_obs" "$tmp_serve"' EXIT

# Every instrument name the code registers, one a line, sorted and unique.
code_names() {
  find "$ROOT/src" -name '*.cpp' -o -name '*.hpp' | sort | while read -r f; do
    tr '\n' ' ' < "$f" | grep -oE "$instrument_re" | sed -E 's/.*"([^"]*)"$/\1/'
  done
  grep -oE '\.(counter|gauge|histogram)\(name\("[a-z_]+"\)\)' \
    "$ROOT/src/observability/telemetry.cpp" \
    | sed -E 's/.*name\("([a-z_]+)"\).*/solve.<engine>.\1/'
}

# The table rows of section $2 in markdown file $1 whose first cell holds a
# backticked name.
section_rows() {
  awk -v want="$2" '/^## /{ in_section = ($0 == want) } in_section' "$1" \
    | grep -E '^\| `'
}

# Every name the rows of $1 (docs/OBSERVABILITY.md) and $2 (docs/SERVE.md)
# document, one a line per row that names it, sorted.
doc_names() {
  { section_rows "$1" "## Metric name table"; section_rows "$2" "## Metrics"; } \
    | awk -F'|' '{ print $2 }' | grep -oE "\`$name_re\`" | tr -d '`' | sort
}

code="$(code_names | sort -u)"

# Prints one FAIL line per catalogue problem in the docs pair $1 and $2.
table_failures() {
  local documented listed
  documented="$(doc_names "$1" "$2")"
  listed="$(printf '%s\n' "$documented" | grep -v '^$' | sort -u)"
  for missing in $(comm -23 <(printf '%s\n' "$code") <(printf '%s\n' "$listed")); do
    echo "FAIL: metric '$missing' has no row in docs/OBSERVABILITY.md or docs/SERVE.md"
  done
  for stale in $(comm -13 <(printf '%s\n' "$code") <(printf '%s\n' "$listed")); do
    echo "FAIL: the docs name the metric '$stale', which src/ does not register"
  done
  for dup in $(printf '%s\n' "$documented" | uniq -d); do
    echo "FAIL: the docs have more than one row for '$dup'"
  done
}

failures=""
if [ -z "$code" ]; then
  failures="FAIL: no instrument names found under src/"
fi
failures+=$'\n'"$(table_failures "$OBS" "$SERVE")"

# A check that passes with a row missing cannot catch a missing row.
rows="$(section_rows "$OBS" "## Metric name table"; section_rows "$SERVE" "## Metrics")"
if [ -z "$rows" ]; then
  failures+=$'\n'"FAIL: no metric rows found in the docs"
fi
while IFS= read -r row; do
  [ -n "$row" ] || continue
  grep -vxF -- "$row" "$OBS" > "$tmp_obs"
  grep -vxF -- "$row" "$SERVE" > "$tmp_serve"
  if [ -z "$(table_failures "$tmp_obs" "$tmp_serve")" ]; then
    failures+=$'\n'"FAIL: self-test: deleting the row '${row%% |*} |' does not fail the check"
  fi
done <<< "$rows"

failures="$(printf '%s\n' "$failures" | grep -v '^$')"
if [ -n "$failures" ]; then
  printf '%s\n' "$failures" >&2
  echo "check_metric_names: $(printf '%s\n' "$failures" | wc -l) failure(s)" >&2
  exit 1
fi
echo "check_metric_names: all $(printf '%s\n' "$code" | wc -l) metric names documented"
