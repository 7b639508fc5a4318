#!/usr/bin/env bash
# Keeper-table parity between the repository and DESIGN.md (run by CTest as
# `design_keepers`).
#
# Usage: check_keepers.sh <repo-root>
#
# Every header under src/{analysis,core,gs,incremental,parallel,resilience,
# roommates}, every bench/bench_e*.cpp and every examples/*.cpp keeps exactly
# one row in the "What keeps each surface" section of DESIGN.md, starting
# with the path in backticks and naming its keeper in the third cell:
#   | `src/core/binding.hpp` | header | Algorithm 1, Theorems 2-3 (E4, E5) |
# Fails when a path in that scope has no row, when a row names a file that
# does not exist, when a path has more than one row or a row has an empty
# keeper cell, and when a file outside perfbench/ includes the
# core/kstable.hpp umbrella. Then it checks that it can fail: the table
# check must reject a copy of DESIGN.md with any one row deleted.
set -u

ROOT="$1"
DESIGN="$ROOT/DESIGN.md"
path_re='(src/(analysis|core|gs|incremental|parallel|resilience|roommates)/[^`/]+\.hpp|bench/bench_e[^`/]+\.cpp|examples/[^`/]+\.cpp)'

scope_paths() {
  (cd "$ROOT" && ls src/analysis/*.hpp src/core/*.hpp src/gs/*.hpp \
    src/incremental/*.hpp src/parallel/*.hpp src/resilience/*.hpp \
    src/roommates/*.hpp \
    bench/bench_e*.cpp examples/*.cpp 2>/dev/null) | sort
}

# The keeper rows of the "What keeps each surface" section of $1.
keeper_rows() {
  awk '/^## /{in_section = ($0 == "## What keeps each surface")}
       in_section' "$1" | grep -E "^\| \`$path_re\` \|"
}

# Prints one FAIL line per table problem in design file $1.
table_failures() {
  local rows row_paths listed
  rows="$(keeper_rows "$1")"
  row_paths="$(printf '%s\n' "$rows" | sed -E 's/^\| `([^`]*)`.*/\1/' \
    | grep -v '^$' | sort)"
  listed="$(printf '%s\n' "$row_paths" | sort -u)"
  for missing in $(comm -23 <(scope_paths) <(printf '%s\n' "$listed")); do
    echo "FAIL: $missing has no keeper row in DESIGN.md"
  done
  for stale in $(comm -13 <(scope_paths) <(printf '%s\n' "$listed")); do
    echo "FAIL: DESIGN.md has a keeper row for $stale, which does not exist"
  done
  for dup in $(printf '%s\n' "$row_paths" | uniq -d); do
    echo "FAIL: DESIGN.md has more than one keeper row for $dup"
  done
  printf '%s\n' "$rows" | grep -vE '^\| `[^`]*` \| [a-z ]+ \| *[^ |]' \
    | grep -v '^$' | sed -E 's/^\| `([^`]*)`.*/FAIL: the row for \1 names no keeper/'
}

failures="$(table_failures "$DESIGN")"

umbrella="$(grep -rlE '^[[:space:]]*#[[:space:]]*include[[:space:]]*"core/kstable\.hpp"' \
  "$ROOT" --include='*.cpp' --include='*.hpp' --include='*.h' \
  --exclude-dir=.git --exclude-dir=perfbench --exclude-dir='build*' \
  --exclude-dir=.bench_build)"
for file in $umbrella; do
  failures+=$'\n'"FAIL: ${file#"$ROOT"/} includes core/kstable.hpp (only perfbench/ may)"
done

# A gate that passes with a row missing cannot catch a missing row.
tmp="$(mktemp)"
trap 'rm -f "$tmp"' EXIT
rows="$(keeper_rows "$DESIGN")"
if [ -z "$rows" ]; then
  failures+=$'\n'"FAIL: no keeper rows found in DESIGN.md"
fi
while IFS= read -r row; do
  [ -n "$row" ] || continue
  path="$(printf '%s' "$row" | sed -E 's/^\| `([^`]*)`.*/\1/')"
  [ -e "$ROOT/$path" ] || continue  # a stale row already failed above
  grep -vxF -- "$row" "$DESIGN" > "$tmp"
  if [ -z "$(table_failures "$tmp")" ]; then
    failures+=$'\n'"FAIL: self-test: deleting the row for $path does not fail the check"
  fi
done <<< "$rows"

failures="$(printf '%s\n' "$failures" | grep -v '^$')"
if [ -n "$failures" ]; then
  printf '%s\n' "$failures" >&2
  echo "check_keepers: $(printf '%s\n' "$failures" | wc -l) failure(s)" >&2
  exit 1
fi
echo "check_keepers: all $(scope_paths | wc -l) paths have one keeper row"
