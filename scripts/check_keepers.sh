#!/usr/bin/env bash
# Keeper-table parity between the repository and DESIGN.md (run by CTest as
# `design_keepers`).
#
# Usage: check_keepers.sh <repo-root>
#
# The "What keeps each surface" section of DESIGN.md keeps exactly one row
# per surface below, starting with the surface in backticks and naming its
# keeper in the third cell:
#   * every header under src/ (any depth), every bench/bench_e*.cpp and
#     every examples/*.cpp:
#       | `src/core/binding.hpp` | header | Algorithm 1, Theorems 2-3 (E4, E5) |
#   * every field of every struct named *Options, ServeLimits or FaultConfig
#     declared in a header under src/, as <namespace>::<struct>::<field>:
#       | `core::BatchOptions::tree` | option | E17 (`bench/bench_e17_batch.cpp`) |
#     A file outside tests/ that an option row's keeper cell names in
#     backticks must mention the field as `.field` or `->field`.
#   * every test the section names in backticks as `Suite.Name` must be
#     defined by a TEST, TEST_F or TEST_P in tests/*.cpp; a `Prefix/`
#     instantiation, a `/param` suffix and a trailing `*` (any test whose
#     name starts with what precedes it) are accepted.
# Fails when a surface has no row, when a row names a surface that does not
# exist, when a surface has more than one row or a row has an empty keeper
# cell, when an option row's keeper file does not mention its field, when a
# named test is not defined, and when a file outside perfbench/ includes the
# core/kstable.hpp umbrella. Then it checks that it can fail: the table check
# must reject a copy of DESIGN.md with any one row deleted, the keeper-file
# check a copy with one keeper file swapped for a file that does not mention
# the field, and the test-name check a copy of tests/ with one named test
# renamed.
set -u
export LC_ALL=C

ROOT="$1"
DESIGN="$ROOT/DESIGN.md"
path_re='(src/[^`]+\.hpp|bench/bench_e[^`/]+\.cpp|examples/[^`/]+\.cpp)'
option_re='[a-z]+::[A-Za-z]+::[A-Za-z_0-9]+'

# Every field of every options struct in a src/ header, as ns::Struct::field.
option_fields() {
  (cd "$ROOT" && find src -name '*.hpp' | sort | xargs awk '
    FNR == 1 { ns = ""; name = "" }
    /^namespace kstable::[a-z_:]+ \{/ { ns = $2; sub(/^kstable::/, "", ns) }
    name == "" && /^struct ([A-Za-z]*Options|ServeLimits|FaultConfig) \{/ {
      name = $2; body = ""; next
    }
    name != "" && /^};/ {
      count = split(body, statements, ";")
      for (i = 1; i < count; ++i) {
        s = statements[i]
        while (gsub(/\{[^{}]*\}/, "", s)) {}
        sub(/=.*/, "", s)
        sub(/[ \t]+$/, "", s)
        if (match(s, /[A-Za-z_][A-Za-z_0-9]*$/)) {
          print ns "::" name "::" substr(s, RSTART, RLENGTH)
        }
      }
      name = ""; next
    }
    name != "" { line = $0; sub(/\/\/.*/, "", line); body = body " " line }
  ') | sort
}

# Every surface that needs a row.
surfaces() {
  { (cd "$ROOT" && find src -name '*.hpp' && ls bench/bench_e*.cpp \
      examples/*.cpp) 2>/dev/null; option_fields; } | sort
}

expected="$(mktemp)"
tmp="$(mktemp)"
trap 'rm -f "$expected" "$tmp"' EXIT
surfaces > "$expected"

# The keeper rows of the "What keeps each surface" section of $1.
keeper_rows() {
  awk '/^## /{in_section = ($0 == "## What keeps each surface")}
       in_section' "$1" \
    | grep -E "^\| \`($path_re\` \||$option_re\` \| option \|)"
}

row_surface() { sed -E 's/^\| `([^`]*)`.*/\1/'; }

# Prints one FAIL line per table problem in design file $1.
table_failures() {
  local rows row_surfaces listed
  rows="$(keeper_rows "$1")"
  row_surfaces="$(printf '%s\n' "$rows" | row_surface | grep -v '^$' | sort)"
  listed="$(printf '%s\n' "$row_surfaces" | sort -u)"
  for missing in $(comm -23 "$expected" <(printf '%s\n' "$listed")); do
    echo "FAIL: $missing has no keeper row in DESIGN.md"
  done
  for stale in $(comm -13 "$expected" <(printf '%s\n' "$listed")); do
    echo "FAIL: DESIGN.md has a keeper row for $stale, which does not exist"
  done
  for dup in $(printf '%s\n' "$row_surfaces" | uniq -d); do
    echo "FAIL: DESIGN.md has more than one keeper row for $dup"
  done
  printf '%s\n' "$rows" | grep -vE '^\| `[^`]*` \| [a-z ]+ \| *[^ |]' \
    | grep -v '^$' | sed -E 's/^\| `([^`]*)`.*/FAIL: the row for \1 names no keeper/'
}

# The files outside tests/ that option row $1's keeper cell names.
keeper_files() {
  printf '%s\n' "$1" | sed -E 's/^\| `[^`]*` \| option \|//' \
    | grep -oE '`[A-Za-z0-9_./-]+\.(cpp|hpp|py|sh)`' | tr -d '`' \
    | grep -v '^tests/'
}

# Prints one FAIL line per option row of design file $1 whose keeper file
# does not mention the field.
setter_failures() {
  local row option field file
  while IFS= read -r row; do
    option="$(printf '%s\n' "$row" | row_surface)"
    field="${option##*::}"
    for file in $(keeper_files "$row"); do
      if [ ! -f "$ROOT/$file" ]; then
        echo "FAIL: the row for $option names $file, which does not exist"
      elif ! grep -qE "(\.|->)$field\b" "$ROOT/$file"; then
        echo "FAIL: the row for $option names $file, which never mentions .$field"
      fi
    done
  done < <(keeper_rows "$1" | grep -E "^\| \`$option_re\` \| option \|")
}

# Every test named in backticks in the keeper section of design file $1, as
# written (Suite.Name, with an optional Prefix/, /param or trailing *).
test_refs() {
  awk '/^## /{in_section = ($0 == "## What keeps each surface")}
       in_section' "$1" \
    | grep -oE '`([A-Za-z0-9_]+/)?[A-Z][A-Za-z0-9_]*\.([A-Z][A-Za-z0-9_]*\*?|\*)(/[A-Za-z0-9_*]+)?`' \
    | tr -d '`' | sort -u
}

# Suite.Name of every TEST, TEST_F and TEST_P in the .cpp files of dir $1.
defined_tests() {
  cat "$1"/*.cpp | tr '\n' ' ' \
    | grep -oE '\bTEST(_F|_P)?\([[:space:]]*[A-Za-z0-9_]+[[:space:]]*,[[:space:]]*[A-Za-z0-9_]+' \
    | sed -E 's/^TEST(_F|_P)?\([[:space:]]*([A-Za-z0-9_]+)[[:space:]]*,[[:space:]]*/\2./' \
    | sort -u
}

# Prints one FAIL line per test that design file $1 names and no .cpp file
# in dir $2 defines.
test_name_failures() {
  local defined ref name
  defined="$(defined_tests "$2")"
  while IFS= read -r ref; do
    [ -n "$ref" ] || continue
    name="$(printf '%s\n' "$ref" | sed -E 's#^[A-Za-z0-9_]+/##; s#/[^/.]*$##')"
    if [ "${name%\*}" != "$name" ]; then
      printf '%s\n' "$defined" | awk -v p="${name%\*}" \
        'index($0, p) == 1 { found = 1 } END { exit !found }' && continue
    else
      printf '%s\n' "$defined" | grep -qxF -- "$name" && continue
    fi
    echo "FAIL: DESIGN.md names the test $ref, which tests/ does not define"
  done < <(test_refs "$1")
}

failures="$(table_failures "$DESIGN")"
failures+=$'\n'"$(test_name_failures "$DESIGN" "$ROOT/tests")"
failures+=$'\n'"$(setter_failures "$DESIGN")"

umbrella="$(grep -rlE '^[[:space:]]*#[[:space:]]*include[[:space:]]*"core/kstable\.hpp"' \
  "$ROOT" --include='*.cpp' --include='*.hpp' --include='*.h' \
  --exclude-dir=.git --exclude-dir=perfbench --exclude-dir='build*' \
  --exclude-dir=.bench_build)"
for file in $umbrella; do
  failures+=$'\n'"FAIL: ${file#"$ROOT"/} includes core/kstable.hpp (only perfbench/ may)"
done

# A gate that passes with a row missing cannot catch a missing row.
rows="$(keeper_rows "$DESIGN")"
if [ -z "$rows" ]; then
  failures+=$'\n'"FAIL: no keeper rows found in DESIGN.md"
fi
while IFS= read -r row; do
  [ -n "$row" ] || continue
  surface="$(printf '%s\n' "$row" | row_surface)"
  grep -qxF -- "$surface" "$expected" || continue  # already failed as stale
  grep -vxF -- "$row" "$DESIGN" > "$tmp"
  if [ -z "$(table_failures "$tmp")" ]; then
    failures+=$'\n'"FAIL: self-test: deleting the row for $surface does not fail the check"
  fi
done <<< "$rows"

# Nor can a keeper-file check that passes a file which never sets the field.
swapped=""
while IFS= read -r row && [ -z "$swapped" ]; do
  field="$(printf '%s\n' "$row" | row_surface)"
  field="${field##*::}"
  file="$(keeper_files "$row" | head -n 1)"
  [ -n "$file" ] || continue
  while IFS= read -r other && [ -z "$swapped" ]; do
    case "$other" in src/*) ;; *) continue ;; esac
    grep -qE "(\.|->)$field\b" "$ROOT/$other" && continue
    swapped="${row/"\`$file\`"/\`$other\`}"
    while IFS= read -r line; do
      if [ "$line" = "$row" ]; then
        printf '%s\n' "$swapped"
      else
        printf '%s\n' "$line"
      fi
    done < "$DESIGN" > "$tmp"
    if [ -z "$(setter_failures "$tmp")" ]; then
      failures+=$'\n'"FAIL: self-test: naming $other as the keeper of .$field does not fail the check"
    fi
  done < "$expected"
done < <(printf '%s\n' "$rows" | grep -E "^\| \`$option_re\` \| option \|")
if [ -z "$swapped" ]; then
  failures+=$'\n'"FAIL: self-test: no option row names a keeper file to swap"
fi

# Nor can a test-name check that passes a row whose test was renamed away.
renamed="$(test_refs "$DESIGN" | grep -vE '[*/]' | head -n 1)"
if [ -z "$renamed" ]; then
  failures+=$'\n'"FAIL: self-test: no keeper row names a single test to rename"
else
  tests_copy="$(mktemp -d)"
  cp "$ROOT"/tests/*.cpp "$tests_copy"/
  sed -i -E "s/\b${renamed#*.}\b/&Renamed/g" "$tests_copy"/*.cpp
  if [ -z "$(test_name_failures "$DESIGN" "$tests_copy")" ]; then
    failures+=$'\n'"FAIL: self-test: renaming $renamed in tests/ does not fail the check"
  fi
  rm -rf "$tests_copy"
fi

failures="$(printf '%s\n' "$failures" | grep -v '^$')"
if [ -n "$failures" ]; then
  printf '%s\n' "$failures" >&2
  echo "check_keepers: $(printf '%s\n' "$failures" | wc -l) failure(s)" >&2
  exit 1
fi
echo "check_keepers: all $(wc -l < "$expected") surfaces have one keeper row"
