#!/usr/bin/env bash
# Check-id parity between the DiffRunner battery and its documentation (run
# by CTest as `verify_check_ids`).
#
# Usage: check_verify_ids.sh <repo-root>
#
# A check id is a dotted lowercase string literal in
# src/verify/diff_runner.cpp ("gs.queue.cert"); the ids are documented as
# the rows of the check-id table in docs/VERIFY.md, one row per id, each
# starting with the id in backticks: | `gs.queue.cert` | ...
# Fails when an id in the code has no row, when a row names an id the code
# does not record, or when an id has more than one row.
set -u

ROOT="$1"
CODE="$ROOT/src/verify/diff_runner.cpp"
DOCS="$ROOT/docs/VERIFY.md"
id='[a-z0-9_]+(\.[a-z0-9_-]+)+'

code_ids="$(grep -oE "\"$id\"" "$CODE" | tr -d '"' | sort -u)"
doc_rows="$(grep -oE "^\| \`$id\` \|" "$DOCS" | sed -E 's/^\| `([^`]*)`.*/\1/' \
  | sort)"
doc_ids="$(printf '%s\n' "$doc_rows" | sort -u)"

failures=0
if [ -z "$code_ids" ]; then
  echo "FAIL: no check ids found in $CODE" >&2
  failures=$((failures + 1))
fi
for missing in $(comm -23 <(printf '%s\n' "$code_ids") \
    <(printf '%s\n' "$doc_ids")); do
  echo "FAIL: check id '$missing' has no row in docs/VERIFY.md" >&2
  failures=$((failures + 1))
done
for stale in $(comm -13 <(printf '%s\n' "$code_ids") \
    <(printf '%s\n' "$doc_ids")); do
  echo "FAIL: docs/VERIFY.md names '$stale', which diff_runner.cpp lacks" >&2
  failures=$((failures + 1))
done
for dup in $(printf '%s\n' "$doc_rows" | uniq -d); do
  echo "FAIL: docs/VERIFY.md has more than one row for '$dup'" >&2
  failures=$((failures + 1))
done

if [ "$failures" -ne 0 ]; then
  echo "check_verify_ids: $failures failure(s)" >&2
  exit 1
fi
echo "check_verify_ids: all $(printf '%s\n' "$code_ids" | wc -l) check ids documented"
