#!/usr/bin/env bash
# Fails unless every `--baseline <path>` named by a compare_bench.py gate in
# .github/workflows/ci.yml or scripts/reproduce.sh is tracked in git. An
# untracked (e.g. .gitignore'd) baseline turns its gate into a permanent
# "cannot read" exit 2, so a gate that can never compare anything fails here
# instead, up front.
#
# Usage: scripts/check_baselines_tracked.sh   (from anywhere in the repo)
set -euo pipefail
cd "$(dirname "$0")/.."

paths="$(grep -ohE -- '--baseline +[^ ]+\.json' .github/workflows/ci.yml \
  scripts/reproduce.sh | awk '{print $2}' | sort -u)"
if [ -z "$paths" ]; then
  echo "check_baselines_tracked: no --baseline paths found" >&2
  exit 1
fi

missing=0
for path in $paths; do
  if ! git ls-files --error-unmatch -- "$path" >/dev/null 2>&1; then
    echo "check_baselines_tracked: $path is not tracked in git" >&2
    missing=1
  fi
done
[ "$missing" -eq 0 ] || exit 1
echo "check_baselines_tracked: $(echo "$paths" | wc -l) baselines tracked"
