#!/usr/bin/env bash
# CLI regression tests for the checked-argument parsing and the --stats-json
# exporter (run by CTest as `cli_regression`).
#
# Usage: cli_regression_test.sh <examples-bin-dir> <repo-root> <work-dir>
#
# Covers:
#   * garbage/negative/overflowing numeric arguments exit 2 and print usage;
#   * bad global-flag values (--deadline-ms=abc, --max-proposals=-1) exit 2;
#   * `gen` refuses an explicit instance past the rank-table limit
#     (n = 65536) with exit 2 and writes no file;
#   * the demo binaries reject garbage positional arguments the same way;
#   * a gen -> kary --stats-json round trip produces a schema-valid stats
#     file whose proposal count matches the solver's stdout;
#   * the `kmatch verify` exit-code contract: 0 on a clean differential
#     sweep, 4 (plus a loadable minimal-repro file) when a sabotaged engine
#     diverges, 2 on bad verify flags;
#   * the `kmatch serve` / `kmatch ping` exit-code contract: bad transport
#     flags exit 2, a clean stdio drain exits 0, a drain that cannot meet
#     its deadline exits 3, and `ping` without a reachable server exits 1;
#   * `kary best` runs above Cayley's 5M-tree sweep guard (k = 10 and 16)
#     and prints the same output with and without --sweep-threads=4;
#   * `--sweep-threads` is inert for `kary --fallback`: the ladder runs its
#     strict rungs in order and prints the same output with and without
#     --sweep-threads=4, and an exhausted ladder exits 3 after the same 5
#     attempts either way;
#   * flag parity: usage() names exactly the flags kmatch's flag table
#     parses, and every one of them rejects a bad value (or, for a switch,
#     any value) with exit 2 and a message naming the flag;
#   * the verify repro line stays valid JSON when the repro directory's
#     name holds a quote and a backslash;
#   * one success path for each command that keeps a library surface
#     (DESIGN.md keeper rows): example, stats, dot, binary, roommates and
#     coalitions exit 0 and print their expected token.
set -u

BIN_DIR="$1"
REPO_ROOT="$2"
WORK_DIR="$3"
KMATCH="$BIN_DIR/kmatch_cli"
mkdir -p "$WORK_DIR"

failures=0

note_failure() {
  echo "FAIL: $1" >&2
  failures=$((failures + 1))
}

# expect_usage_error <description> -- <command...>
# The command must exit 2 and print a usage line to stderr.
expect_usage_error() {
  local description="$1"
  shift 2  # drop description and "--"
  local stderr_file="$WORK_DIR/stderr.txt"
  "$@" >/dev/null 2>"$stderr_file"
  local rc=$?
  if [ "$rc" -ne 2 ]; then
    note_failure "$description: exit $rc, expected 2"
    return
  fi
  if ! grep -qi "usage" "$stderr_file"; then
    note_failure "$description: no usage text on stderr"
    return
  fi
  echo "ok: $description"
}

# --- kmatch numeric-argument rejection -------------------------------------
expect_usage_error "gen rejects negative k" \
  -- "$KMATCH" gen -3 10 0 "$WORK_DIR/never.inst"
expect_usage_error "gen rejects k=1 (need k>=2)" \
  -- "$KMATCH" gen 1 10 0 "$WORK_DIR/never.inst"
expect_usage_error "gen rejects non-numeric k/n" \
  -- "$KMATCH" gen x y 0 "$WORK_DIR/never.inst"
expect_usage_error "gen rejects trailing junk" \
  -- "$KMATCH" gen 3 10x 0 "$WORK_DIR/never.inst"
expect_usage_error "gen rejects n=0" \
  -- "$KMATCH" gen 3 0 0 "$WORK_DIR/never.inst"
expect_usage_error "gen rejects out-of-range n" \
  -- "$KMATCH" gen 3 99999999999999999999 0 "$WORK_DIR/never.inst"
# An explicit instance past the uint16_t rank limit is refused before its
# tables (64 GiB at n = 65536) are allocated: exit 2, the limit named on
# stderr, and no file written.
rm -f "$WORK_DIR/too_big.inst"
"$KMATCH" gen 2 65536 1 "$WORK_DIR/too_big.inst" >/dev/null 2>"$WORK_DIR/too_big.err"
rc=$?
if [ "$rc" -ne 2 ]; then
  note_failure "gen 2 65536: exit $rc, expected 2"
elif ! grep -qF "explicit rank tables hold n <= 65535" "$WORK_DIR/too_big.err"; then
  note_failure "gen 2 65536: stderr lacks the explicit-table limit"
elif [ -e "$WORK_DIR/too_big.inst" ]; then
  note_failure "gen 2 65536 wrote a file"
else
  echo "ok: gen rejects n past the explicit-table limit"
fi
expect_usage_error "bad --deadline-ms value" \
  -- "$KMATCH" --deadline-ms=abc kary "$WORK_DIR/never.inst"
expect_usage_error "negative --max-proposals" \
  -- "$KMATCH" --max-proposals=-1 kary "$WORK_DIR/never.inst"
expect_usage_error "unknown flag" \
  -- "$KMATCH" --no-such-flag info "$WORK_DIR/never.inst"
expect_usage_error "non-numeric --sweep-threads" \
  -- "$KMATCH" --sweep-threads=abc kary "$WORK_DIR/never.inst"
expect_usage_error "zero --sweep-threads (need >= 1)" \
  -- "$KMATCH" --sweep-threads=0 kary "$WORK_DIR/never.inst"
expect_usage_error "negative --sweep-threads" \
  -- "$KMATCH" --sweep-threads=-4 kary "$WORK_DIR/never.inst"
expect_usage_error "coalitions rejects non-numeric group size" \
  -- "$KMATCH" coalitions "$WORK_DIR/never.inst" q
if [ -e "$WORK_DIR/never.inst" ]; then
  note_failure "a rejected gen still wrote its output file"
fi

# expect_output <description> <token> -- <command...>
# The command must exit 0 and print <token> on stdout.
expect_output() {
  local description="$1" token="$2"
  shift 3  # drop description, token and "--"
  local stdout_file="$WORK_DIR/stdout.txt"
  "$@" >"$stdout_file" 2>/dev/null
  local rc=$?
  if [ "$rc" -ne 0 ]; then
    note_failure "$description: exit $rc, expected 0"
  elif ! grep -qF -- "$token" "$stdout_file"; then
    note_failure "$description: stdout lacks '$token'"
  else
    echo "ok: $description"
  fi
}

# --- demo binaries reject garbage args -------------------------------------
expect_usage_error "society_kparent rejects k=x" \
  -- "$BIN_DIR/society_kparent" x
expect_usage_error "society_kparent rejects k=1" \
  -- "$BIN_DIR/society_kparent" 1 16 3
expect_usage_error "ant_colony rejects colonies=-2" \
  -- "$BIN_DIR/ant_colony" -2
expect_usage_error "coalition_formation rejects n=junk" \
  -- "$BIN_DIR/coalition_formation" junk
expect_usage_error "fair_matchmaking rejects n=0" \
  -- "$BIN_DIR/fair_matchmaking" 0

# --- stats-json round trip --------------------------------------------------
INST="$WORK_DIR/cli_reg.inst"
STATS="$WORK_DIR/cli_reg.stats.json"
PROM="$WORK_DIR/cli_reg.stats.prom"
STDOUT="$WORK_DIR/cli_reg.stdout"
if ! "$KMATCH" gen 3 8 5 "$INST" >/dev/null; then
  note_failure "gen with valid arguments failed"
elif ! "$KMATCH" --stats-json="$STATS" --stats-prom="$PROM" kary "$INST" \
    >"$STDOUT"; then
  note_failure "kary --stats-json failed"
else
  proposals="$(sed -n 's/^proposals: \([0-9]*\)$/\1/p' "$STDOUT")"
  if [ -z "$proposals" ]; then
    note_failure "could not read proposal count from kary stdout"
  elif python3 "$REPO_ROOT/scripts/check_stats_json.py" "$STATS" \
      --solved --expect-proposals "$proposals"; then
    echo "ok: stats JSON round trip (proposals=$proposals)"
  else
    note_failure "stats JSON failed schema/proposal validation"
  fi
  if grep -q "kstable_solve_proposals{engine=\"binding.queue\"} $proposals" \
      "$PROM"; then
    echo "ok: Prometheus export carries the solve telemetry"
  else
    note_failure "Prometheus stats file missing telemetry series"
  fi
  if ! grep -q '"gs.queue.proposals"' "$STATS"; then
    note_failure "stats JSON missing the registry counters"
  elif ! grep -q "kstable_gs_queue_proposals_total" "$PROM"; then
    note_failure "registry counters in JSON but missing from Prometheus"
  else
    echo "ok: stats exports carry the registry counters"
  fi
fi

# --- commands that keep a library surface: one success path each ----------
# example -> prefs/catalog, stats -> core/tree_selection, dot ->
# analysis/dot, binary -> roommates/adapters, roommates -> roommates/io,
# coalitions -> core/supergender.
KINST="$WORK_DIR/cli_reg_k4.inst"
ROOMS="$WORK_DIR/cli_reg.rm"
"$KMATCH" gen 4 3 5 "$KINST" >/dev/null
printf 'kstable-roommates v1\n4\nlist 0 : 1 2 3\nlist 1 : 0 2 3\nlist 2 : 3 0 1\nlist 3 : 2 0 1\n' \
  >"$ROOMS"
expect_output "example lists the catalog" "fig3" -- "$KMATCH" example
expect_output "example writes fig3" "wrote 'fig3'" \
  -- "$KMATCH" example fig3 "$WORK_DIR/cli_reg_fig3.inst"
expect_output "info loads the written example" "k = 3, n = 2" \
  -- "$KMATCH" info "$WORK_DIR/cli_reg_fig3.inst"
expect_output "stats prints the cost-aware tree" "cost-aware" \
  -- "$KMATCH" stats "$KINST"
expect_output "dot tree" "graph" -- "$KMATCH" dot "$KINST" tree
expect_output "dot matching" "graph" -- "$KMATCH" dot "$KINST" matching
expect_output "binary finds a stable binary matching" "stable binary matching" \
  -- "$KMATCH" binary "$KINST"
expect_output "roommates solves a roommates file" "stable matching" \
  -- "$KMATCH" roommates "$ROOMS"
expect_output "coalitions of group size 2" "6 coalitions of 2 members" \
  -- "$KMATCH" coalitions "$KINST" 2

# --- flag parity: usage() vs the flag table, and every flag's rejection ------
# Each probe runs `info` on the valid instance above, so exit 2 can only come
# from the flag parser.
usage_specs="$("$KMATCH" 2>&1 | grep -oE -- '--[a-z][a-z0-9-]*(=<[^>]*>)?' | sort -u)"
usage_names="$(printf '%s\n' "$usage_specs" | sed 's/=.*//' | sort -u)"
table_names="$(grep -oE '"--[a-z][a-z0-9-]*"' "$REPO_ROOT/examples/kmatch_cli.cpp" \
  | tr -d '"' | sort -u)"
if [ -z "$usage_names" ] || [ "$usage_names" != "$table_names" ]; then
  note_failure "usage() and the flag table name different flags: $(
    printf '%s\n' "$usage_names" | diff - <(printf '%s\n' "$table_names") \
      | grep '^[<>]' | tr '\n' ' ')"
else
  echo "ok: usage() names exactly the $(printf '%s\n' "$usage_names" | wc -l) flags the table parses"
fi

# expect_flag_rejected <argument> <text stderr must contain>
expect_flag_rejected() {
  "$KMATCH" "$1" info "$INST" >/dev/null 2>"$WORK_DIR/flag.err"
  local rc=$?
  if [ "$rc" -ne 2 ]; then
    note_failure "kmatch $1: exit $rc, expected 2"
  elif ! grep -qF -- "$2" "$WORK_DIR/flag.err"; then
    note_failure "kmatch $1: stderr lacks '$2'"
  else
    return 0
  fi
  return 1
}
flags_probed=0
flags_ok=0
for spec in $usage_specs; do
  name="${spec%%=*}"
  flags_probed=$((flags_probed + 1))
  case "$spec" in
    --shape=*|--dist=*|--sabotage=*|--chaos=*)  # enum flags
      expect_flag_rejected "$name=bogus" "unknown $name" ;;
    *"=<file>"|*"=<dir>")  # paths: only the empty one is bad
      expect_flag_rejected "$name=" "invalid $name value" ;;
    *=*)  # numbers
      expect_flag_rejected "$name=abc" "invalid $name value" \
        && expect_flag_rejected "$name" "$name needs a value" ;;
    *)  # switches
      expect_flag_rejected "$name=1" "$name takes no value" ;;
  esac && flags_ok=$((flags_ok + 1))
done
if [ "$flags_ok" -eq "$flags_probed" ]; then
  echo "ok: all $flags_probed flags reject bad values with exit 2"
fi

# --- kary best: --sweep-threads does not reach best_tree ------------------
BEST_OUT="$WORK_DIR/cli_reg.best"
BEST_THREADS_OUT="$WORK_DIR/cli_reg.best_threads"
if ! "$KMATCH" kary "$INST" best >"$BEST_OUT"; then
  note_failure "kary best failed"
elif ! "$KMATCH" --sweep-threads=4 kary "$INST" best >"$BEST_THREADS_OUT"; then
  note_failure "kary best --sweep-threads=4 failed"
elif cmp -s "$BEST_OUT" "$BEST_THREADS_OUT" \
    && grep -q "^best tree: bound-pair cost [0-9]*$" "$BEST_OUT"; then
  echo "ok: kary best output is byte-identical with --sweep-threads=4"
else
  note_failure "kary best output differs with --sweep-threads=4"
fi

# --- kary best above Cayley's sweep guard: k = 10 (10^8 trees) and k = 16 ---
# n = 1: every tree has bound-pair cost 0.
for spec in 10:1:0 16:4:; do
  IFS=: read -r bk bn bcost <<<"$spec"
  BIG_INST="$WORK_DIR/cli_reg_best_$bk.inst"
  BIG_OUT="$WORK_DIR/cli_reg.best_$bk"
  if ! "$KMATCH" gen "$bk" "$bn" 5 "$BIG_INST" >/dev/null; then
    note_failure "gen for the k=$bk best instance failed"
    continue
  fi
  "$KMATCH" kary "$BIG_INST" best >"$BIG_OUT" 2>&1
  rc=$?
  if [ "$rc" -ne 0 ]; then
    note_failure "kary best on k=$bk: exit $rc, expected 0"
  elif ! grep -q "^best tree: bound-pair cost ${bcost:-[0-9]*}$" "$BIG_OUT"; then
    note_failure "kary best on k=$bk: no 'best tree: bound-pair cost ${bcost:-C}' line"
  elif [ "$(grep -c '^family ' "$BIG_OUT")" -ne "$bn" ]; then
    note_failure "kary best on k=$bk: expected $bn families"
  else
    echo "ok: kary best on k=$bk (n = $bn) exits 0${bcost:+ with cost $bcost}"
  fi
done

# --- kary --fallback: --sweep-threads does not reach the in-order ladder -----
# k = 4: four strict candidate trees plus the degraded rung.
LADDER_INST="$WORK_DIR/cli_reg_ladder.inst"
LADDER_SEQ="$WORK_DIR/cli_reg.ladder_seq"
LADDER_PAR="$WORK_DIR/cli_reg.ladder_par"
if ! "$KMATCH" gen 4 8 5 "$LADDER_INST" >/dev/null; then
  note_failure "gen for the ladder instance failed"
elif ! "$KMATCH" --fallback kary "$LADDER_INST" >"$LADDER_SEQ"; then
  note_failure "kary --fallback failed"
elif ! "$KMATCH" --fallback --sweep-threads=4 kary "$LADDER_INST" \
    >"$LADDER_PAR"; then
  note_failure "kary --fallback --sweep-threads=4 failed"
elif cmp -s "$LADDER_SEQ" "$LADDER_PAR" \
    && grep -q "rung strict-tree" "$LADDER_SEQ" \
    && grep -q "^family 0: " "$LADDER_SEQ"; then
  echo "ok: --fallback ladder output is byte-identical with --sweep-threads=4"
else
  note_failure "--fallback output differs with --sweep-threads=4"
fi
for threads in 1 4; do
  "$KMATCH" --fallback --sweep-threads="$threads" --max-proposals=5 \
    kary "$LADDER_INST" >"$WORK_DIR/cli_reg.ladder_fail" 2>&1
  rc=$?
  if [ "$rc" -ne 3 ]; then
    note_failure "--fallback --max-proposals=5 (threads=$threads): exit $rc, expected 3"
  elif ! grep -q "5 attempt(s), rung none" "$WORK_DIR/cli_reg.ladder_fail"; then
    note_failure "--fallback --max-proposals=5 (threads=$threads): not 5 attempts, rung none"
  else
    echo "ok: exhausted --fallback ladder exits 3 after 5 attempts (threads=$threads)"
  fi
done

# --- kmatch verify exit-code contract ---------------------------------------
expect_usage_error "verify rejects unknown --shape" \
  -- "$KMATCH" verify --shape=pentapartite
expect_usage_error "verify rejects unknown --sabotage" \
  -- "$KMATCH" verify --sabotage=bitflip
expect_usage_error "verify rejects zero --seeds" \
  -- "$KMATCH" verify --seeds=0
expect_usage_error "verify rejects positional arguments" \
  -- "$KMATCH" verify extra

"$KMATCH" verify --seeds=10 --repro-dir="$WORK_DIR" \
  >"$WORK_DIR/verify_clean.out" 2>/dev/null
rc=$?
if [ "$rc" -ne 0 ]; then
  note_failure "clean verify sweep exited $rc, expected 0"
else
  echo "ok: clean verify sweep exits 0"
fi

"$KMATCH" verify --seeds=2 --shape=kpartite --sabotage=kary_swap \
  --repro-dir="$WORK_DIR" >"$WORK_DIR/verify_sab.out" 2>"$WORK_DIR/verify_sab.err"
rc=$?
REPRO="$WORK_DIR/kverify_repro_kpartite_1.kp"
if [ "$rc" -ne 4 ]; then
  note_failure "sabotaged verify sweep exited $rc, expected 4"
elif ! grep -q '"check":"binding.sweep.bitwise"' "$WORK_DIR/verify_sab.out"; then
  note_failure "sabotaged verify sweep printed no mismatch JSON"
elif [ ! -f "$REPRO" ]; then
  note_failure "sabotaged verify sweep wrote no minimal repro"
elif ! "$KMATCH" info "$REPRO" >/dev/null; then
  note_failure "minimal repro is not loadable by kmatch info"
else
  echo "ok: sabotaged verify exits 4 with a loadable minimal repro"
fi

# The repro line is JSON whatever the repro directory is called.
QUOTED_DIR="$WORK_DIR/q\"d\\e"
mkdir -p "$QUOTED_DIR"
"$KMATCH" verify --seeds=2 --shape=kpartite --sabotage=kary_swap \
  --repro-dir="$QUOTED_DIR" >"$WORK_DIR/verify_quoted.out" 2>/dev/null
rc=$?
if [ "$rc" -ne 4 ]; then
  note_failure "sabotaged verify into a quoted repro dir exited $rc, expected 4"
elif ! python3 - "$WORK_DIR/verify_quoted.out" "$QUOTED_DIR" <<'PY'
import json, sys
lines = [json.loads(line) for line in open(sys.argv[1])]
repros = [line["repro"] for line in lines if "repro" in line]
assert repros and all(r.startswith(sys.argv[2] + "/") for r in repros), repros
PY
then
  note_failure "verify report lines are not JSON for a quoted repro dir"
else
  echo "ok: verify report lines stay JSON for a repro dir holding \" and \\"
fi

# --- kmatch serve / ping exit-code contract ---------------------------------
expect_usage_error "serve needs --stdio or --port" \
  -- "$KMATCH" serve
expect_usage_error "serve rejects --stdio combined with --port" \
  -- "$KMATCH" serve --stdio --port=4242
expect_usage_error "serve rejects out-of-range --port" \
  -- "$KMATCH" serve --port=99999
expect_usage_error "serve rejects non-numeric --port" \
  -- "$KMATCH" serve --port=abc
expect_usage_error "serve rejects zero --workers" \
  -- "$KMATCH" serve --stdio --workers=0
expect_usage_error "serve rejects zero --queue-depth" \
  -- "$KMATCH" serve --stdio --queue-depth=0
expect_usage_error "serve rejects unknown --chaos point" \
  -- "$KMATCH" serve --stdio --chaos=meteor
expect_usage_error "ping needs --port" \
  -- "$KMATCH" ping
expect_usage_error "ping rejects out-of-range --port" \
  -- "$KMATCH" ping --port=99999
expect_usage_error "ping rejects zero --requests" \
  -- "$KMATCH" ping --port=4242 --requests=0

FRAMES="$WORK_DIR/serve_reg.frames"
if ! "$KMATCH" ping --emit="$FRAMES" --requests=3 --seed=5 >/dev/null; then
  note_failure "ping --emit failed to write a frame file"
else
  "$KMATCH" serve --stdio <"$FRAMES" >"$WORK_DIR/serve_reg.out" \
    2>"$WORK_DIR/serve_reg.err"
  rc=$?
  responses="$(grep -c '^kmatch/1 OK ' "$WORK_DIR/serve_reg.out")"
  if [ "$rc" -ne 0 ]; then
    note_failure "clean stdio drain exited $rc, expected 0"
  elif ! grep -q "drain clean" "$WORK_DIR/serve_reg.err"; then
    note_failure "clean stdio serve did not report a clean drain"
  elif [ "$responses" -ne 3 ]; then
    note_failure "stdio serve answered $responses/3 requests"
  else
    echo "ok: stdio serve answers every frame and drains with exit 0"
  fi

  # Drain-deadline breach: every solve wedges on a 2 s injected stall, the
  # drain deadline is 50 ms, and the 50 ms grace cannot outlast the stall —
  # the server must give up and report the breach via exit 3.
  "$KMATCH" serve --stdio --chaos=stall --chaos-prob=1 --chaos-stall-ms=2000 \
    --drain-deadline-ms=50 --drain-grace-ms=50 <"$FRAMES" \
    >/dev/null 2>"$WORK_DIR/serve_reg_stall.err"
  rc=$?
  if [ "$rc" -ne 3 ]; then
    note_failure "wedged drain exited $rc, expected 3"
  elif ! grep -q "drain EXCEEDED" "$WORK_DIR/serve_reg_stall.err"; then
    note_failure "wedged drain did not report EXCEEDED"
  else
    echo "ok: drain-deadline breach exits 3"
  fi
fi

# A ping against a port nobody listens on must report the loss via exit 1
# (connect retries are bounded by --response-timeout-ms-scaled waits; keep
# the run tiny so the bounded retry window stays short).
KMATCH_PING_START=$(date +%s)
"$KMATCH" ping --port=1 --requests=1 --response-timeout-ms=100 \
  >"$WORK_DIR/ping_dead.out" 2>/dev/null
rc=$?
if [ "$rc" -ne 1 ]; then
  note_failure "ping against a dead port exited $rc, expected 1"
elif ! grep -q "lost 1" "$WORK_DIR/ping_dead.out"; then
  note_failure "ping against a dead port did not report the request lost"
else
  echo "ok: ping against a dead port exits 1 ($(( $(date +%s) - KMATCH_PING_START ))s)"
fi

if [ "$failures" -ne 0 ]; then
  echo "cli_regression_test: $failures failure(s)" >&2
  exit 1
fi
echo "cli_regression_test: all checks passed"
