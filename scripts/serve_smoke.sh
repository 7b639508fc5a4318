#!/usr/bin/env bash
# End-to-end smoke of the long-lived service: `kmatch serve` driven by the
# bundled `kmatch ping` client (run by CTest as `serve_smoke` and by the
# serve-smoke CI job).
#
# Usage: serve_smoke.sh <examples-bin-dir> <repo-root> <work-dir>
#
# Legs:
#   1. Chaos leg — server under seeded fault injection on every service
#      point (accept, frame-parse, enqueue, respond, stall) with offered
#      load above capacity; every request must still be acknowledged
#      (lost 0, inconsistent 0), the metrics scrape must satisfy the
#      serve.* accounting invariant (check_stats_json.py --serve), and
#      SIGTERM must drain cleanly with exit 0.
#   2. Kill-and-restart leg — SIGKILL the server mid-workload (once a
#      METRICS scrape shows it has completed KILL_AFTER requests), restart
#      it on the same port; the client must reconnect, resend every
#      unacknowledged request, and finish with zero lost and zero
#      inconsistent responses.
#
# Every server and client log stays in <work-dir>; a leg that fails also
# prints the last 40 lines of each of its logs to stderr.
set -u

BIN_DIR="$1"
REPO_ROOT="$2"
WORK_DIR="$3"
KMATCH="$BIN_DIR/kmatch_cli"
mkdir -p "$WORK_DIR"

failures=0
pids=()

note_failure() {
  echo "FAIL: $1" >&2
  failures=$((failures + 1))
}

# dump_leg_logs <leg> <failures-before-leg> <log>... — when the leg added a
# failure, print the last 40 lines of each of its logs to stderr (the work
# dir keeps them whole).
dump_leg_logs() {
  local leg="$1" before="$2" log
  shift 2
  [ "$failures" -gt "$before" ] || return 0
  for log in "$@"; do
    [ -f "$log" ] || continue
    echo "--- $leg: last 40 lines of $log ---" >&2
    tail -n 40 "$log" >&2
  done
}

cleanup() {
  for pid in "${pids[@]:-}"; do
    kill -9 "$pid" 2>/dev/null || true
  done
}
trap cleanup EXIT

# Wait until the server log announces its (possibly ephemeral) port, then
# print the port number. The CLI installs its signal handlers *before*
# printing this line, so a server that has printed it is safe to signal.
wait_for_port() {
  local log="$1" i port
  for i in $(seq 1 100); do
    port="$(sed -n 's/^listening on port \([0-9][0-9]*\)$/\1/p' "$log")"
    if [ -n "$port" ]; then
      echo "$port"
      return 0
    fi
    sleep 0.1
  done
  return 1
}

# ping_field <ping-stdout-file> <field-name> — extract a counter from the
# "ping: ... lost 0, inconsistent 0" summary line.
ping_field() {
  sed -n "s/.*[ (]$2 \([0-9][0-9]*\).*/\1/p" "$1"
}

# --- leg 1: chaos + overload + metrics scrape + clean drain -----------------
LEG1_BEFORE=$failures
S1_OUT="$WORK_DIR/serve1.out"
S1_ERR="$WORK_DIR/serve1.err"
PING1="$WORK_DIR/ping1.out"
"$KMATCH" serve --port=0 --workers=2 --queue-depth=4 \
  --chaos=all --chaos-prob=0.03 --chaos-seed=7 --chaos-stall-ms=5 \
  >"$S1_OUT" 2>"$S1_ERR" &
S1=$!
pids+=("$S1")

if ! PORT1="$(wait_for_port "$S1_OUT")"; then
  note_failure "chaos server never announced its port ($(cat "$S1_ERR"))"
else
  STATS1="$WORK_DIR/serve1.stats.json"
  # window 16 against 2 workers + queue 4: offered load beyond capacity, so
  # the shed/backoff path is exercised for real.
  if ! "$KMATCH" ping --port="$PORT1" --requests=300 --window=16 --seed=42 \
      --metrics-out="$STATS1" >"$PING1"; then
    note_failure "chaos-leg ping lost or got inconsistent responses"
    cat "$PING1" >&2 || true
  else
    echo "ok: chaos leg acknowledged all requests ($(cat "$PING1"))"
  fi
  if python3 "$REPO_ROOT/scripts/check_stats_json.py" "$STATS1" --serve; then
    echo "ok: metrics scrape satisfies the serve accounting invariant"
  else
    note_failure "metrics scrape failed --serve validation"
  fi
  kill -TERM "$S1" 2>/dev/null
  wait "$S1"
  rc=$?
  if [ "$rc" -ne 0 ]; then
    note_failure "chaos server drain exited $rc, expected 0 ($(cat "$S1_ERR"))"
  elif ! grep -q "drain clean" "$S1_ERR"; then
    note_failure "chaos server did not report a clean drain"
  else
    echo "ok: SIGTERM drained the chaos server cleanly"
  fi
fi

dump_leg_logs "chaos leg" "$LEG1_BEFORE" "$S1_OUT" "$S1_ERR" "$PING1"

# --- leg 2: SIGKILL mid-workload, restart on the same port ------------------
LEG2_BEFORE=$failures
S2_OUT="$WORK_DIR/serve2a.out"
PING2="$WORK_DIR/ping2.out"
S2B_ERR="$WORK_DIR/serve2b.err"
"$KMATCH" serve --port=0 --workers=2 --queue-depth=8 \
  >"$S2_OUT" 2>"$WORK_DIR/serve2a.err" &
S2A=$!
pids+=("$S2A")

if ! PORT2="$(wait_for_port "$S2_OUT")"; then
  note_failure "restart-leg server never announced its port"
else
  # The SIGKILL lands on an event, not after a fixed sleep: once a METRICS
  # scrape (a one-request `kmatch ping` on its own connection) shows the
  # server has completed KILL_AFTER requests, a few percent of the 30000.
  # A 30000-request run takes ~0.8s on a 4-vCPU Xeon VM in a Release build,
  # ~9s under ASan, and a scrape ~5ms, so the kill lands mid-workload
  # however fast the server is. The client's reconnect window (10s) covers
  # the restart.
  KILL_AFTER=1500
  SCRAPE2="$WORK_DIR/serve2a.scrape.json"
  "$KMATCH" ping --port="$PORT2" --requests=30000 --window=16 --seed=9 \
    >"$PING2" &
  PING2_PID=$!
  pids+=("$PING2_PID")
  completed=0
  for i in $(seq 1 2000); do
    if "$KMATCH" ping --port="$PORT2" --requests=1 --k=3 --n=3 --seed=1 \
        --metrics-out="$SCRAPE2" >/dev/null 2>&1; then
      completed="$(sed -n 's/.*"serve\.requests\.completed":\([0-9][0-9]*\).*/\1/p' \
        "$SCRAPE2")"
      [ "${completed:-0}" -ge "$KILL_AFTER" ] && break
    fi
    sleep 0.005
  done
  kill -9 "$S2A" 2>/dev/null
  wait "$S2A" 2>/dev/null
  if [ "${completed:-0}" -lt "$KILL_AFTER" ]; then
    note_failure "restart-leg server never reported $KILL_AFTER completed requests (last scrape: ${completed:-none})"
  else
    echo "ok: SIGKILL after a scrape showed ${completed} completed requests"
  fi

  "$KMATCH" serve --port="$PORT2" --workers=2 --queue-depth=8 \
    >"$WORK_DIR/serve2b.out" 2>"$S2B_ERR" &
  S2B=$!
  pids+=("$S2B")

  if ! wait "$PING2_PID"; then
    note_failure "client lost responses across the kill/restart"
    cat "$PING2" >&2 || true
  else
    lost="$(ping_field "$PING2" lost)"
    inconsistent="$(ping_field "$PING2" inconsistent)"
    reconnects="$(ping_field "$PING2" reconnects)"
    if [ "${lost:-1}" != "0" ] || [ "${inconsistent:-1}" != "0" ]; then
      note_failure "kill/restart leg: lost=$lost inconsistent=$inconsistent"
    elif [ "${reconnects:-0}" = "0" ]; then
      # The workload finished before the kill landed: the leg proved
      # nothing. Treat as failure so the timing stays honest.
      note_failure "kill/restart leg never reconnected (kill landed too late)"
    else
      echo "ok: kill/restart leg ($(cat "$PING2"))"
    fi
  fi
  kill -TERM "$S2B" 2>/dev/null
  if wait "$S2B"; then
    echo "ok: restarted server drained cleanly"
  else
    note_failure "restarted server drain failed ($(cat "$S2B_ERR"))"
  fi
fi

dump_leg_logs "kill/restart leg" "$LEG2_BEFORE" "$S2_OUT" \
  "$WORK_DIR/serve2a.err" "$SCRAPE2" "$PING2" "$WORK_DIR/serve2b.out" "$S2B_ERR"

if [ "$failures" -ne 0 ]; then
  echo "serve_smoke: $failures failure(s)" >&2
  exit 1
fi
echo "serve_smoke: all checks passed"
