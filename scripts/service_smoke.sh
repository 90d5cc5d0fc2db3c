#!/usr/bin/env bash
# Service-layer smoke test: boot asha-serve, drive a chaos experiment
# through asha-ctl, scrape the /metrics endpoint mid-run, SIGKILL the
# daemon mid-run, restart it, re-attach, and require the recovered run
# report to be byte-identical to an uninterrupted reference run.
#
# Usage: scripts/service_smoke.sh
#   BIN_DIR  (default target/release)  where asha-serve / asha-ctl live
#   WORK_DIR (default mktemp -d)       scratch directory, kept on failure
set -euo pipefail

BIN="${BIN_DIR:-target/release}"
WORK="${WORK_DIR:-$(mktemp -d)}"
mkdir -p "$WORK"
CTL="$BIN/asha-ctl"
# A durable kind other than ASHA with a model-based sampler, so the SIGKILL
# leg below also covers a TPE cursor per bracket. Sized so the whole script
# takes ~1.5 s on a 2-vCPU box (6.5k jobs a run): the SIGKILL lands once
# 64 KiB of the run is in the WAL, a few tens of milliseconds in.
CREATE_ARGS=(--preset svm_mnist --bench-seed 11 --seed 11 --workers 16
             --max-time 20000 --straggler-std 0.3 --drop-prob 0.05
             --scheduler async-hyperband --sampler tpe)
SERVE_PID=

start_serve() { # root sock log
  # Every daemon gets an HTTP metrics listener on an ephemeral port and a
  # zero-threshold slow-request log, so each request leaves a traced row.
  "$BIN/asha-serve" --root "$1" --unix "$2" \
      --metrics-addr 127.0.0.1:0 \
      --slow-log "${3%.log}.slow.jsonl" --slow-ms 0 >"$3" 2>&1 &
  SERVE_PID=$!
}

metrics_addr() { # log -> host:port of the bound metrics listener
  sed -n 's|.*metrics on http://\([^/]*\)/metrics.*|\1|p' "$1" | head -n 1
}

scrape() { # host:port -> exposition body on stdout
  if command -v curl >/dev/null 2>&1; then
    curl -sf "http://$1/metrics"
  else
    # Dependency-free fallback: HTTP/1.0 over bash's /dev/tcp.
    exec 9<>"/dev/tcp/${1%:*}/${1##*:}"
    printf 'GET /metrics HTTP/1.0\r\n\r\n' >&9
    sed -e '1,/^\r\{0,1\}$/d' <&9
    exec 9>&- 9<&-
  fi
}

wait_sock() { # sock
  for _ in $(seq 1 100); do
    if [ -S "$1" ] && "$CTL" --unix "$1" ping >/dev/null 2>&1; then
      return 0
    fi
    sleep 0.1
  done
  echo "daemon did not come up on $1" >&2
  return 1
}

echo "== reference run (uninterrupted) =="
REF_SOCK="$WORK/ref.sock"
start_serve "$WORK/root-ref" "$REF_SOCK" "$WORK/serve-ref.log"
wait_sock "$REF_SOCK"
"$CTL" --unix "$REF_SOCK" create exp "${CREATE_ARGS[@]}"
"$CTL" --unix "$REF_SOCK" start exp

echo "== scrape /metrics mid-run =="
MADDR=$(metrics_addr "$WORK/serve-ref.log")
[ -n "$MADDR" ] || { echo "daemon did not report a metrics address" >&2; exit 1; }
scrape "$MADDR" >"$WORK/metrics-midrun.txt"
# Exposition-format check: every line is a comment or `name[{labels}] value`.
BAD=$(grep -cvE '^(# (HELP|TYPE) [a-zA-Z_:][a-zA-Z0-9_:]* .*|[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? -?[0-9]+(\.[0-9]+)?([eE][+-]?[0-9]+)?)$' \
      "$WORK/metrics-midrun.txt" || true)
if [ "$BAD" -ne 0 ]; then
  echo "invalid exposition lines in /metrics output:" >&2
  grep -vE '^(# |[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? )' "$WORK/metrics-midrun.txt" >&2 || true
  exit 1
fi
# The request histogram must be live: the pings/create/start above landed.
REQS=$(sed -n 's/^asha_request_execute_seconds_count{op="ping"} //p' "$WORK/metrics-midrun.txt")
[ "${REQS:-0}" -gt 0 ] || { echo "ping request histogram is empty" >&2; exit 1; }
for family in asha_worker_queue_depth asha_wal_fsync_seconds \
              asha_requests_total asha_tailer_lag_records; do
  grep -q "^# TYPE $family" "$WORK/metrics-midrun.txt" \
    || { echo "missing family $family in /metrics" >&2; exit 1; }
done
echo "scrape OK: $(wc -l <"$WORK/metrics-midrun.txt") exposition lines, $REQS pings in histogram"

"$CTL" --unix "$REF_SOCK" watch exp --workers 16 --out "$WORK/report-ref.json" >/dev/null
"$CTL" --unix "$REF_SOCK" stats
"$CTL" --unix "$REF_SOCK" top --count 1 >/dev/null
"$CTL" --unix "$REF_SOCK" shutdown
wait "$SERVE_PID"
# Zero threshold: every request must have left a slow-trace row.
[ -s "$WORK/serve-ref.slow.jsonl" ] \
  || { echo "slow-request log is empty despite --slow-ms 0" >&2; exit 1; }
echo "slow log: $(wc -l <"$WORK/serve-ref.slow.jsonl") traced requests"

echo "== victim run (SIGKILL mid-run) =="
VIC_ROOT="$WORK/root-victim"
VIC_SOCK="$WORK/victim.sock"
start_serve "$VIC_ROOT" "$VIC_SOCK" "$WORK/serve-victim-1.log"
wait_sock "$VIC_SOCK"
"$CTL" --unix "$VIC_SOCK" create exp "${CREATE_ARGS[@]}"
VIC_WAL="$VIC_ROOT/exp/wal.jsonl"
KILL_AT=$(( $(wc -c <"$VIC_WAL") + 65536 ))
"$CTL" --unix "$VIC_SOCK" start exp
# Kill on progress, not on a timer: as soon as the run has put 64 KiB of
# its own records (and its first checkpoints) behind it.
for _ in $(seq 1 1000); do
  [ "$(wc -c <"$VIC_WAL")" -ge "$KILL_AT" ] && break
  sleep 0.01
done
[ "$(wc -c <"$VIC_WAL")" -ge "$KILL_AT" ] \
  || { echo "victim run wrote less than 64 KiB of WAL within 10 s of start" >&2; exit 1; }
STATUS=$("$CTL" --unix "$VIC_SOCK" status exp)
case "$STATUS" in
  *finished*)
    echo "victim run finished before it could be killed mid-run ($STATUS):" \
         "raise --max-time in CREATE_ARGS" >&2
    exit 1 ;;
esac
kill -9 "$SERVE_PID"
wait "$SERVE_PID" 2>/dev/null || true
echo "killed daemon with $(wc -c <"$VIC_WAL") WAL bytes written"

echo "== restart, recover, re-attach =="
start_serve "$VIC_ROOT" "$VIC_SOCK" "$WORK/serve-victim-2.log"
wait_sock "$VIC_SOCK"
STATUS=$("$CTL" --unix "$VIC_SOCK" status exp)
echo "status after restart: $STATUS"
case "$STATUS" in
  *interrupted*) ;;
  *) echo "expected interrupted status after SIGKILL, got: $STATUS" >&2; exit 1 ;;
esac
"$CTL" --unix "$VIC_SOCK" start exp # re-runs through store recovery
"$CTL" --unix "$VIC_SOCK" watch exp --workers 16 --out "$WORK/report-victim.json" >/dev/null
"$CTL" --unix "$VIC_SOCK" shutdown
wait "$SERVE_PID"

cmp "$WORK/report-ref.json" "$WORK/report-victim.json"
echo "OK: recovered report byte-identical to uninterrupted reference"
echo "workdir: $WORK"
