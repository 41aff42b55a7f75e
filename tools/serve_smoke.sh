#!/bin/sh
# End-to-end smoke tests for `perspector serve` over TCP, run by CI
# after the release build (and, for the restart phase, by ctest).
#
# Phase "basic" — the single-process engine:
#   1. start the server on an ephemeral port and parse the printed port;
#   2. score spec17 and parsec through the client, twice each;
#   3. score one CSV file through both --csv (raw payload) and --input
#      (client-side streamed ingest) and require byte-identical reports;
#   4. assert via the metrics op that the second round was served from
#      the result cache (serve.cache_hit >= 2) and that the request
#      latency histogram counted every scored request;
#   5. assert via the stats op that serve.request.latency reports a
#      positive p99;
#   6. SIGTERM the server and assert it drains and exits 0.
#
# Phase "restart" — the multi-worker tier and its disk-backed store:
#   1. start `serve --workers 2 --cache-dir <dir>`, score two suites
#      twice (second round = router-cache hits), saving the responses;
#   2. SIGKILL the whole tier — no destructor, no store flush;
#   3. restart with the same --cache-dir and assert the same requests
#      come back byte-identical AND from disk (store.hits > 0 in the
#      merged metrics): tail-replay recovery must have rebuilt the
#      store from the unflushed segment files;
#   4. SIGTERM the restarted server and assert a clean drain.
#
# Phase "jobs" — the async-job subsystem surviving a worker SIGKILL:
#   1. compute the uninterrupted reference subset with
#      `subset --search scored` (the one-shot twin of a served job);
#   2. start `serve --workers 2 --jobs-dir <dir> --checkpoint-every 4`,
#      submit the same spec as an async job, and note the owning worker
#      from the submit response's worker=N;
#   3. SIGKILL that worker's pid (found via --shard-stats) mid-job;
#   4. watch the job to completion: the router must respawn the worker
#      (restarts >= 1 in --shard-stats), the respawned worker must
#      resume the job from its checkpoint log, and the final
#      'subset:'/'deviation_pct:' lines must be byte-identical to the
#      uninterrupted reference.
#
# Usage: tools/serve_smoke.sh [path-to-perspector-binary] [basic|restart|jobs|all]
set -eu

BIN="${1:-./build/tools/perspector}"
PHASE="${2:-all}"
LOG="$(mktemp)"
OUT="$(mktemp)"
CACHE_DIR=""
SERVER_PID=""
trap 'rm -f "$LOG" "$OUT"; [ -z "$CACHE_DIR" ] || rm -rf "$CACHE_DIR"; [ -z "$SERVER_PID" ] || kill -9 "$SERVER_PID" 2>/dev/null || true' EXIT

# start_server <serve-args...> — launches the server, waits for the
# listening line, and sets SERVER_PID / PORT.
start_server() {
  : >"$LOG"
  "$BIN" serve --port 0 "$@" >"$LOG" 2>&1 &
  SERVER_PID=$!
  i=0
  until grep -q "serve: listening" "$LOG"; do
    i=$((i + 1))
    if [ "$i" -gt 100 ]; then
      echo "FAIL: server never printed its listening line" >&2
      cat "$LOG" >&2
      exit 1
    fi
    sleep 0.1
  done
  PORT=$(sed -n 's/.*127\.0\.0\.1:\([0-9]*\).*/\1/p' "$LOG" | head -1)
  echo "server up on port $PORT (pid $SERVER_PID)"
}

run_restart_phase() {
  CACHE_DIR="$(mktemp -d)"
  PRE1="$CACHE_DIR/pre1" PRE2="$CACHE_DIR/pre2"
  POST1="$CACHE_DIR/post1" POST2="$CACHE_DIR/post2"

  start_server --workers 2 --cache-dir "$CACHE_DIR/store" --max-queue 8

  # Round 1 computes in the workers; round 2 must be served by the
  # router's cache. The round-2 bytes are the reference transcripts.
  "$BIN" client --port "$PORT" --suite lmbench --instructions 20000 >/dev/null
  "$BIN" client --port "$PORT" --suite sebs --instructions 20000 >/dev/null
  "$BIN" client --port "$PORT" --suite lmbench --instructions 20000 >"$PRE1"
  "$BIN" client --port "$PORT" --suite sebs --instructions 20000 >"$PRE2"

  # Kill the tier outright: no shutdown path runs, the store's index
  # watermark is stale, and the tail of the segment file is unflushed.
  kill -9 "$SERVER_PID"
  wait "$SERVER_PID" 2>/dev/null || true
  SERVER_PID=""
  echo "tier SIGKILLed; restarting against the same store"

  start_server --workers 2 --cache-dir "$CACHE_DIR/store" --max-queue 8
  "$BIN" client --port "$PORT" --suite lmbench --instructions 20000 >"$POST1"
  "$BIN" client --port "$PORT" --suite sebs --instructions 20000 >"$POST2"
  cmp "$PRE1" "$POST1" || { echo "FAIL: lmbench response differs after restart" >&2; exit 1; }
  cmp "$PRE2" "$POST2" || { echo "FAIL: sebs response differs after restart" >&2; exit 1; }

  # Both post-restart answers must have come from the disk store (the
  # restarted router's memory cache started empty).
  STORE_HITS=$("$BIN" client --port "$PORT" --metrics 2>/dev/null \
    | awk '$1 == "store.hits" { print $2 }')
  echo "store.hits = ${STORE_HITS:-0}"
  if [ "${STORE_HITS:-0}" -lt 2 ]; then
    echo "FAIL: post-restart responses were not served from the store" >&2
    exit 1
  fi

  kill -TERM "$SERVER_PID"
  RC=0
  wait "$SERVER_PID" || RC=$?
  SERVER_PID=""
  if [ "$RC" -ne 0 ]; then
    echo "FAIL: restarted tier exited $RC on SIGTERM" >&2
    cat "$LOG" >&2
    exit 1
  fi
  rm -rf "$CACHE_DIR"
  CACHE_DIR=""
  echo "restart smoke OK (byte-identical responses, served from disk)"
}

run_jobs_phase() {
  CACHE_DIR="$(mktemp -d)"
  REF="$CACHE_DIR/ref" GOT="$CACHE_DIR/got" SUBMIT_ERR="$CACHE_DIR/submit.err"

  # The job spec, shared between the one-shot reference and the served
  # submit. Enough candidates that the SIGKILL lands mid-search.
  SPEC="--suite nbench --size 4 --candidates 48 --instructions 50000"

  echo "computing uninterrupted reference subset..."
  # shellcheck disable=SC2086
  "$BIN" subset --search scored $SPEC >"$REF"

  start_server --workers 2 --jobs-dir "$CACHE_DIR/jobs" --checkpoint-every 4

  # shellcheck disable=SC2086
  JOB_ID=$("$BIN" client --port "$PORT" --submit $SPEC 2>"$SUBMIT_ERR" \
    | sed -n 's/^job: //p')
  WORKER=$(sed -n 's/.*worker=\([0-9]*\).*/\1/p' "$SUBMIT_ERR")
  if [ -z "$JOB_ID" ] || [ -z "$WORKER" ]; then
    echo "FAIL: submit did not return a job id and owning worker" >&2
    cat "$SUBMIT_ERR" >&2
    exit 1
  fi
  echo "job $JOB_ID owned by worker $WORKER"

  OWNER_PID=$("$BIN" client --port "$PORT" --shard-stats 2>/dev/null \
    | awk -v key="worker.$WORKER.pid" '$1 == key { print $2 }')
  if [ -z "$OWNER_PID" ]; then
    echo "FAIL: shard_stats did not report worker $WORKER's pid" >&2
    exit 1
  fi

  kill -9 "$OWNER_PID"
  echo "SIGKILLed owning worker (pid $OWNER_PID) mid-job"

  # The watch must ride out the death: the router retries the (idempotent)
  # job ops against the respawned worker, which resumes from the shared
  # checkpoint directory and finishes the search.
  if ! "$BIN" client --port "$PORT" --watch "$JOB_ID" >"$GOT" 2>"$CACHE_DIR/watch.err"; then
    echo "FAIL: watch after worker SIGKILL did not complete cleanly" >&2
    cat "$CACHE_DIR/watch.err" >&2
    cat "$GOT" >&2
    exit 1
  fi
  cmp "$REF" "$GOT" || {
    echo "FAIL: resumed job's subset differs from the uninterrupted run" >&2
    echo "--- reference:" >&2; cat "$REF" >&2
    echo "--- resumed:" >&2; cat "$GOT" >&2
    exit 1
  }

  RESTARTS=$("$BIN" client --port "$PORT" --shard-stats 2>/dev/null \
    | awk -v key="worker.$WORKER.restarts" '$1 == key { print $2 }')
  echo "worker.$WORKER.restarts = ${RESTARTS:-0}"
  if [ "${RESTARTS:-0}" -lt 1 ]; then
    echo "FAIL: router never restarted the SIGKILLed worker" >&2
    exit 1
  fi

  kill -TERM "$SERVER_PID"
  RC=0
  wait "$SERVER_PID" || RC=$?
  SERVER_PID=""
  if [ "$RC" -ne 0 ]; then
    echo "FAIL: tier exited $RC on SIGTERM after the jobs phase" >&2
    cat "$LOG" >&2
    exit 1
  fi
  rm -rf "$CACHE_DIR"
  CACHE_DIR=""
  echo "jobs smoke OK (worker killed mid-job, resumed byte-identical)"
}

if [ "$PHASE" = "restart" ]; then
  run_restart_phase
  exit 0
fi
if [ "$PHASE" = "jobs" ]; then
  run_jobs_phase
  exit 0
fi

start_server --max-queue 8

# Round 1: cold — both suites computed.
"$BIN" client --port "$PORT" --suite spec17 --instructions 20000 >/dev/null
"$BIN" client --port "$PORT" --suite parsec --instructions 20000 >/dev/null

# Round 2: warm — identical requests must be cache hits. The reports must
# also be byte-identical to the equivalent one-shot runs.
"$BIN" client --port "$PORT" --suite spec17 --instructions 20000 >"$OUT"
"$BIN" demo --suite spec17 --instructions 20000 2>/dev/null \
  | cmp - "$OUT" || { echo "FAIL: served spec17 report differs from one-shot" >&2; exit 1; }
"$BIN" client --port "$PORT" --suite parsec --instructions 20000 >/dev/null

# Streamed ingest leg: --input parses the CSV through the chunked
# reader client-side and forwards the matrix as lossless CSV; the
# server's report must be byte-identical to shipping the raw file
# with --csv. Values carry fractions so the re-serialization path
# (%.17g round-trip) is actually exercised, not just integers.
INPUT_CSV="$(mktemp)"
INPUT_OUT="$(mktemp)"
cat >"$INPUT_CSV" <<'EOF'
workload,cpu-cycles,branch-instructions,branch-misses,dtlb_misses.walk_pending,cycle_activity.stalls_mem_any,page-faults,dTLB-loads,dTLB-stores,dTLB-load-misses,dTLB-store-misses,LLC-loads,LLC-stores,LLC-load-misses,LLC-store-misses
alpha,100000.5,20000.25,400.125,50,3000.75,12,15000,8000.5,120.25,60,900.5,450.125,90,45.75
beta,200000.25,40000.5,800.5,100.25,6000,24.5,30000.75,16000,240.5,120.125,1800,900.25,180.5,90
gamma,150000,30000.125,600.75,75.5,4500.25,18,22500.5,12000.75,180,90.5,1350.25,675,135.125,67.5
delta,250000.75,50000,1000.25,125,7500.5,30.25,37500,20000.125,300.75,150,2250.5,1125.75,225,112.5
epsilon,175000.5,35000.75,700,87.125,5250,21.5,26250.25,14000,210.125,105.75,1575,787.5,157.25,78.125
zeta,225000,45000.25,900.625,112.5,6750.125,27,33750.5,18000.25,270,135.625,2025.75,1012.125,202.5,101.25
EOF
"$BIN" client --port "$PORT" --csv "$INPUT_CSV" >"$INPUT_OUT"
"$BIN" client --port "$PORT" --input "$INPUT_CSV" \
  | cmp - "$INPUT_OUT" || {
    rm -f "$INPUT_CSV" "$INPUT_OUT"
    echo "FAIL: --input report differs from --csv for the same file" >&2
    exit 1
  }
rm -f "$INPUT_CSV" "$INPUT_OUT"
echo "--input streamed report matches --csv"

METRICS="$(mktemp)"
"$BIN" client --port "$PORT" --metrics 2>/dev/null >"$METRICS"
HITS=$(awk '$1 == "serve.cache_hit" { print $2 }' "$METRICS")
echo "serve.cache_hit = ${HITS:-0}"
if [ "${HITS:-0}" -lt 2 ]; then
  rm -f "$METRICS"
  echo "FAIL: expected the second round to hit the result cache" >&2
  exit 1
fi

# The latency histogram must have counted every scored request.
LATENCY_COUNT=$(awk '$1 == "serve.request.latency.count" { print $2 }' "$METRICS")
rm -f "$METRICS"
echo "serve.request.latency.count = ${LATENCY_COUNT:-0}"
if [ "${LATENCY_COUNT:-0}" -lt 4 ]; then
  echo "FAIL: request latency histogram missing from metrics" >&2
  exit 1
fi

# The stats op must expose latency percentiles from the histogram.
P99=$("$BIN" client --port "$PORT" --stats 2>/dev/null \
  | awk '$1 == "serve.request.latency.p99" { print $2 }')
echo "serve.request.latency.p99 = ${P99:-missing} us"
case "${P99:-}" in
  ''|0|0.*) echo "FAIL: stats op reported no positive p99 latency" >&2
            exit 1 ;;
esac

# Graceful shutdown: SIGTERM must drain and exit 0.
kill -TERM "$SERVER_PID"
RC=0
wait "$SERVER_PID" || RC=$?
SERVER_PID=""
if [ "$RC" -ne 0 ]; then
  echo "FAIL: server exited $RC on SIGTERM" >&2
  cat "$LOG" >&2
  exit 1
fi
echo "serve smoke OK (clean SIGTERM drain, cache hits confirmed)"

if [ "$PHASE" = "all" ]; then
  run_restart_phase
  run_jobs_phase
fi
