#!/usr/bin/env bash
# obs_chaos.sh — observability gate for the job server (docs/OBSERVABILITY.md).
#
# Proves the service-grade observability contract end to end:
#
#   1. Prometheus exposition: GET /metrics negotiates between the JSON
#      snapshot and text-format 0.0.4; the text form carries # TYPE
#      lines, ocd_build_info, and counter values that match the JSON
#      snapshot scraped in the same quiet window.
#   2. SSE streaming: GET /jobs/{id}/events delivers progress/state/done
#      with strictly monotone ids; the done event's result_sha256 equals
#      the hash of the bytes GET /jobs/{id}/result serves.
#   3. Kill mid-stream: the server dies at an injected engine fault while
#      a client is streaming; the client reconnects to the restarted
#      server with Last-Event-ID and sees only ids strictly above its
#      horizon, a terminal done, and a final result byte-identical
#      (volatile fields stripped) to an uninterrupted run's.
#   4. Trace + structured logs: GET /jobs/{id}/trace serves a Chrome
#      trace_event file for the finished job, and the server's
#      -log-format json records parse as JSON with job_id attrs.
#
# Artifacts (Prometheus text, a sample trace, SSE transcripts, server
# logs) land in $OBS_CHAOS_LOGDIR (default: the temp dir) so CI can
# upload them.
#
# Usage: scripts/obs_chaos.sh
set -euo pipefail
cd "$(dirname "$0")/.."

tmp="$(mktemp -d)"
SERVER_PID=""
STREAM_PID=""
cleanup() {
    [ -n "$STREAM_PID" ] && kill -9 "$STREAM_PID" 2>/dev/null
    [ -n "$SERVER_PID" ] && kill -9 "$SERVER_PID" 2>/dev/null
    rm -rf "$tmp"
}
trap cleanup EXIT

LOGDIR="${OBS_CHAOS_LOGDIR:-$tmp/logs}"
mkdir -p "$LOGDIR"

step() { printf '\n== obs-chaos: %s\n' "$*"; }
fail() { printf 'obs-chaos: FAIL: %s\n' "$*" >&2; exit 1; }

# Faultinject exit code (faultinject.ExitCode).
FAULT_EXIT=86

# start_server <name> <dir> <ocd-fault-spec> [extra flags...]
start_server() {
    local name=$1 dir=$2 fault=$3
    shift 3
    mkdir -p "$dir"
    rm -f "$dir/addr"
    OCD_FAULT="$fault" "$tmp/ocdserve" \
        -dir "$dir" -addr 127.0.0.1:0 -addr-file "$dir/addr" \
        -max-active 1 -max-attempts 2 -backoff 50ms -backoff-cap 1s \
        -log-format json "$@" >>"$LOGDIR/$name.log" 2>&1 &
    SERVER_PID=$!
    for _ in $(seq 1 200); do
        [ -s "$dir/addr" ] && break
        kill -0 "$SERVER_PID" 2>/dev/null || fail "server $name died before serving (see $LOGDIR/$name.log)"
        sleep 0.05
    done
    [ -s "$dir/addr" ] || fail "server $name never wrote its address file"
    BASE="http://$(head -n1 "$dir/addr")"
}

# stop_server <want-status>: SIGTERM and require the given exit status.
stop_server() {
    local want=$1 status=0
    kill -TERM "$SERVER_PID"
    wait "$SERVER_PID" || status=$?
    SERVER_PID=""
    [ "$status" -eq "$want" ] || fail "server exited $status, want $want"
}

# wait_server_exit <want-status>: wait for the injected kill to fire.
wait_server_exit() {
    local want=$1 status=0
    for _ in $(seq 1 1200); do
        kill -0 "$SERVER_PID" 2>/dev/null || break
        sleep 0.1
    done
    kill -0 "$SERVER_PID" 2>/dev/null && fail "server still alive; the injected kill never fired"
    wait "$SERVER_PID" || status=$?
    SERVER_PID=""
    [ "$status" -eq "$want" ] || fail "crashed server exited $status, want $want"
}

# submit <name> <csv>: POST the dataset, print the job id.
submit() {
    local name=$1 csv=$2 body
    body=$(curl -sS -X POST --data-binary @"$csv" "$BASE/jobs?name=$name&workers=1") ||
        fail "submit $name: curl failed"
    jq -er .id <<<"$body" || fail "submit $name: no id in $body"
}

# wait_job <id> <want-state> [timeout-seconds]
wait_job() {
    local id=$1 want=$2 secs=${3:-120} body state
    for _ in $(seq 1 $((secs * 10))); do
        body=$(curl -sS "$BASE/jobs/$id")
        state=$(jq -r .state <<<"$body")
        [ "$state" = "$want" ] && return 0
        case "$state" in
        completed | failed | cancelled) fail "job $id settled as $state, want $want: $body" ;;
        esac
        sleep 0.1
    done
    fail "job $id stuck, want $want: $(curl -sS "$BASE/jobs/$id")"
}

# strip_volatile: drop per-execution result fields (see ResultDoc).
strip_volatile() {
    jq 'del(.id, .elapsed_ms, .prior_elapsed_ms, .resumed, .checkpoints, .attempts)' "$1"
}

# stream <id> <outfile> [last-event-id]: follow the job's SSE stream to
# the done event (the server closes the stream after it).
stream() {
    local id=$1 out=$2 last=${3:-}
    local hdr=()
    [ -n "$last" ] && hdr=(-H "Last-Event-ID: $last")
    timeout 120 curl -sS -N -H 'Accept: text/event-stream' "${hdr[@]}" \
        "$BASE/jobs/$id/events" >"$out" || fail "SSE stream for $id did not complete"
}

# sse_ids <file>: the id: lines, in order.
sse_ids() { awk '/^id: /{print $2}' "$1"; }

# assert_monotone <file> <floor>: ids strictly increasing, all > floor.
assert_monotone() {
    sse_ids "$1" | awk -v prev="$2" '
        $1 <= prev { exit 1 }
        { prev = $1 }' || fail "$1: SSE ids not strictly monotone above $2"
}

# sse_done_data <file>: the data payload of the last done event.
sse_done_data() {
    awk '/^event: done/ { want = 1; next }
         want && /^data: / { sub(/^data: /, ""); last = $0; want = 0 }
         END { print last }' "$1"
}

# check_done_hash <stream-file> <id>: the done event's result_sha256
# matches the bytes the polled result endpoint serves.
check_done_hash() {
    local file=$1 id=$2 done sha want
    done=$(sse_done_data "$file")
    [ -n "$done" ] || fail "$file: no done event"
    [ "$(jq -r .state <<<"$done")" = "completed" ] || fail "$file: done state: $done"
    sha=$(jq -er .result_sha256 <<<"$done") || fail "$file: done has no result_sha256: $done"
    curl -sS "$BASE/jobs/$id/result" >"$tmp/hashcheck.json"
    want=$(sha256sum "$tmp/hashcheck.json" | awk '{print $1}')
    [ "$sha" = "$want" ] || fail "done result_sha256 $sha != polled result hash $want"
}

step "building fault-injection server and datagen"
go build -tags=faultinject -o "$tmp/ocdserve" ./cmd/ocdserve
go build -o "$tmp/datagen" ./cmd/datagen

"$tmp/datagen" -dataset taxinfo -out "$tmp/tax.csv" >/dev/null
# Runs for seconds at one worker so the mid-stream kill lands mid-job:
# the event stream must connect before the job reaches level 3.
"$tmp/datagen" -dataset flight -rows 10000 -cols 50 -out "$tmp/flight50.csv" >/dev/null

step "prometheus exposition matches the JSON snapshot"
start_server prom "$tmp/prom" ""
tax_id=$(submit tax "$tmp/tax.csv")
wait_job "$tax_id" completed
# Quiet window: the only job is terminal, so jobs.* counters are stable
# across the two scrapes (the http.* counters are self-referential and
# compared by the unit suite instead).
curl -sS "$BASE/metrics" >"$tmp/metrics.json"
jq -e .counters "$tmp/metrics.json" >/dev/null || fail "JSON metrics snapshot malformed"
curl -sS "$BASE/metrics?format=prometheus" >"$LOGDIR/metrics.prom"
curl -sSI "$BASE/metrics?format=prometheus" | grep -qi 'content-type: text/plain; version=0.0.4' ||
    fail "prometheus scrape content type"
curl -sS -H 'Accept: text/plain' "$BASE/metrics" | head -n1 | grep -q '^# TYPE' ||
    fail "Accept: text/plain did not negotiate the text format"
grep -q '^# TYPE ocd_build_info gauge' "$LOGDIR/metrics.prom" || fail "ocd_build_info family missing"
grep -q '^ocd_build_info{' "$LOGDIR/metrics.prom" || fail "ocd_build_info sample missing"
for c in jobs.submitted jobs.completed; do
    want=$(jq -r ".counters[\"$c\"]" "$tmp/metrics.json")
    got=$(awk -v n="${c//./_}" '$1 == n { print $2 }' "$LOGDIR/metrics.prom")
    [ "$got" = "$want" ] || fail "counter $c: prometheus '$got' != json '$want'"
done
[ "$(jq -r '.counters["jobs.completed"]' "$tmp/metrics.json")" -ge 1 ] || fail "no completed jobs in window"
grep -q '^http_latency_ms_get_jobs_id_bucket{le="+Inf"}' "$LOGDIR/metrics.prom" ||
    fail "latency histogram missing its +Inf bucket"

step "SSE stream: monotone ids and a done event bound to the result hash"
flight_id=$(submit flight50 "$tmp/flight50.csv")
stream "$flight_id" "$LOGDIR/stream_live.sse"
assert_monotone "$LOGDIR/stream_live.sse" 0
grep -q '^event: progress' "$LOGDIR/stream_live.sse" || fail "stream carried no progress events"
grep -q '^event: state' "$LOGDIR/stream_live.sse" || fail "stream carried no state events"
check_done_hash "$LOGDIR/stream_live.sse" "$flight_id"
curl -sS "$BASE/jobs/$flight_id/result" >"$tmp/flight_base.json"
levels=$(jq -r .levels "$tmp/flight_base.json")
[ "$levels" -ge 3 ] || fail "flight50 traversal has only $levels levels; the level-3 kill cannot fire"

step "trace endpoint serves a Chrome trace for the finished job"
curl -sS "$BASE/jobs/$flight_id/trace" >"$LOGDIR/trace.json"
[ "$(jq '.traceEvents | length' "$LOGDIR/trace.json")" -ge 1 ] || fail "trace has no events"
jq -e '.traceEvents[] | select(.name == "job:flight50")' "$LOGDIR/trace.json" >/dev/null ||
    fail "trace missing the job root span"
code=$(curl -sS -o /dev/null -w '%{http_code}' "$BASE/jobs/nosuch/trace")
[ "$code" = "404" ] || fail "trace of unknown job returned $code"
stop_server 0

step "kill the server mid-stream (OCD_FAULT=core.level.start:exit:3)"
start_server crash "$tmp/chaos" "core.level.start:exit:3"
flight_id=$(submit flight50 "$tmp/flight50.csv")
# Follow the stream in the background; it dies with the server.
curl -sS -N -H 'Accept: text/event-stream' "$BASE/jobs/$flight_id/events" \
    >"$LOGDIR/stream_cut.sse" 2>/dev/null &
STREAM_PID=$!
wait_server_exit "$FAULT_EXIT"
wait "$STREAM_PID" 2>/dev/null || true
STREAM_PID=""
last_id=$(sse_ids "$LOGDIR/stream_cut.sse" | tail -n1)
[ -n "$last_id" ] || fail "cut stream received no events before the kill"
assert_monotone "$LOGDIR/stream_cut.sse" 0

step "reconnect with Last-Event-ID after restart: monotone to done, identical result"
start_server restart "$tmp/chaos" ""
stream "$flight_id" "$LOGDIR/stream_resumed.sse" "$last_id"
# Every id on the resumed stream is strictly above the client's horizon,
# even though the restarted server renumbered from zero internally.
assert_monotone "$LOGDIR/stream_resumed.sse" "$last_id"
check_done_hash "$LOGDIR/stream_resumed.sse" "$flight_id"
curl -sS "$BASE/jobs/$flight_id/result" >"$tmp/flight_resumed.json"
[ "$(jq -r .resumed "$tmp/flight_resumed.json")" = "true" ] || fail "killed job did not resume from its snapshot"
diff <(strip_volatile "$tmp/flight_base.json") <(strip_volatile "$tmp/flight_resumed.json") ||
    fail "result after kill+reconnect differs from the uninterrupted run"
# A late subscriber with no Last-Event-ID still sees the terminal edge.
stream "$flight_id" "$LOGDIR/stream_late.sse"
sse_done_data "$LOGDIR/stream_late.sse" | jq -e '.state == "completed"' >/dev/null ||
    fail "late subscriber missed the done event"
stop_server 0

step "structured logs: json records carry job ids"
jq -es '[.[] | select(.msg == "job admitted")] | length >= 1' <"$LOGDIR/prom.log" >/dev/null ||
    fail "no parseable 'job admitted' json log records in prom.log"
jq -es '[.[] | select(.msg == "http request" and .request_id != null)] | length >= 1' \
    <"$LOGDIR/prom.log" >/dev/null || fail "no http access records with request_id"
jq -es '[.[] | select(.job_id != null)] | length >= 1' <"$LOGDIR/restart.log" >/dev/null ||
    fail "restart log has no job-scoped records"

step "all obs-chaos checks passed"
