#!/usr/bin/env bash
# serve_chaos.sh — kill-and-restart differential gate for the job server
# (docs/SERVICE.md, docs/ROBUSTNESS.md).
#
# Builds a fault-injection-tagged ocdserve, crashes it at exact engine
# points via OCD_FAULT, and proves the discovery-as-a-service durability
# contract:
#
#   1. a server killed mid-job (simulated SIGKILL via an injected
#      os.Exit at a level barrier) restarts, rediscovers its jobs from
#      the write-ahead manifests, resumes the interrupted job from its
#      snapshot, and produces result documents byte-identical to an
#      uninterrupted server's (volatile fields stripped);
#   2. a poison job that panics on every attempt is retried with backoff
#      and then marked failed with the captured stack after max-attempts,
#      while its neighbours complete and the server stays healthy;
#   3. SIGTERM drains gracefully: admissions stop, the in-flight job is
#      checkpointed and persisted as interrupted, the process exits 0,
#      and the next start finishes the job with identical results.
#
# Server logs land in $SERVE_CHAOS_LOGDIR (default: the temp dir) so CI
# can upload them as an artifact when a check fails.
#
# Usage: scripts/serve_chaos.sh
set -euo pipefail
cd "$(dirname "$0")/.."

tmp="$(mktemp -d)"
SERVER_PID=""
cleanup() {
    [ -n "$SERVER_PID" ] && kill -9 "$SERVER_PID" 2>/dev/null
    rm -rf "$tmp"
}
trap cleanup EXIT

LOGDIR="${SERVE_CHAOS_LOGDIR:-$tmp/logs}"
mkdir -p "$LOGDIR"

step() { printf '\n== serve-chaos: %s\n' "$*"; }
fail() { printf 'serve-chaos: FAIL: %s\n' "$*" >&2; exit 1; }

# Faultinject exit code (faultinject.ExitCode); the crashed server must
# die with exactly this status or the kill never fired.
FAULT_EXIT=86

# start_server <name> <dir> <ocd-fault-spec> [extra flags...]
# Starts ocdserve on an ephemeral port, waits for the address file, and
# sets SERVER_PID and BASE. Logs append to $LOGDIR/<name>.log.
start_server() {
    local name=$1 dir=$2 fault=$3
    shift 3
    mkdir -p "$dir"
    rm -f "$dir/addr"
    OCD_FAULT="$fault" "$tmp/ocdserve" \
        -dir "$dir" -addr 127.0.0.1:0 -addr-file "$dir/addr" \
        -max-active 1 -max-attempts 2 -backoff 50ms -backoff-cap 1s \
        "$@" >>"$LOGDIR/$name.log" 2>&1 &
    SERVER_PID=$!
    for _ in $(seq 1 200); do
        [ -s "$dir/addr" ] && break
        kill -0 "$SERVER_PID" 2>/dev/null || fail "server $name died before serving (see $LOGDIR/$name.log)"
        sleep 0.05
    done
    [ -s "$dir/addr" ] || fail "server $name never wrote its address file"
    BASE="http://$(head -n1 "$dir/addr")"
}

# stop_server <want-status>: SIGTERM the server and require it to exit
# with the given status (0 for a graceful drain).
stop_server() {
    local want=$1 status=0
    kill -TERM "$SERVER_PID"
    wait "$SERVER_PID" || status=$?
    SERVER_PID=""
    [ "$status" -eq "$want" ] || fail "server exited $status, want $want"
}

# wait_server_exit <want-status>: wait (bounded) for the server to die on
# its own — the injected-kill path — and require the given status.
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

# strip_volatile: drop the per-execution result fields (ResultDoc marks
# them volatile); everything else must be byte-identical across a fresh
# run and any crash/drain/resume schedule.
strip_volatile() {
    jq 'del(.id, .elapsed_ms, .prior_elapsed_ms, .resumed, .checkpoints, .attempts)' "$1"
}

step "building fault-injection server and datagen"
go build -tags=faultinject -o "$tmp/ocdserve" ./cmd/ocdserve
go build -o "$tmp/datagen" ./cmd/datagen

"$tmp/datagen" -dataset taxinfo -out "$tmp/tax.csv" >/dev/null
# Deep enough (at least three levels) for the level-3 kill; the crash and
# drain steps add delays so that their signals land mid-job.
"$tmp/datagen" -dataset flight -rows 10000 -cols 50 -out "$tmp/flight50.csv" >/dev/null

step "baseline: uninterrupted server run"
start_server baseline "$tmp/base" ""
flight_id=$(submit flight50 "$tmp/flight50.csv")
tax_id=$(submit tax "$tmp/tax.csv")
wait_job "$flight_id" completed
wait_job "$tax_id" completed
curl -sS "$BASE/jobs/$flight_id/result" >"$tmp/flight_base.json"
curl -sS "$BASE/jobs/$tax_id/result" >"$tmp/tax_base.json"
# The crash below exits at the third level barrier; the dataset must go
# deeper than that or the kill never fires mid-run.
levels=$(jq -r .levels "$tmp/flight_base.json")
[ "$levels" -ge 3 ] || fail "flight50 traversal has only $levels levels; the level-3 kill cannot fire"
stop_server 0

step "kill mid-job (OCD_FAULT=core.level.start:exit:3) with work queued"
# The job reaches its third level in about 0.1 s, so its first reduction
# row sleeps for a second (faultinject.SpecDelay): the two submissions
# below are always queued before the kill.
start_server crash "$tmp/chaos" "core.reduction.row:delay:1;core.level.start:exit:3"
flight_id=$(submit flight50 "$tmp/flight50.csv")
tax_id=$(submit tax "$tmp/tax.csv")
poison_id=$(submit poison "$tmp/tax.csv")
wait_server_exit "$FAULT_EXIT"
[ -s "$tmp/chaos/$flight_id/job.ckpt" ] || fail "crashed job left no snapshot"
state=$(jq -r .state "$tmp/chaos/$flight_id/manifest.json")
[ "$state" = "running" ] || fail "crashed manifest says $state, want running"

step "restart: resume from snapshot, finish the queue, poison the panicking job"
start_server restart "$tmp/chaos" "jobs.run.poison:panic:*"
wait_job "$flight_id" completed
wait_job "$tax_id" completed
# The poison job panics on both attempts; the manager retries with
# backoff and then fails it without taking the server down.
for _ in $(seq 1 600); do
    state=$(curl -sS "$BASE/jobs/$poison_id" | jq -r .state)
    [ "$state" = "failed" ] && break
    sleep 0.1
done
poison_status=$(curl -sS "$BASE/jobs/$poison_id")
[ "$(jq -r .state <<<"$poison_status")" = "failed" ] || fail "poison job not failed: $poison_status"
[ "$(jq -r .error_kind <<<"$poison_status")" = "runner-panic" ] || fail "poison error kind: $poison_status"
[ "$(jq -r .attempts <<<"$poison_status")" -eq 2 ] || fail "poison attempts: $poison_status"
[ -n "$(jq -r .stack <<<"$poison_status")" ] || fail "poison job lost its panic stack"

step "differential: crash+restart results equal the uninterrupted run's"
curl -sS "$BASE/jobs/$flight_id/result" >"$tmp/flight_resumed.json"
curl -sS "$BASE/jobs/$tax_id/result" >"$tmp/tax_after.json"
[ "$(jq -r .resumed "$tmp/flight_resumed.json")" = "true" ] || fail "interrupted job did not resume from its snapshot"
[ "$(jq -r .attempts "$tmp/flight_resumed.json")" -eq 2 ] || fail "resumed job attempts: $(jq .attempts "$tmp/flight_resumed.json")"
diff <(strip_volatile "$tmp/flight_base.json") <(strip_volatile "$tmp/flight_resumed.json") ||
    fail "resumed result differs from the uninterrupted run"
diff <(strip_volatile "$tmp/tax_base.json") <(strip_volatile "$tmp/tax_after.json") ||
    fail "queued-through-crash result differs from the uninterrupted run"

step "health after the storm: server ok, counters consistent"
health=$(curl -sS "$BASE/healthz")
[ "$(jq -r .status <<<"$health")" = "ok" ] || fail "health: $health"
[ "$(jq -r .jobs <<<"$health")" -eq 3 ] || fail "health job count: $health"
metrics=$(curl -sS "$BASE/metrics")
[ "$(jq -r '.counters["jobs.resumed"]' <<<"$metrics")" -ge 1 ] || fail "jobs.resumed counter: $metrics"
[ "$(jq -r '.counters["jobs.failed"]' <<<"$metrics")" -eq 1 ] || fail "jobs.failed counter: $metrics"
stop_server 0

step "graceful drain: SIGTERM mid-job checkpoints and exits 0"
# The whole job takes about 0.1 s, less than a poll and a signal can need,
# so the traversal sleeps for a second (faultinject.SpecDelay) before its
# second level: a SIGTERM sent once the first level reports progress
# always lands mid-job.
start_server drain "$tmp/drain" "core.level.start:delay:2"
slow_id=$(submit flight50 "$tmp/flight50.csv")
# Wait for live progress (discovery underway), then drain mid-run.
for _ in $(seq 1 600); do
    level=$(curl -sS "$BASE/jobs/$slow_id" | jq -r '.progress.level // 0')
    [ "$level" -ge 1 ] && break
    sleep 0.05
done
[ "$level" -ge 1 ] || fail "drain target never reported progress"
stop_server 0
state=$(jq -r .state "$tmp/drain/$slow_id/manifest.json")
interrupted=$(jq -r .interrupted "$tmp/drain/$slow_id/manifest.json")
[ "$state" = "queued" ] || fail "drained manifest says $state, want queued"
[ "$interrupted" = "true" ] || fail "drained manifest not marked interrupted"

step "restart after drain: the interrupted job finishes identically"
start_server postdrain "$tmp/drain" ""
wait_job "$slow_id" completed
curl -sS "$BASE/jobs/$slow_id/result" >"$tmp/flight_drained.json"
diff <(strip_volatile "$tmp/flight_base.json") <(strip_volatile "$tmp/flight_drained.json") ||
    fail "post-drain result differs from the uninterrupted run"
stop_server 0

step "all serve-chaos checks passed"
