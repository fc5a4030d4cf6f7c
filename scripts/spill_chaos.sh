#!/usr/bin/env bash
# spill_chaos.sh — out-of-core degradation gate (docs/ROBUSTNESS.md).
#
# Builds fault-injection-tagged binaries and proves that memory pressure is
# a degradation mode, never a correctness mode:
#
#   1. a run squeezed to a 1-byte heap budget with a spill dir completes
#      un-truncated, spills (evictions > 0), and its dependencies and
#      deterministic stats are byte-identical to an unconstrained run's;
#   2. the truncation ladder: the same budget *without* a spill dir is the
#      only way to reach truncate_reason "memory-budget";
#   3. damaged spill I/O degrades without wrong results: torn segments
#      (spill.write.torn), bit rot (spill.read.corrupt) and hard read
#      faults (spill.read) all recompute and stay byte-identical; a
#      transient first-read fault is absorbed by the retry rung; total
#      write failure (spill.write) falls back to the typed memory-budget
#      truncation — degraded, labelled, correct;
#   4. a process killed mid-spill-write leaves segments behind; the next
#      run over the same spill dir sweeps them and produces identical
#      output, resuming from the checkpoint when one was cut;
#   5. the job server under a memory budget spills per job (result
#      identical to an unbudgeted server's), reports the data volume's
#      free bytes in /healthz, and refuses submissions with a typed 503 +
#      Retry-After when free space is below -min-free-bytes.
#
# Artifacts (JSON outputs, server logs, spill-dir listings) land in
# $SPILL_CHAOS_LOGDIR (default: the temp dir) so CI can upload them when a
# check fails.
#
# Usage: scripts/spill_chaos.sh
set -euo pipefail
cd "$(dirname "$0")/.."

tmp="$(mktemp -d)"
SERVER_PID=""
cleanup() {
    [ -n "$SERVER_PID" ] && kill -9 "$SERVER_PID" 2>/dev/null
    rm -rf "$tmp"
}
trap cleanup EXIT

LOGDIR="${SPILL_CHAOS_LOGDIR:-$tmp/logs}"
mkdir -p "$LOGDIR"

step() { printf '\n== spill-chaos: %s\n' "$*"; }
fail() {
    # Capture the spill dirs' state for the failure artifact before dying.
    find "$tmp" -name '*.seg' -o -name 'spill' -type d 2>/dev/null >"$LOGDIR/spill-listing.txt" || true
    printf 'spill-chaos: FAIL: %s\n' "$*" >&2
    exit 1
}

FAULT_EXIT=86
BUDGET=1 # bytes: always over budget, so every level exercises the ladder

# discover <out.json> [flags...]: run ocddiscover -json on the HORSE replica.
# Checkers cache only the prefixes of sides of three or more attributes;
# a shallow input such as TAXINFO never derives one, so a 1-byte budget
# would find nothing to spill (the rung stays idle, as designed).
discover() {
    local out=$1
    shift
    "$tmp/ocddiscover" -input "$tmp/horse.csv" -json -partial-ok "$@" \
        >"$LOGDIR/$out" 2>"$LOGDIR/${out%.json}.err"
}

# strip_volatile: drop per-execution fields; dependencies, reductions and
# deterministic stats must be byte-identical across every schedule.
strip_volatile() {
    jq 'del(.elapsed_ms, .prior_elapsed_ms, .resumed, .checkpoints,
            .checkpoint_path, .checkpoint_error, .resume_command,
            .spill_evictions, .spill_reloads, .spill_error)' "$LOGDIR/$1"
}

# assert_identical <got.json>: differential against the unconstrained run.
assert_identical() {
    diff <(strip_volatile baseline.json) <(strip_volatile "$1") ||
        fail "$1 differs from the unconstrained baseline"
}

jfield() { jq -r "$2" "$LOGDIR/$1"; }

step "building fault-injection binaries"
go build -tags=faultinject -o "$tmp/ocddiscover" ./cmd/ocddiscover
go build -tags=faultinject -o "$tmp/ocdserve" ./cmd/ocdserve
go build -o "$tmp/datagen" ./cmd/datagen
"$tmp/datagen" -dataset horse -out "$tmp/horse.csv" >/dev/null

step "baseline: unconstrained in-memory run"
discover baseline.json
[ "$(jfield baseline.json .truncated)" = "false" ] || fail "baseline truncated"

step "1-byte budget + spill dir completes out-of-core"
discover spill_index.json -max-memory-bytes "$BUDGET" -spill-dir "$tmp/spill-index"
[ "$(jfield spill_index.json .truncated)" = "false" ] || fail "budgeted index run truncated: $(jfield spill_index.json .truncate_reason)"
[ "$(jfield spill_index.json '.spill_evictions // 0')" -gt 0 ] || fail "budgeted index run never spilled"
assert_identical spill_index.json

# seg_count <dir>: spill segments in dir; a clean run may have removed the
# directory entirely, which counts as zero.
seg_count() {
    if [ -d "$1" ]; then find "$1" -name '*.seg' | wc -l; else echo 0; fi
}

leftovers=$(seg_count "$tmp/spill-index")
[ "$leftovers" -eq 0 ] || fail "$leftovers spill segments left in $tmp/spill-index after a clean run"

step "truncation ladder: the same budget without a spill dir truncates, typed"
discover nospill.json -max-memory-bytes "$BUDGET"
[ "$(jfield nospill.json .truncate_reason)" = "memory-budget" ] ||
    fail "budget without spill dir: truncate_reason=$(jfield nospill.json .truncate_reason), want memory-budget"

step "torn spill segments (spill.write.torn:err:*) recompute, identical output"
OCD_FAULT="spill.write.torn:err:*" \
    discover torn.json -max-memory-bytes "$BUDGET" -spill-dir "$tmp/spill-torn"
[ "$(jfield torn.json .truncated)" = "false" ] || fail "torn-segment run truncated"
assert_identical torn.json

step "spill bit rot (spill.read.corrupt:err:*) recomputes, identical output"
OCD_FAULT="spill.read.corrupt:err:*" \
    discover bitrot.json -max-memory-bytes "$BUDGET" -spill-dir "$tmp/spill-rot"
[ "$(jfield bitrot.json .truncated)" = "false" ] || fail "bit-rot run truncated"
assert_identical bitrot.json

step "hard read faults (spill.read:err:*) degrade to recompute, identical output"
OCD_FAULT="spill.read:err:*" \
    discover readfail.json -max-memory-bytes "$BUDGET" -spill-dir "$tmp/spill-readfail"
[ "$(jfield readfail.json .truncated)" = "false" ] || fail "read-fault run truncated"
[ "$(jfield readfail.json '.spill_reloads // 0')" -eq 0 ] || fail "read-fault run claims reloads despite every read failing"
assert_identical readfail.json

step "transient first-read fault (spill.read:err:1) absorbed by the retry rung"
OCD_FAULT="spill.read:err:1" \
    discover transient.json -max-memory-bytes "$BUDGET" -spill-dir "$tmp/spill-transient"
[ "$(jfield transient.json .truncated)" = "false" ] || fail "transient-fault run truncated"
[ "$(jfield transient.json '.spill_reloads // 0')" -gt 0 ] || fail "transient-fault run never reloaded (retry rung dead)"
assert_identical transient.json

step "total write failure (spill.write:err:*) falls back to typed truncation"
OCD_FAULT="spill.write:err:*" \
    discover writefail.json -max-memory-bytes "$BUDGET" -spill-dir "$tmp/spill-writefail"
[ "$(jfield writefail.json .truncate_reason)" = "memory-budget" ] ||
    fail "write-fault run: truncate_reason=$(jfield writefail.json .truncate_reason), want memory-budget"
# Everything it did report must still be correct: its ODs/OCDs must be a
# subset of the baseline's.
jq -e --slurpfile base "$LOGDIR/baseline.json" \
    '([(.ocds // [])[] | tostring] - [($base[0].ocds // [])[] | tostring] == []) and
     ([(.ods // [])[]  | tostring] - [($base[0].ods // [])[]  | tostring] == [])' \
    "$LOGDIR/writefail.json" >/dev/null || fail "write-fault run reported dependencies the baseline does not have"

step "kill mid-spill-write (spill.write:exit:3), rerun over the dirty dir"
status=0
OCD_FAULT="spill.write:exit:3" "$tmp/ocddiscover" \
    -input "$tmp/horse.csv" -json -max-memory-bytes "$BUDGET" \
    -spill-dir "$tmp/spill-crash" -checkpoint "$tmp/crash.ckpt" \
    >/dev/null 2>"$LOGDIR/crash.err" || status=$?
[ "$status" -eq "$FAULT_EXIT" ] || fail "expected exit $FAULT_EXIT from the injected mid-spill kill, got $status"
seg_count "$tmp/spill-crash" >"$LOGDIR/crash-orphans.txt"
resume_flags=()
if [ -s "$tmp/crash.ckpt" ]; then
    resume_flags=(-resume "$tmp/crash.ckpt")
fi
"$tmp/ocddiscover" -input "$tmp/horse.csv" -json -partial-ok \
    -max-memory-bytes "$BUDGET" -spill-dir "$tmp/spill-crash" "${resume_flags[@]}" \
    >"$LOGDIR/crashresume.json" 2>"$LOGDIR/crashresume.err"
[ "$(jfield crashresume.json .truncated)" = "false" ] || fail "post-crash run truncated"
assert_identical crashresume.json
leftovers=$(seg_count "$tmp/spill-crash")
[ "$leftovers" -eq 0 ] || fail "$leftovers orphan spill segments survived the post-crash run"

step "server leg: per-job spill under a shared budget, identical results"
start_server() {
    local name=$1 dir=$2
    shift 2
    mkdir -p "$dir"
    rm -f "$dir/addr"
    "$tmp/ocdserve" -dir "$dir" -addr 127.0.0.1:0 -addr-file "$dir/addr" \
        -max-active 1 "$@" >>"$LOGDIR/$name.log" 2>&1 &
    SERVER_PID=$!
    for _ in $(seq 1 200); do
        [ -s "$dir/addr" ] && break
        kill -0 "$SERVER_PID" 2>/dev/null || fail "server $name died before serving (see $LOGDIR/$name.log)"
        sleep 0.05
    done
    [ -s "$dir/addr" ] || fail "server $name never wrote its address file"
    BASE="http://$(head -n1 "$dir/addr")"
}
stop_server() {
    kill -TERM "$SERVER_PID"
    wait "$SERVER_PID" || fail "server exited non-zero on drain"
    SERVER_PID=""
}
wait_job() {
    local id=$1 body state
    for _ in $(seq 1 1200); do
        body=$(curl -sS "$BASE/jobs/$id")
        state=$(jq -r .state <<<"$body")
        [ "$state" = "completed" ] && return 0
        case "$state" in failed | cancelled) fail "job $id settled as $state: $body" ;; esac
        sleep 0.1
    done
    fail "job $id never completed: $(curl -sS "$BASE/jobs/$id")"
}
strip_job_volatile() {
    jq 'del(.id, .elapsed_ms, .prior_elapsed_ms, .resumed, .checkpoints,
            .attempts, .spill_evictions, .spill_reloads, .spill_error)' "$1"
}

start_server plain "$tmp/srv-plain"
id=$(curl -sS -X POST --data-binary @"$tmp/horse.csv" "$BASE/jobs?name=horse" | jq -er .id)
wait_job "$id"
curl -sS "$BASE/jobs/$id/result" >"$tmp/job_plain.json"
stop_server

# The upload cap would otherwise derive from the (tiny) per-job budget;
# spilling, not admission, is what the budget is meant to squeeze here.
start_server budget "$tmp/srv-budget" -max-memory-bytes "$BUDGET" -max-upload-bytes 1048576
id=$(curl -sS -X POST --data-binary @"$tmp/horse.csv" "$BASE/jobs?name=horse" | jq -er .id)
wait_job "$id"
curl -sS "$BASE/jobs/$id/result" >"$tmp/job_budget.json"
[ "$(jq -r .truncate_reason "$tmp/job_budget.json")" != "memory-budget" ] ||
    fail "budgeted job truncated by memory despite its per-job spill dir"
[ "$(jq -r '.spill_evictions // 0' "$tmp/job_budget.json")" -gt 0 ] || fail "budgeted job never spilled"
diff <(strip_job_volatile "$tmp/job_plain.json") <(strip_job_volatile "$tmp/job_budget.json") ||
    fail "budgeted server result differs from the unbudgeted server's"
health=$(curl -sS "$BASE/healthz")
[ "$(jq -r .free_bytes <<<"$health")" -ge 0 ] || fail "healthz free_bytes unknown: $health"
stop_server

step "low-disk floor: submissions refused with typed 503 + Retry-After"
start_server lowdisk "$tmp/srv-lowdisk" -min-free-bytes 9223372036854775807
code=$(curl -sS -D "$tmp/lowdisk_hdrs.txt" -o "$tmp/lowdisk_body.json" -w '%{http_code}' \
    -X POST --data-binary @"$tmp/horse.csv" "$BASE/jobs?name=refused")
[ "$code" = "503" ] || fail "low-disk submit returned $code, want 503"
[ "$(jq -r .kind "$tmp/lowdisk_body.json")" = "low-disk" ] || fail "low-disk kind: $(cat "$tmp/lowdisk_body.json")"
grep -qi '^Retry-After:' "$tmp/lowdisk_hdrs.txt" || fail "low-disk 503 carries no Retry-After"
health=$(curl -sS "$BASE/healthz")
[ "$(jq -r .status <<<"$health")" = "low-disk" ] || fail "low-disk healthz status: $health"
[ "$(jq -r .low_disk <<<"$health")" = "true" ] || fail "low-disk healthz flag: $health"
stop_server

step "all spill-chaos checks passed"
