#!/usr/bin/env bash
# resume_chaos.sh — kill-and-resume differential gate (docs/ROBUSTNESS.md).
#
# Builds a fault-injection-tagged ocddiscover, kills it at exact engine
# points via OCD_FAULT, and proves the durable-checkpoint contract:
#
#   1. a run killed mid-level resumes from its snapshot and produces
#      byte-identical output (dependencies, stats, JSON) to an
#      uninterrupted run;
#   2. a run killed during the snapshot rename leaves either no snapshot
#      or the previous intact one — never a torn file;
#   3. a resume against modified input data is refused, fast;
#   4. a truncated checkpointed run prints the snapshot path and an exact
#      resume command, in both text and JSON output;
#   5. the metrics registry survives the crash: a crash+resume run's
#      deterministic counters (checks, candidates, levels, ocds, ods,
#      prunes) equal an uninterrupted run's (cache hit/miss counters
#      legitimately differ — the resumed run starts with cold caches).
#
# Usage: scripts/resume_chaos.sh
set -euo pipefail
cd "$(dirname "$0")/.."

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

step() { printf '\n== resume-chaos: %s\n' "$*"; }
fail() { printf 'resume-chaos: FAIL: %s\n' "$*" >&2; exit 1; }

# Faultinject exit code (faultinject.ExitCode); a crash run finishing with
# any other status means the kill never fired or the engine died wrong.
FAULT_EXIT=86

step "building fault-injection binaries"
go build -tags=faultinject -o "$tmp/ocddiscover" ./cmd/ocddiscover
go build -o "$tmp/datagen" ./cmd/datagen

csv="$tmp/tax.csv"
"$tmp/datagen" -dataset taxinfo -out "$csv" >/dev/null

# Drop the run-to-run / resume-only JSON fields before diffing; everything
# else (dependencies, reductions, checks, candidates, truncation) must be
# byte-identical between a fresh run and a crash+resume run.
strip_volatile() {
    grep -vE '"(elapsed_ms|prior_elapsed_ms|resumed|checkpoints|checkpoint_path|checkpoint_error|resume_command)":' "$1" |
        sed 's/,$//' # dropping a final field leaves a dangling comma upstream
}

step "baseline: uninterrupted run"
"$tmp/ocddiscover" -input "$csv" -json -metrics-out "$tmp/fresh_metrics.json" >"$tmp/fresh.json"

step "kill mid-level 3 (OCD_FAULT=core.level.start:exit:3), then resume"
status=0
OCD_FAULT="core.level.start:exit:3" \
    "$tmp/ocddiscover" -input "$csv" -checkpoint "$tmp/run.ckpt" -metrics-out "$tmp/never.json" -json \
    >/dev/null 2>"$tmp/crash.err" || status=$?
[ "$status" -eq "$FAULT_EXIT" ] || fail "expected exit $FAULT_EXIT from the injected kill, got $status"
[ -s "$tmp/run.ckpt" ] || fail "crashed run left no snapshot at run.ckpt"
"$tmp/ocddiscover" -input "$csv" -resume "$tmp/run.ckpt" -metrics-out "$tmp/resumed_metrics.json" -json \
    >"$tmp/resumed.json"
diff <(strip_volatile "$tmp/fresh.json") <(strip_volatile "$tmp/resumed.json") \
    || fail "resumed output differs from the uninterrupted run"

step "metrics continuity: crash+resume counters equal the uninterrupted run's"
# A counter missing from a dump reads as 0; jq -e exits 1 when the final
# all-equal verdict is false.
jq -n -r -e --arg keys "discover.checks discover.candidates discover.levels discover.ocds discover.ods discover.prunes" \
    --slurpfile a "$tmp/fresh_metrics.json" --slurpfile b "$tmp/resumed_metrics.json" '
    [$keys | split(" ")[] | {key: ., a: ($a[0].counters[.] // 0), b: ($b[0].counters[.] // 0)}]
    | (.[] | "\(.key): \(.a) \(if .a == .b then "==" else "!=" end) \(.b)"), all(.a == .b)' \
    || fail "crash+resume metrics differ from the uninterrupted run"

step "kill during the first snapshot rename: no torn file may appear"
status=0
OCD_FAULT="checkpoint.write.rename:exit:1" \
    "$tmp/ocddiscover" -input "$csv" -checkpoint "$tmp/torn.ckpt" -json \
    >/dev/null 2>&1 || status=$?
[ "$status" -eq "$FAULT_EXIT" ] || fail "rename kill: expected exit $FAULT_EXIT, got $status"
[ ! -e "$tmp/torn.ckpt" ] || fail "a snapshot file exists after a mid-write crash"

step "kill during a later snapshot rename: previous snapshot stays loadable"
status=0
OCD_FAULT="checkpoint.write.rename:exit:2" \
    "$tmp/ocddiscover" -input "$csv" -checkpoint "$tmp/mid.ckpt" -json \
    >/dev/null 2>&1 || status=$?
[ "$status" -eq "$FAULT_EXIT" ] || fail "second rename kill: expected exit $FAULT_EXIT, got $status"
[ -s "$tmp/mid.ckpt" ] || fail "previous snapshot missing after a later-write crash"
"$tmp/ocddiscover" -input "$csv" -resume "$tmp/mid.ckpt" -json >"$tmp/resumed2.json"
diff <(strip_volatile "$tmp/fresh.json") <(strip_volatile "$tmp/resumed2.json") \
    || fail "resume from the surviving earlier snapshot differs from fresh"

step "resume against modified input is refused"
sed '$d' "$csv" >"$tmp/modified.csv"
status=0
"$tmp/ocddiscover" -input "$tmp/modified.csv" -resume "$tmp/run.ckpt" \
    >/dev/null 2>"$tmp/mismatch.err" || status=$?
[ "$status" -eq 1 ] || fail "mismatched resume: expected exit 1, got $status"
grep -q "checkpoint" "$tmp/mismatch.err" || fail "mismatched resume did not mention the checkpoint"

step "truncated run prints the snapshot path and resume command"
status=0
"$tmp/ocddiscover" -input "$csv" -max-level 2 -checkpoint "$tmp/trunc.ckpt" \
    >"$tmp/trunc.txt" 2>&1 || status=$?
[ "$status" -eq 3 ] || fail "truncated text run: expected exit 3, got $status"
grep -q "^checkpoint: $tmp/trunc.ckpt" "$tmp/trunc.txt" || fail "text output lacks the checkpoint path"
grep -q "^resume with: .*-resume=$tmp/trunc.ckpt" "$tmp/trunc.txt" || fail "text output lacks the resume command"
"$tmp/ocddiscover" -input "$csv" -max-level 2 -checkpoint "$tmp/trunc.ckpt" -json -partial-ok \
    >"$tmp/trunc.json"
grep -q '"resume_command": ' "$tmp/trunc.json" || fail "JSON output lacks resume_command"
grep -q "\"checkpoint_path\": \"$tmp/trunc.ckpt\"" "$tmp/trunc.json" || fail "JSON output lacks checkpoint_path"

step "all resume-chaos checks passed"
