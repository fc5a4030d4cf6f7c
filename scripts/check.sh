#!/usr/bin/env bash
# check.sh — the full correctness gate for the OCD repo.
#
# Runs, in order:
#   1. go build ./...            compile everything, including cmd/
#   2. go vet ./...              stdlib static checks
#   3. gofmt -l                  every Go file outside testdata/
#                                directories is gofmt-formatted
#   4. ocdlint                   the repo's own go/analysis suite
#                                (nopanic, atomicfield, listalias,
#                                hotloopalloc, obshot, lockbalance,
#                                wgcheck, errdrop, sharedwrite,
#                                mapdeterminism, goroutineleak,
#                                ctxflow; see docs/LINTING.md); every
#                                finding fails the gate
#   5. go test -race ./...       unit + integration tests under the
#                                race detector (the parallel traversal
#                                must stay race-clean)
#   6. chaos tests               go test -tags=faultinject ./... drives
#                                the engine's failure paths (worker
#                                panics, injected cancels, delays)
#                                through the fault-injection points, plus
#                                a -race pass of the cancellation and
#                                chaos tests (docs/ROBUSTNESS.md)
#   7. resume chaos              scripts/resume_chaos.sh kills a
#                                faultinject ocddiscover mid-level and
#                                mid-snapshot-rename, resumes from the
#                                checkpoint, and diffs the output against
#                                an uninterrupted run
#   8. serve chaos               scripts/serve_chaos.sh crashes a
#                                faultinject ocdserve mid-job, restarts
#                                it on the same data directory, and
#                                requires byte-identical resumed results,
#                                a poisoned crash-looping job, and a
#                                clean SIGTERM drain
#   9. obs chaos                 scripts/obs_chaos.sh scrapes the job
#                                server in both metrics formats and
#                                requires them to agree, streams SSE
#                                through a mid-stream server kill with a
#                                Last-Event-ID reconnect (monotone ids,
#                                done bound to the result hash), fetches
#                                the per-job Chrome trace, and parses the
#                                structured logs
#  10. bench smoke               go test -bench runs the observability,
#                                phase, taxinfo and check-primitive root
#                                benchmarks once each (-benchtime=1x), so
#                                they keep compiling and running;
#                                end-to-end numbers come from
#                                bash bench/run.sh
#  11. bench module tests        go -C bench vet/test: bench/ is a Go
#                                module of its own, so ./... above never
#                                reaches it; this runs its toy-scale
#                                workload gates and its catalogue-vs-
#                                BENCHMARK.json test (~2 s)
#  12. fuzz smokes               FuzzCSVParse, FuzzRankEncode,
#                                FuzzReadCSVMatchesReference,
#                                FuzzSplitMatchesEncodingCSV,
#                                FuzzCheckMatchesBruteForce,
#                                FuzzCheckpointDecode and
#                                FuzzDiscoverMatchesTreeOracle for
#                                FUZZTIME each (default 10s)
#
# Usage:
#   scripts/check.sh             full gate
#   FUZZTIME=30s scripts/check.sh
#   FUZZTIME=0 scripts/check.sh  skip the fuzz smokes (corpus seeds
#                                still run as regular tests in step 5)
set -euo pipefail
cd "$(dirname "$0")/.."

FUZZTIME="${FUZZTIME:-10s}"

step() { printf '\n== %s\n' "$*"; }

step "go build ./..."
go build ./...

step "go vet ./..."
go vet ./...

step "gofmt -l . (outside testdata/)"
unformatted="$(gofmt -l . | grep -v '/testdata/' || true)"
if [ -n "$unformatted" ]; then
    printf 'not gofmt-formatted:\n%s\n' "$unformatted" >&2
    exit 1
fi

step "ocdlint ./..."
go run ./cmd/ocdlint ./...

step "go test -race ./..."
go test -race ./...

step "chaos: go test -tags=faultinject ./..."
go test -tags=faultinject ./...

step "chaos: go test -tags=faultinject -race (core, faultinject)"
go test -tags=faultinject -race ./internal/core/ ./internal/faultinject/

step "chaos: kill-and-resume differential (scripts/resume_chaos.sh)"
scripts/resume_chaos.sh

step "chaos: job-server kill-and-restart differential (scripts/serve_chaos.sh)"
scripts/serve_chaos.sh

step "chaos: observability gate (scripts/obs_chaos.sh)"
scripts/obs_chaos.sh

step "bench smoke: root benchmarks, one iteration each"
go test . -run '^$' -bench 'BenchmarkObsOverhead|BenchmarkPhase_|BenchmarkProgressFormat|BenchmarkDatasetTaxinfo|BenchmarkAblation_CheckPrimitives' -benchmem -benchtime=1x -count=1

step "bench module: go -C bench vet ./... && go -C bench test ./..."
go -C bench vet ./...
go -C bench test ./...

if [ "$FUZZTIME" != "0" ]; then
    for target in FuzzCSVParse FuzzRankEncode FuzzReadCSVMatchesReference FuzzSplitMatchesEncodingCSV; do
        step "fuzz $target ($FUZZTIME)"
        go test -run='^$' -fuzz="^${target}\$" -fuzztime="$FUZZTIME" ./internal/relation/
    done
    step "fuzz FuzzCheckMatchesBruteForce ($FUZZTIME)"
    go test -run='^$' -fuzz='^FuzzCheckMatchesBruteForce$' -fuzztime="$FUZZTIME" ./internal/order/
    step "fuzz FuzzCheckpointDecode ($FUZZTIME)"
    go test -run='^$' -fuzz='^FuzzCheckpointDecode$' -fuzztime="$FUZZTIME" ./internal/checkpoint/
    step "fuzz FuzzDiscoverMatchesTreeOracle ($FUZZTIME)"
    go test -run='^$' -fuzz='^FuzzDiscoverMatchesTreeOracle$' -fuzztime="$FUZZTIME" ./internal/core/
fi

step "all checks passed"
