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
#   6. chaos tests               go test -count=1 -tags=faultinject ./...
#                                drives the engine's failure paths through
#                                the fault-injection points and runs the
#                                differential harness
#                                (internal/differential: one result in
#                                every execution mode, and the kill,
#                                resume, drain and observability contracts
#                                of ocddiscover and ocdserve); then a -race
#                                pass of the cancellation and chaos tests
#                                (docs/ROBUSTNESS.md). -count=1 because the
#                                harness runs commands it builds, which go
#                                test's cache does not see
#   7. bench smoke               go test -bench runs the observability,
#                                phase, taxinfo and check-primitive root
#                                benchmarks, OCDDISCOVER on HEPATITIS and
#                                the LINEITEM CSV ingestion, string
#                                ranking and parallel OCD check
#                                benchmarks once each (-benchtime=1x),
#                                so they keep compiling and running;
#                                end-to-end numbers come from
#                                bash bench/run.sh
#   8. bench module tests        go -C bench vet/test: bench/ is a Go
#                                module of its own, so ./... above never
#                                reaches it; this runs its toy-scale
#                                workload gates and its catalogue-vs-
#                                BENCHMARK.json test (~2 s)
#   9. fuzz smokes               FuzzCSVParse, FuzzRankEncode,
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

step "chaos: go test -count=1 -tags=faultinject ./... (with the differential harness)"
go test -count=1 -tags=faultinject ./...

step "chaos: go test -tags=faultinject -race (core, faultinject)"
go test -tags=faultinject -race ./internal/core/ ./internal/faultinject/

step "bench smoke: root, ingestion and check benchmarks, one iteration each"
go test . -run '^$' -bench 'BenchmarkObsOverhead|BenchmarkPhase_|BenchmarkProgressFormat|BenchmarkDatasetTaxinfo|BenchmarkAblation_CheckPrimitives' -benchmem -benchtime=1x -count=1
go test . -run '^$' -bench '^BenchmarkTable6$/^ocddiscover$/^HEPATITIS$' -benchmem -benchtime=1x -count=1
go test ./internal/relation -run '^$' -bench '^(BenchmarkReadCSVLineItem|BenchmarkRankStrings)$' -benchmem -benchtime=1x -count=1
go test ./internal/order -run '^$' -bench '^BenchmarkCheckOCDParallel$' -benchmem -benchtime=1x -count=1

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
