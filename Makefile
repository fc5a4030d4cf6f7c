# Convenience wrappers around the check gate; scripts/check.sh is the
# source of truth for what CI runs.

.PHONY: build test race lint chaos fuzz bench-test check

build:
	go build ./...

test:
	go test ./...

race:
	go test -race ./...

# lint runs go vet plus the full twelve-analyzer ocdlint suite
# (docs/LINTING.md); every finding fails it.
lint:
	go vet ./...
	go run ./cmd/ocdlint ./...

# chaos compiles in the fault-injection points (docs/ROBUSTNESS.md) and
# drives the engine's failure paths: worker panics, injected cancels,
# delays. It runs the differential harness (internal/differential): every
# input gives one result in every execution mode, and ocddiscover and
# ocdserve keep their kill, resume, drain and observability contracts.
# CHAOS_ARTIFACT_DIR keeps the harness's server logs, Prometheus scrape and
# trace. -count=1: go test's cache does not see the commands the harness
# builds. Then the concurrency-sensitive packages repeat under -race.
chaos:
	go test -count=1 -tags=faultinject ./...
	go test -tags=faultinject -race ./internal/core/ ./internal/faultinject/

fuzz:
	go test -run='^$$' -fuzz='^FuzzCSVParse$$' -fuzztime=$${FUZZTIME:-10s} ./internal/relation/
	go test -run='^$$' -fuzz='^FuzzRankEncode$$' -fuzztime=$${FUZZTIME:-10s} ./internal/relation/
	go test -run='^$$' -fuzz='^FuzzReadCSVMatchesReference$$' -fuzztime=$${FUZZTIME:-10s} ./internal/relation/
	go test -run='^$$' -fuzz='^FuzzSplitMatchesEncodingCSV$$' -fuzztime=$${FUZZTIME:-10s} ./internal/relation/
	go test -run='^$$' -fuzz='^FuzzCheckMatchesBruteForce$$' -fuzztime=$${FUZZTIME:-10s} ./internal/order/
	go test -run='^$$' -fuzz='^FuzzCheckpointDecode$$' -fuzztime=$${FUZZTIME:-10s} ./internal/checkpoint/
	go test -run='^$$' -fuzz='^FuzzDiscoverMatchesTreeOracle$$' -fuzztime=$${FUZZTIME:-10s} ./internal/core/

# bench-test vets and tests the repository benchmark (bench/), a Go module
# of its own that ./... does not reach: its toy-scale workload gates and
# the catalogue-vs-BENCHMARK.json test.
bench-test:
	go -C bench vet ./...
	go -C bench test ./...

check:
	scripts/check.sh
