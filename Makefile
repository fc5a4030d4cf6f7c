# Convenience wrappers around the check gate; scripts/check.sh is the
# source of truth for what CI runs.

.PHONY: build test race lint chaos resume-chaos serve-chaos obs-chaos fuzz bench-test check

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
# delays — then repeats the concurrency-sensitive packages under -race.
chaos:
	go test -tags=faultinject ./...
	go test -tags=faultinject -race ./internal/core/ ./internal/faultinject/

# resume-chaos kills a fault-injection build of ocddiscover mid-level and
# mid-snapshot-rename, resumes from the surviving checkpoint, and diffs
# the output against an uninterrupted run (docs/ROBUSTNESS.md).
resume-chaos:
	scripts/resume_chaos.sh

# serve-chaos crashes a faultinject ocdserve mid-job, restarts it on the
# same data directory, and requires resumed results byte-identical to an
# uninterrupted server, a poison job failed after max-attempts, and a
# clean SIGTERM drain (docs/SERVICE.md).
serve-chaos:
	scripts/serve_chaos.sh

# obs-chaos proves the observability contract: Prometheus text matching
# the JSON snapshot, SSE streams with monotone ids whose done event is
# bound to the result hash, a Last-Event-ID reconnect across a mid-stream
# server kill, per-job Chrome traces, and parseable structured logs
# (docs/OBSERVABILITY.md).
obs-chaos:
	scripts/obs_chaos.sh

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
