# Convenience wrappers around the check gate; scripts/check.sh is the
# source of truth for what CI runs.

.PHONY: build test race lint lint-json lint-fix lint-fix-diff lint-baseline lint-timings chaos resume-chaos serve-chaos obs-chaos fuzz bench bench-smoke bench-test check

build:
	go build ./...

test:
	go test ./...

race:
	go test -race ./...

# lint runs go vet plus the full twelve-analyzer ocdlint suite
# (docs/LINTING.md). -baseline-strict also fails on stale entries in
# lint.baseline.json, so the baseline can only shrink. lint-json emits
# the findings as a JSON array for machine consumption; lint-baseline
# regenerates the committed baseline after paying down a warn finding.
lint:
	go vet ./...
	go run ./cmd/ocdlint -baseline-strict ./...

lint-json:
	go run ./cmd/ocdlint -json ./...

# lint-fix applies the machine-applicable suggested fixes (errdrop
# error wrapping, mapdeterminism slices.Sort insertion, ctxflow stop
# polls; docs/LINTING.md) in place; lint-fix-diff previews the same
# edits as a unified diff without writing.
lint-fix:
	go run ./cmd/ocdlint -fix ./...

lint-fix-diff:
	go run ./cmd/ocdlint -fix -diff ./...

lint-baseline:
	go run ./cmd/ocdlint -write-baseline ./...

# lint-timings refreshes the committed wall-time reference that CI
# holds the suite to (fails beyond 2x total_millis; see check.yml).
lint-timings:
	go run ./cmd/ocdlint -json -timings ./... | \
		jq '{timings: .timings, total_millis: .total_millis}' > lint.timings.json

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

# bench runs the tracked benchmark set, writes BENCH_<date>.json and
# compares it against the latest committed baseline (>10% slowdowns exit 3;
# see docs/OBSERVABILITY.md). bench-smoke is the cheap CI variant: one
# iteration per benchmark, output parsed, nothing written.
bench:
	scripts/bench.sh

bench-smoke:
	scripts/bench.sh --smoke

# bench-test vets and tests the repository benchmark (bench/), a Go module
# of its own that ./... does not reach: its toy-scale workload gates and
# the catalogue-vs-BENCHMARK.json test.
bench-test:
	go -C bench vet ./...
	go -C bench test ./...

check:
	scripts/check.sh
