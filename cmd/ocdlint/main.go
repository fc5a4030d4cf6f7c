// Command ocdlint runs the repo-specific correctness analyzers over
// the module:
//
//	nopanic        — no panic in library packages; errors instead
//	hotloopalloc   — no per-iteration allocation in // lint:hot loops
//	obshot         — no locking obs calls (registry lookups, span ops)
//	                 in // lint:hot loops; only atomic handle ops
//	errdrop        — module-local error results must be checked on
//	                 every path, not discarded
//	mapdeterminism — map-iteration order must not reach returned
//	                 slices, stream output, checkpoints or channels
//	                 without a sort
//	ctxflow        — context discipline: ctx first parameter, never
//	                 stored in structs; lint:hot loops poll a stop
//	                 signal
//
// Concurrency bugs are left to `go vet` (copylocks) and
// `go test -race`, which the gate runs over every package.
//
// errdrop and mapdeterminism are interprocedural: they export
// per-function summaries (facts, see internal/analysis/cfgutil) that
// the driver carries across packages in dependency order, so a helper
// two packages away that ignores its error parameter or emits its
// argument is judged at the call site.
//
// Usage:
//
//	go run ./cmd/ocdlint [-json] ./...
//
// Exit status is 0 when the tree is clean, 3 when any analyzer
// reported a diagnostic, and 1 on a driver error. Every finding
// blocks. With -json the diagnostics are emitted as a JSON array
// sorted by (package, file, line, col, analyzer, message) — see
// docs/LINTING.md for the schema and the CI annotation pipeline. -h
// prints the analyzer catalogue. Suppress a deliberate finding with a
// "// lint:allow <analyzer>" comment — several checks may share one
// marker, comma-separated — on or above the offending line.
package main

import (
	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/analysis/multichecker"

	"ocd/internal/analysis/ctxflow"
	"ocd/internal/analysis/errdrop"
	"ocd/internal/analysis/hotloopalloc"
	"ocd/internal/analysis/mapdeterminism"
	"ocd/internal/analysis/nopanic"
	"ocd/internal/analysis/obshot"
)

// analyzers is the full suite, in the order findings are documented in
// docs/LINTING.md.
var analyzers = []*analysis.Analyzer{
	nopanic.Analyzer,
	hotloopalloc.Analyzer,
	obshot.Analyzer,
	errdrop.Analyzer,
	mapdeterminism.Analyzer,
	ctxflow.Analyzer,
}

func main() {
	multichecker.Main(analyzers...)
}
