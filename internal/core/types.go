// Package core implements OCDDISCOVER (Algorithm 1 of the paper): complete
// discovery of order dependencies over a relation instance, guided by the
// search for order compatibility dependencies.
//
// The search runs breadth-first over the candidate tree of Section 4.2. A
// node is a pair of disjoint attribute lists (X, Y); the node is *valid* when
// the OCD X ~ Y holds, which by Theorem 4.1 needs the single order check
// XY → YX. Valid nodes are emitted and extended: attribute A ∉ X ∪ Y joins
// the left side only if the OD X → Y fails, and the right side only if
// Y → X fails (Algorithm 3's pruning) — when the OD holds, the extended OCDs
// are derivable and therefore redundant. Invalid nodes are leaves, justified
// by the downward-closure pruning rule (Theorem 3.7).
//
// Before the traversal, a column-reduction phase (Section 4.1) removes
// constant columns (ordered by everything) and collapses order-equivalent
// columns into representatives via Tarjan's SCC algorithm on the graph of
// single-attribute ODs.
//
// Each level of the tree is processed by a pool of goroutines, mirroring the
// paper's multi-threaded traversal (Section 4.2.2). Each worker checks
// through its own order.Handle, a private rank-vector cache, and claims
// consecutive chunks of the level so that siblings, which share prefixes,
// meet the same cache.
package core

import (
	"fmt"
	"time"

	"ocd/internal/attr"
	"ocd/internal/checkpoint"
	"ocd/internal/obs"
)

// OCD is an order compatibility dependency X ~ Y: sorting by XY also sorts
// by YX and vice versa (Definition 2.4).
type OCD struct {
	X, Y attr.List
}

// Format renders the OCD with the given attribute naming function.
func (d OCD) Format(names func(attr.ID) string) string {
	return d.X.Format(names) + " ~ " + d.Y.Format(names)
}

// OD is an order dependency X → Y: any ordering by X is also an ordering by
// Y (Definition 2.2).
type OD struct {
	X, Y attr.List
}

// Format renders the OD with the given attribute naming function.
func (d OD) Format(names func(attr.ID) string) string {
	return d.X.Format(names) + " -> " + d.Y.Format(names)
}

// Options configure a discovery run.
type Options struct {
	// Workers is the number of parallel goroutines traversing the
	// candidate tree; values < 1 select runtime.GOMAXPROCS(0). This is the
	// run-time thread parameter of Section 4.2.2.
	Workers int
	// IndexCacheSize bounds the rank-vector caches of the order checker,
	// in vectors over all workers: each level worker has a private cache
	// holding its share (with more workers than vectors, some workers
	// cache nothing). 0 selects the default (64 vectors), a negative value
	// disables caching.
	IndexCacheSize int
	// Timeout bounds wall-clock time; when exceeded the run stops at a
	// level boundary and returns partial results with Truncated set,
	// matching the paper's 5-hour-threshold reporting. Zero means no limit.
	Timeout time.Duration
	// MaxCandidates aborts (Truncated) once more than this many candidates
	// have been generated; zero means no limit. A safety valve for
	// quasi-constant-column blow-ups (Section 5.4). Workers publish the
	// children they generate once per chunk of at most 64 candidates, so
	// a level can overshoot the cap by at most one chunk's children per
	// worker before it stops.
	MaxCandidates int64
	// MaxLevel stops the traversal after the given tree level (a level-ℓ
	// candidate has |X|+|Y| = ℓ); zero means no limit.
	MaxLevel int
	// DisableColumnReduction skips Section 4.1's reduction phase. Only
	// meant for ablation benchmarks; results then contain redundant
	// dependencies among equivalent or constant columns.
	DisableColumnReduction bool
	// Columns restricts discovery to a subset of attributes, supporting
	// the "most interesting columns" mode of Section 5.4. Nil means all.
	Columns []attr.ID
	// MaxMemoryBytes is a soft heap budget, checked via runtime.ReadMemStats
	// at level boundaries against the whole process's heap. When crossed
	// the engine releases every worker's rank-vector cache and forces a GC;
	// later cache misses recompute their vectors from column codes. The run
	// truncates with TruncateMemoryBudget when the heap is still over
	// budget after the release. Zero means no budget.
	MaxMemoryBytes int64
	// CheckpointPath, when non-empty, makes the run durable: a snapshot of
	// the BFS state is atomically written there at level barriers and when
	// the run truncates for any reason, so an interrupted run can restart
	// from its last completed level via Resume instead of from scratch.
	// A snapshot write failure never aborts discovery; the first failure
	// disables checkpointing for the rest of the run and is recorded in
	// Stats.CheckpointError.
	CheckpointPath string
	// Resume restarts the traversal from a previously written snapshot
	// instead of from the initial candidate level. The snapshot's dataset
	// fingerprint must match the relation (DiscoverContext fails fast with
	// an error wrapping checkpoint.ErrMismatch otherwise), and the
	// snapshot's recorded column universe and reduction setting override
	// Columns/DisableColumnReduction so a resumed run reproduces the
	// original run's remaining work exactly.
	Resume *checkpoint.Snapshot
	// Metrics, when non-nil, receives live run instrumentation: counters,
	// gauges and histograms under the names documented in
	// docs/OBSERVABILITY.md. Snapshots of the registry are safe at any
	// time during the run; on a checkpointed run the registry state is
	// persisted at level barriers and restored on Resume, so crash +
	// resume counter totals equal an uninterrupted run's. Nil disables
	// metrics at zero cost on the check path.
	Metrics *obs.Registry
	// Trace, when non-nil, is the parent span under which the run records
	// its phase hierarchy: discover → reduction → each level → per-worker
	// check batches. Typically a Tracer's root span, alongside the parse
	// and rank-encode spans recorded at load time. Nil disables tracing.
	Trace *obs.Span
	// Reporter, when non-nil, receives live progress samples at level
	// barriers and every ReportEvery checks (from whichever worker
	// crosses the threshold — implementations must be concurrency-safe),
	// plus one final sample. Nil disables progress reporting.
	Reporter obs.Reporter
	// ReportEvery is the check cadence of mid-level progress reports;
	// values < 1 select the default (10000 checks).
	ReportEvery int64
}

const defaultIndexCacheSize = 64

func (o Options) workers() int {
	if o.Workers < 1 {
		return 0 // resolved by the discoverer to GOMAXPROCS
	}
	return o.Workers
}

// TruncateReason explains why a run returned partial results.
type TruncateReason int

const (
	// TruncateNone: the run completed the full traversal.
	TruncateNone TruncateReason = iota
	// TruncateTimeout: Options.Timeout (or the parent context's deadline)
	// expired.
	TruncateTimeout
	// TruncateMaxCandidates: the candidate budget of Options.MaxCandidates
	// was exhausted.
	TruncateMaxCandidates
	// TruncateMaxLevel: the traversal reached Options.MaxLevel.
	TruncateMaxLevel
	// TruncateCancelled: the caller's context was cancelled.
	TruncateCancelled
	// TruncateMemoryBudget: the heap stayed over Options.MaxMemoryBytes
	// after the checker caches were released and a GC forced.
	TruncateMemoryBudget
	// TruncateWorkerPanic: a level worker panicked; the partial Result is
	// accompanied by a *PanicError.
	TruncateWorkerPanic
)

// String names the reason; TruncateNone renders as the empty string.
func (t TruncateReason) String() string {
	switch t {
	case TruncateTimeout:
		return "timeout"
	case TruncateMaxCandidates:
		return "candidate-cap"
	case TruncateMaxLevel:
		return "level-cap"
	case TruncateCancelled:
		return "cancelled"
	case TruncateMemoryBudget:
		return "memory-budget"
	case TruncateWorkerPanic:
		return "worker-panic"
	}
	return ""
}

// Stats aggregates counters of a run, the execution statistics of Table 6.
type Stats struct {
	// Checks is the number of order checks performed (OCD and OD checks),
	// the "#checks" column of Table 6.
	Checks int64
	// Candidates is the total number of candidates generated for the
	// tree, including the initial level.
	Candidates int64
	// Prunes is the number of candidates whose OCD check failed, each the
	// root of a subtree Theorem 3.7 prunes.
	Prunes int64
	// Levels is the number of tree levels processed.
	Levels int
	// Elapsed is the wall-clock duration of the run.
	Elapsed time.Duration
	// Truncated indicates the results are partial (the paper reports these
	// rows with a †). Kept alongside Reason for compatibility.
	Truncated bool
	// Reason records why the run truncated; TruncateNone on complete runs.
	Reason TruncateReason
	// MemoryReleases counts how often the soft memory budget forced the
	// checker caches to be released (graceful degradation short of
	// truncating the run).
	MemoryReleases int
	// Checkpoints counts the snapshots written during the run (periodic
	// level barriers plus the final truncation/completion snapshot).
	Checkpoints int
	// CheckpointError records the first snapshot-write failure; further
	// checkpointing was disabled from that point. Empty when every write
	// succeeded (or checkpointing was off).
	CheckpointError string
	// Resumed marks a run restarted from a snapshot; Checks, Candidates,
	// Prunes, Levels and MemoryReleases then include the original run's
	// counters up to the snapshot barrier, so the totals of crash + resume
	// equal an uninterrupted run. Elapsed covers only the resumed run; the
	// original run's wall-clock time is in PriorElapsed.
	Resumed bool
	// PriorElapsed is the cumulative wall-clock time of the earlier run(s)
	// up to the snapshot barrier this run resumed from; zero on fresh
	// runs. Elapsed+PriorElapsed is the total cost of the whole
	// (interrupted) discovery.
	PriorElapsed time.Duration
}

// Result is the output of a discovery run.
type Result struct {
	// RelationName labels the run.
	RelationName string
	// OCDs are the minimal order compatibility dependencies found, both
	// sides disjoint and over reduced columns (Definition 3.4).
	OCDs []OCD
	// ODs are the valid order dependencies X → Y found at valid OCD nodes
	// (Lines 9 and 16 of Algorithm 3).
	ODs []OD
	// Constants are the constant columns removed in the reduction phase;
	// each is ordered by every attribute list.
	Constants []attr.ID
	// EquivClasses are the order-equivalence classes of size ≥ 2 found in
	// the reduction phase; the first element of each class is the
	// representative kept during the search.
	EquivClasses [][]attr.ID
	// Stats holds execution counters.
	Stats Stats
}

// NumOCDs returns len(OCDs), for readable reporting call sites.
func (r *Result) NumOCDs() int { return len(r.OCDs) }

// NumODs returns len(ODs).
func (r *Result) NumODs() int { return len(r.ODs) }

// truncate marks the result partial; the first reason recorded wins.
func (r *Result) truncate(reason TruncateReason) {
	r.Stats.Truncated = true
	if r.Stats.Reason == TruncateNone {
		r.Stats.Reason = reason
	}
}

// PanicError reports a panic recovered during discovery. Worker panics
// carry the candidate that was being processed; panics recovered at the
// DiscoverContext boundary (outside the level workers) leave Candidate
// empty. The run's partial Result is returned alongside the error.
type PanicError struct {
	// Candidate is the candidate pair the worker was processing, when the
	// panic happened inside a level worker.
	Candidate attr.Pair
	// Value is the recovered panic value.
	Value any
	// Stack is the panicking goroutine's stack trace.
	Stack []byte
}

// Error renders the panic with its candidate when one is attached.
func (e *PanicError) Error() string {
	if len(e.Candidate.X) > 0 || len(e.Candidate.Y) > 0 {
		return fmt.Sprintf("ocd: worker panic on candidate %s ~ %s: %v",
			e.Candidate.X, e.Candidate.Y, e.Value)
	}
	return fmt.Sprintf("ocd: panic during discovery: %v", e.Value)
}

// WidthError reports a relation too wide to discover over: a candidate
// stores each attribute id in 16 bits, so a relation may have at most
// 65,535 columns, reversed twins included.
type WidthError struct {
	// Columns is the relation's width.
	Columns int
}

// Error names the width and the limit.
func (e *WidthError) Error() string {
	return fmt.Sprintf("ocd: relation has %d columns, at most %d are supported", e.Columns, checkpoint.MaxWidth)
}
