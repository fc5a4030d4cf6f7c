package ocd

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"time"

	"ocd/internal/attr"
	"ocd/internal/checkpoint"
	"ocd/internal/core"
)

// Options configure a discovery run. The zero value asks for a full run on
// all columns with one worker per CPU.
type Options struct {
	// Workers is the number of goroutines traversing the candidate tree;
	// < 1 selects GOMAXPROCS.
	Workers int
	// Timeout bounds wall-clock time; on expiry partial results are
	// returned with Stats.Truncated set (the paper's 5-hour-threshold
	// reporting). Zero means unlimited.
	Timeout time.Duration
	// MaxCandidates aborts once this many candidates were generated
	// (0 = unlimited), a guard against quasi-constant blow-ups. A level
	// can overshoot it by at most one chunk's children per worker.
	MaxCandidates int64
	// MaxLevel bounds the candidate tree depth (|X|+|Y| ≤ MaxLevel);
	// 0 = unlimited.
	MaxLevel int
	// Columns restricts discovery to the named columns (nil = all), e.g.
	// the output of Table.TopEntropyColumns.
	Columns []string
	// DisableColumnReduction skips the constant/equivalent column
	// reduction phase; for ablation only.
	DisableColumnReduction bool
	// MaxMemoryBytes is a soft heap budget on the whole process: when the
	// heap crosses it at a level boundary the engine drops its rank-vector
	// caches and recomputes them on demand instead of growing toward an OOM
	// kill, and truncates the run (reason "memory-budget") when the heap
	// stays over budget after that release. Zero means no budget.
	MaxMemoryBytes int64
	// CheckpointPath, when non-empty, makes the run durable: a snapshot of
	// the traversal is atomically written there at level barriers and when
	// the run stops for any reason, so an interrupted run can be restarted
	// with ResumeFrom instead of from scratch. Snapshot-write failures never
	// abort discovery; the first one is recorded in Stats.CheckpointError.
	CheckpointPath string
	// ResumeFrom restarts discovery from the snapshot at this path. The
	// snapshot must belong to the same data: its fingerprint (row/column
	// counts plus per-column rank digests) is verified against the table and
	// a mismatch fails fast with an error matching
	// errors.Is(err, ErrCheckpointMismatch). The snapshot's column universe
	// and reduction setting override Columns/DisableColumnReduction.
	ResumeFrom string
	// Metrics, when non-nil, receives the run's counters, gauges and
	// histograms (check latency, cache hit/miss, per-level candidate counts,
	// worker busy time, …). Safe to Snapshot concurrently with the run. On a
	// resumed run the registry is restored from the snapshot first, so
	// crash + resume totals match an uninterrupted run's.
	Metrics *Metrics
	// Trace, when non-nil, is the parent span under which the engine records
	// its phase tree: discover → parse/rank-encode happen at load time,
	// reduction and each BFS level (with per-worker child spans) during the
	// run. Use NewTracer and pass its Root.
	Trace *Span
	// Reporter, when non-nil, receives live Progress samples at every level
	// barrier and every ReportEvery checks. See NewProgressWriter for the
	// stderr ticker used by ocddiscover -progress.
	Reporter Reporter
	// ReportEvery is the check cadence of mid-level Reporter samples;
	// values < 1 select a default (10000).
	ReportEvery int64
}

// TruncateReason explains why a run returned partial results; the zero value
// TruncateNone means the traversal completed. The string form is what CLIs
// and JSON output show.
type TruncateReason string

const (
	// TruncateNone: the run completed the full traversal.
	TruncateNone TruncateReason = ""
	// TruncateTimeout: Options.Timeout or the context deadline expired.
	TruncateTimeout TruncateReason = "timeout"
	// TruncateCandidateCap: Options.MaxCandidates was exhausted.
	TruncateCandidateCap TruncateReason = "candidate-cap"
	// TruncateLevelCap: the traversal reached Options.MaxLevel.
	TruncateLevelCap TruncateReason = "level-cap"
	// TruncateCancelled: the caller's context was cancelled.
	TruncateCancelled TruncateReason = "cancelled"
	// TruncateMemoryBudget: the heap stayed over Options.MaxMemoryBytes even
	// after the caches were released.
	TruncateMemoryBudget TruncateReason = "memory-budget"
	// TruncateWorkerPanic: a worker panicked; the error returned alongside
	// the partial result matches errors.Is(err, ErrWorkerPanic).
	TruncateWorkerPanic TruncateReason = "worker-panic"
)

// ErrWorkerPanic is the sentinel wrapped into errors returned when a panic
// was recovered during discovery; the partial Result is still returned. Use
// errors.Is(err, ErrWorkerPanic) to distinguish a crash-degraded run from a
// cancelled one.
var ErrWorkerPanic = errors.New("ocd: panic recovered during discovery")

// ErrCheckpointMismatch is the sentinel wrapped into errors returned when
// Options.ResumeFrom names a snapshot that does not belong to the table (or
// the run's options): modified data, a different column selection, or a
// flipped reduction setting. Use errors.Is to detect it.
var ErrCheckpointMismatch = checkpoint.ErrMismatch

// ErrCheckpointCorrupt is the sentinel wrapped into snapshot-load errors for
// torn, truncated or otherwise invalid snapshot files; such files are never
// partially accepted.
var ErrCheckpointCorrupt = checkpoint.ErrCorrupt

// ErrCheckpointVersion is the sentinel wrapped into snapshot-load errors
// for snapshot files of another format version, which this build cannot
// resume from.
var ErrCheckpointVersion = checkpoint.ErrVersion

// OCD is an order compatibility dependency Left ~ Right over column names.
type OCD struct {
	Left  []string `json:"left"`
	Right []string `json:"right"`
}

// String renders the OCD as "[a,b] ~ [c]".
func (d OCD) String() string { return bracket(d.Left) + " ~ " + bracket(d.Right) }

// OD is an order dependency Left → Right over column names.
type OD struct {
	Left  []string `json:"left"`
	Right []string `json:"right"`
}

// String renders the OD as "[a,b] -> [c]".
func (d OD) String() string { return bracket(d.Left) + " -> " + bracket(d.Right) }

func bracket(cols []string) string { return "[" + strings.Join(cols, ",") + "]" }

// Stats reports execution counters of a run (the Table 6 statistics).
type Stats struct {
	// Checks is the number of order checks performed.
	Checks int64
	// Candidates is the number of tree candidates generated.
	Candidates int64
	// Prunes is the number of candidates whose OCD check failed; Theorem
	// 3.7 prunes each one's subtree.
	Prunes int64
	// Levels is the number of tree levels processed.
	Levels int
	// Elapsed is the wall-clock runtime.
	Elapsed time.Duration
	// Truncated marks a partial run. Kept alongside TruncateReason for
	// compatibility: Truncated == (TruncateReason != TruncateNone).
	Truncated bool
	// TruncateReason says why the run is partial; TruncateNone when the
	// traversal completed.
	TruncateReason TruncateReason
	// MemoryReleases counts how often the soft memory budget forced the
	// checker caches to be dropped.
	MemoryReleases int
	// Checkpoints counts the snapshots written during the run (periodic
	// level barriers plus the final stop/completion snapshot).
	Checkpoints int
	// CheckpointError records the first snapshot-write failure; further
	// checkpointing was disabled from that point. Empty when every write
	// succeeded or checkpointing was off.
	CheckpointError string
	// Resumed marks a run restarted via Options.ResumeFrom; Checks,
	// Candidates, Prunes, Levels and MemoryReleases then include the
	// original run's counters up to the snapshot, so crash + resume totals
	// equal an uninterrupted run. Elapsed covers only the resumed run.
	Resumed bool
	// PriorElapsed is the wall-clock time the original run(s) had spent when
	// the snapshot this run resumed from was written; zero on fresh runs.
	// Elapsed + PriorElapsed is the total cost of the discovery.
	PriorElapsed time.Duration
}

// Result holds the dependencies found by Discover.
type Result struct {
	// OCDs are the minimal order compatibility dependencies over reduced
	// columns: disjoint sides, constants removed, one representative per
	// order-equivalence class.
	OCDs []OCD
	// ODs are the order dependencies found during the traversal.
	ODs []OD
	// ConstantColumns are the constant columns removed during reduction;
	// each is ordered by every attribute list.
	ConstantColumns []string
	// EquivalentGroups are the order-equivalence classes of size ≥ 2; the
	// first column of each group is the representative used in OCDs/ODs.
	EquivalentGroups [][]string
	// Stats holds execution counters.
	Stats Stats

	inner *core.Result
	names func(attr.ID) string
}

// Discover runs OCDDISCOVER on the table. Equivalent to DiscoverContext
// with context.Background(): it cannot be cancelled, but a recovered worker
// panic still degrades to a partial Result plus an ErrWorkerPanic error.
func (t *Table) Discover(opts Options) (*Result, error) {
	return t.DiscoverContext(context.Background(), opts)
}

// DiscoverContext runs OCDDISCOVER under a context. Cancellation is
// cooperative but fast (an atomic flag polled deep inside the sort loops),
// so a cancel lands in milliseconds even on multi-million-row levels.
//
// On cancellation, timeout, or a recovered panic the Result is non-nil and
// well-formed — it holds every dependency fully validated before the stop,
// with Stats.TruncateReason saying why the run is partial — alongside a
// non-nil error (ctx.Err(), or one matching errors.Is(err, ErrWorkerPanic)).
// Errors about the call itself (nil table, unknown column) return a nil
// Result as before.
func (t *Table) DiscoverContext(ctx context.Context, opts Options) (*Result, error) {
	if t == nil || t.rel == nil {
		return nil, errNilTable
	}
	var cols []attr.ID
	if opts.Columns != nil {
		cols = make([]attr.ID, len(opts.Columns))
		for i, c := range opts.Columns {
			id, err := t.colID(c)
			if err != nil {
				return nil, err
			}
			cols[i] = id
		}
	}
	var snap *checkpoint.Snapshot
	if opts.ResumeFrom != "" {
		var err error
		snap, err = checkpoint.Load(opts.ResumeFrom)
		if err != nil {
			return nil, fmt.Errorf("ocd: loading checkpoint %s: %w", opts.ResumeFrom, err)
		}
	}
	inner, err := core.DiscoverContext(ctx, t.rel, core.Options{
		Workers:                opts.Workers,
		Timeout:                opts.Timeout,
		MaxCandidates:          opts.MaxCandidates,
		MaxLevel:               opts.MaxLevel,
		Columns:                cols,
		DisableColumnReduction: opts.DisableColumnReduction,
		MaxMemoryBytes:         opts.MaxMemoryBytes,
		CheckpointPath:         opts.CheckpointPath,
		Resume:                 snap,
		Metrics:                opts.Metrics,
		Trace:                  opts.Trace,
		Reporter:               opts.Reporter,
		ReportEvery:            opts.ReportEvery,
	})
	var pe *core.PanicError
	if errors.As(err, &pe) {
		err = fmt.Errorf("%w: %w", ErrWorkerPanic, err)
	}
	return t.wrapResult(inner), err
}

func (t *Table) wrapResult(inner *core.Result) *Result {
	names := t.rel.NameOf
	res := &Result{inner: inner, names: names}
	// Every name list is a capacity-limited window of one backing slice,
	// so the lists cost one allocation and an append to one copies it
	// rather than overwriting the next.
	n := len(inner.Constants)
	for _, d := range inner.OCDs {
		n += len(d.X) + len(d.Y)
	}
	for _, d := range inner.ODs {
		n += len(d.X) + len(d.Y)
	}
	for _, class := range inner.EquivClasses {
		n += len(class)
	}
	all := make([]string, 0, n)
	list := func(ids []attr.ID) []string {
		from := len(all)
		for _, a := range ids {
			all = append(all, names(a))
		}
		return all[from:len(all):len(all)]
	}
	if len(inner.OCDs) > 0 {
		res.OCDs = make([]OCD, len(inner.OCDs))
		for i, d := range inner.OCDs {
			res.OCDs[i] = OCD{Left: list(d.X), Right: list(d.Y)}
		}
	}
	if len(inner.ODs) > 0 {
		res.ODs = make([]OD, len(inner.ODs))
		for i, d := range inner.ODs {
			res.ODs[i] = OD{Left: list(d.X), Right: list(d.Y)}
		}
	}
	if len(inner.Constants) > 0 {
		res.ConstantColumns = list(inner.Constants)
	}
	if len(inner.EquivClasses) > 0 {
		res.EquivalentGroups = make([][]string, len(inner.EquivClasses))
		for i, class := range inner.EquivClasses {
			res.EquivalentGroups[i] = list(class)
		}
	}
	res.Stats = Stats{
		Checks:          inner.Stats.Checks,
		Candidates:      inner.Stats.Candidates,
		Prunes:          inner.Stats.Prunes,
		Levels:          inner.Stats.Levels,
		Elapsed:         inner.Stats.Elapsed,
		Truncated:       inner.Stats.Truncated,
		TruncateReason:  TruncateReason(inner.Stats.Reason.String()),
		MemoryReleases:  inner.Stats.MemoryReleases,
		Checkpoints:     inner.Stats.Checkpoints,
		CheckpointError: inner.Stats.CheckpointError,
		Resumed:         inner.Stats.Resumed,
		PriorElapsed:    inner.Stats.PriorElapsed,
	}
	return res
}

func attrListOf(ids []attr.ID) attr.List {
	l := make(attr.List, len(ids))
	copy(l, ids)
	return l
}

func nameList(l attr.List, names func(attr.ID) string) []string {
	out := make([]string, len(l))
	for i, a := range l {
		out[i] = names(a)
	}
	return out
}

// ExpandODs materializes the expanded OD view of the result (Section 5.2):
// the OD pair of every OCD, the pairwise ODs of every equivalence group,
// one [] → [C] per constant column, and every Replace-theorem substitution
// of equivalent columns. limit caps the output size (≤ 0 = no cap).
func (r *Result) ExpandODs(limit int) []OD {
	inner := r.inner.ExpandedODs(limit)
	out := make([]OD, len(inner))
	for i, d := range inner {
		out[i] = OD{Left: nameList(d.X, r.names), Right: nameList(d.Y, r.names)}
	}
	return out
}

// CountODs counts the expanded OD view without materializing it — the |Od|
// statistic reported for OCDDISCOVER in Table 6.
func (r *Result) CountODs() int64 { return r.inner.CountExpandedODs() }

// Summary renders a short human-readable report.
func (r *Result) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%d OCDs, %d ODs, %d constant columns, %d equivalence groups\n",
		len(r.OCDs), len(r.ODs), len(r.ConstantColumns), len(r.EquivalentGroups))
	fmt.Fprintf(&b, "expanded ODs: %d | checks: %d | candidates: %d | elapsed: %v",
		r.CountODs(), r.Stats.Checks, r.Stats.Candidates, r.Stats.Elapsed.Round(time.Microsecond))
	if r.Stats.PriorElapsed > 0 {
		fmt.Fprintf(&b, " (+%v before resume)", r.Stats.PriorElapsed.Round(time.Microsecond))
	}
	if r.Stats.Truncated {
		if r.Stats.TruncateReason != TruncateNone {
			fmt.Fprintf(&b, " (truncated: %s)", r.Stats.TruncateReason)
		} else {
			b.WriteString(" (truncated)")
		}
	}
	return b.String()
}

// ResultDoc is a run's result as one JSON document: the dependencies and
// the Table 6 statistics. A job's result.json and ocddiscover -json both
// encode it. The fields marked volatile vary between executions of the same
// run; the others are equal for a given table and options, whatever the
// worker count and however often the run stopped and resumed.
type ResultDoc struct {
	Name             string         `json:"name"`
	Rows             int            `json:"rows"`
	Cols             int            `json:"cols"`
	OCDs             []OCD          `json:"ocds"`
	ODs              []OD           `json:"ods"`
	ConstantColumns  []string       `json:"constant_columns,omitempty"`
	EquivalentGroups [][]string     `json:"equivalent_groups,omitempty"`
	ExpandedODCount  int64          `json:"expanded_od_count"`
	ExpandedODs      []OD           `json:"expanded_ods,omitempty"`
	Truncated        bool           `json:"truncated,omitempty"`
	TruncateReason   TruncateReason `json:"truncate_reason,omitempty"`
	Checks           int64          `json:"checks"`
	Candidates       int64          `json:"candidates"`
	Prunes           int64          `json:"prunes"`
	Levels           int            `json:"levels"`
	ElapsedMS        int64          `json:"elapsed_ms"`                 // volatile
	PriorElapsedMS   int64          `json:"prior_elapsed_ms,omitempty"` // volatile
	Resumed          bool           `json:"resumed,omitempty"`          // volatile
	Checkpoints      int            `json:"checkpoints"`                // volatile
	CheckpointError  string         `json:"checkpoint_error,omitempty"` // volatile
}

// NewResultDoc builds the result document of r, a run over t, with up to
// expand expanded ODs (none when expand ≤ 0). Empty OCD and OD lists
// encode as [].
func NewResultDoc(t *Table, r *Result, expand int) ResultDoc {
	doc := ResultDoc{
		Name:             t.Name(),
		Rows:             t.NumRows(),
		Cols:             t.NumCols(),
		OCDs:             r.OCDs,
		ODs:              r.ODs,
		ConstantColumns:  r.ConstantColumns,
		EquivalentGroups: r.EquivalentGroups,
		ExpandedODCount:  r.CountODs(),
		Truncated:        r.Stats.Truncated,
		TruncateReason:   r.Stats.TruncateReason,
		Checks:           r.Stats.Checks,
		Candidates:       r.Stats.Candidates,
		Prunes:           r.Stats.Prunes,
		Levels:           r.Stats.Levels,
		ElapsedMS:        r.Stats.Elapsed.Milliseconds(),
		PriorElapsedMS:   r.Stats.PriorElapsed.Milliseconds(),
		Resumed:          r.Stats.Resumed,
		Checkpoints:      r.Stats.Checkpoints,
		CheckpointError:  r.Stats.CheckpointError,
	}
	if doc.OCDs == nil {
		doc.OCDs = []OCD{}
	}
	if doc.ODs == nil {
		doc.ODs = []OD{}
	}
	if expand > 0 {
		doc.ExpandedODs = r.ExpandODs(expand)
	}
	return doc
}
