// Package experiments regenerates every table and figure of the paper's
// evaluation (Section 5) against the synthetic dataset replicas:
//
//	Table 6    — per-dataset dependency counts, checks and runtimes for
//	             OCDDISCOVER, ORDER and FASTOD (plus TANE's FD counts)
//	Table 7    — the NUMBERS comparison of Section 5.2.2
//	Figure 2   — row scalability (LINEITEM, NCVOTER-20col)
//	Figures 3/4 — column scalability (HEPATITIS, HORSE)
//	Figure 5   — single-run column growth with the quasi-constant jump
//	Figure 6 + Table 8 — multithread scalability (LETTER, LINEITEM, DBTESMA)
//	Figure 7   — entropy-ordered column addition on FLIGHT
//
// Every experiment takes a Scale that shrinks the paper's multi-hour
// workloads to laptop sizes while preserving their shape; DefaultScale is
// used by cmd/experiments and the package benchmarks.
package experiments

import (
	"cmp"
	"context"
	"fmt"
	"math/rand"
	"path/filepath"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"ocd/internal/attr"
	"ocd/internal/core"
	"ocd/internal/datagen"
	"ocd/internal/entropy"
	"ocd/internal/fastod"
	"ocd/internal/fdtane"
	"ocd/internal/orderalg"
	"ocd/internal/relation"
)

// Scale shrinks the paper's workloads to a time budget. The paper ran with
// 6M-row LINEITEM, 250k-row DBTESMA and a 5-hour timeout on a 12-core Xeon;
// the defaults here finish in minutes and keep the comparative shape.
type Scale struct {
	LineItemRows int           // paper: 6,001,215
	DBTesmaRows  int           // paper: 250,000
	NCVoterRows  int           // paper: 938,084 (20 random columns)
	LetterRows   int           // paper: 20,000
	Timeout      time.Duration // paper: 5h
	Reps         int           // paper: 5
	ColSamples   int           // paper: 50 samples per column count
	MaxThreads   int           // paper: 12 hyper-threaded cores
	MaxCand      int64         // candidate cap guarding blow-up runs

	// CheckpointDir, when non-empty, makes every measured discovery run
	// durable: each run snapshots its traversal into a distinct file under
	// this directory, so a multi-hour suite killed mid-run loses at most
	// the level in flight. Empty disables checkpointing (the default — it
	// adds write I/O to timed runs).
	CheckpointDir string
}

// ckptSeq numbers the checkpoint files of a suite so concurrent or repeated
// runs never overwrite each other's snapshots.
var ckptSeq atomic.Int64

// discover runs one measured discovery under ctx; partial (cancelled) runs
// still return their result so in-progress series keep the samples already
// measured. With CheckpointDir set, each run writes level snapshots to its
// own file "<dir>/<relation>-NNN.ckpt".
func discover(ctx context.Context, s Scale, r *relation.Relation, opts core.Options) *core.Result {
	if s.CheckpointDir != "" && opts.CheckpointPath == "" {
		opts.CheckpointPath = filepath.Join(s.CheckpointDir,
			fmt.Sprintf("%s-%03d.ckpt", sanitizeName(r.Name), ckptSeq.Add(1)))
	}
	res, _ := core.DiscoverContext(ctx, r, opts) // lint:allow errdrop — cancellation is polled by the measurement loops; partial samples are kept
	return res
}

// sanitizeName makes a relation name safe as a file-name component.
func sanitizeName(name string) string {
	if name == "" {
		return "run"
	}
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '_', r == '.':
			return r
		default:
			return '_'
		}
	}, name)
}

// DefaultScale returns the laptop-scale settings used by cmd/experiments.
func DefaultScale() Scale {
	return Scale{
		LineItemRows: 100_000,
		DBTesmaRows:  20_000,
		NCVoterRows:  50_000,
		LetterRows:   20_000,
		Timeout:      20 * time.Second,
		Reps:         1,
		ColSamples:   3,
		MaxThreads:   8,
		MaxCand:      2_000_000,
	}
}

// TestScale returns drastically reduced settings for unit tests.
func TestScale() Scale {
	return Scale{
		LineItemRows: 2_000,
		DBTesmaRows:  1_000,
		NCVoterRows:  2_000,
		LetterRows:   2_000,
		Timeout:      3 * time.Second,
		Reps:         1,
		ColSamples:   2,
		MaxThreads:   4,
		MaxCand:      200_000,
	}
}

// Dataset builds one of the Table 6 datasets at the given scale.
func Dataset(name string, s Scale) *relation.Relation {
	switch name {
	case "DBTESMA":
		return datagen.DBTesma(s.DBTesmaRows)
	case "DBTESMA_1K":
		return datagen.DBTesma1K()
	case "FLIGHT_1K":
		return datagen.Flight1K()
	case "HEPATITIS":
		return datagen.Hepatitis()
	case "HORSE":
		return datagen.Horse()
	case "LETTER":
		return datagen.Letter(s.LetterRows)
	case "LINEITEM":
		return datagen.LineItem(s.LineItemRows)
	case "NCVOTER_1K":
		return datagen.NCVoter1K()
	case "NO":
		return datagen.No()
	case "YES":
		return datagen.Yes()
	case "NUMBERS":
		return datagen.Numbers()
	default:
		// lint:allow panic — registry of a fixed dataset list; an unknown
		// name is a programming error and TestDatasetUnknownPanics pins
		// this behaviour.
		panic("experiments: unknown dataset " + name)
	}
}

// Table6Datasets lists the datasets of Table 6 in the paper's order.
func Table6Datasets() []string {
	return []string{"DBTESMA", "DBTESMA_1K", "FLIGHT_1K", "HEPATITIS",
		"HORSE", "LETTER", "LINEITEM", "NCVOTER_1K", "NO", "YES"}
}

// Table6Row is one dataset's line of Table 6.
type Table6Row struct {
	Dataset string
	Rows    int
	Cols    int

	NumFDs      int  // |Fd| — TANE (paper used FastFDs)
	NumFDsTrunc bool // TANE hit the time budget

	OrderODs   int
	OrderTime  time.Duration
	OrderTrunc bool

	FastodFDs   int
	FastodOCs   int
	FastodTime  time.Duration
	FastodTrunc bool

	OcdOCDs   int
	OcdODs    int64 // expanded OD count
	OcdChecks int64
	OcdTime   time.Duration
	OcdTrunc  bool
	OcdReason string // why OCDDISCOVER stopped early; empty when it completed
}

// Table6 reruns the three algorithms (plus TANE) over the named datasets;
// nil datasets selects all of Table6Datasets. ctx cancels the sweep between
// datasets and stops in-flight discovery runs cooperatively.
func Table6(ctx context.Context, s Scale, datasets []string) []Table6Row {
	if datasets == nil {
		datasets = Table6Datasets()
	}
	rows := make([]Table6Row, 0, len(datasets))
	for _, name := range datasets {
		if ctx.Err() != nil {
			break
		}
		r := Dataset(name, s)
		row := Table6Row{Dataset: name, Rows: r.NumRows(), Cols: r.NumCols()}

		// |Fd| via TANE. Wide, FD-rich schemas (FLIGHT) can make the FD
		// lattice itself explode; guard with the timeout by skipping the
		// count for very wide relations, like the paper's †.
		if r.NumCols() <= 40 {
			fds, fdTrunc := fdtane.DiscoverWithOptions(r, fdtane.Options{Timeout: s.Timeout})
			row.NumFDs = len(fds)
			row.NumFDsTrunc = fdTrunc
		} else {
			row.NumFDs = -1 // not run (†)
		}

		ores := orderalg.Discover(r, orderalg.Options{Timeout: s.Timeout, MaxCandidates: s.MaxCand})
		row.OrderODs = len(ores.ODs)
		row.OrderTime = ores.Elapsed
		row.OrderTrunc = ores.Truncated

		if r.NumCols() <= 40 {
			fres := fastod.Discover(r, fastod.Options{Timeout: s.Timeout})
			row.FastodFDs = len(fres.FDs)
			row.FastodOCs = len(fres.OCs)
			row.FastodTime = fres.Elapsed
			row.FastodTrunc = fres.Truncated
		} else {
			row.FastodFDs, row.FastodOCs = -1, -1
			row.FastodTrunc = true
		}

		cres := discover(ctx, s, r, core.Options{Timeout: s.Timeout, MaxCandidates: s.MaxCand})
		row.OcdOCDs = len(cres.OCDs)
		row.OcdODs = cres.CountExpandedODs()
		row.OcdChecks = cres.Stats.Checks
		row.OcdTime = cres.Stats.Elapsed
		row.OcdTrunc = cres.Stats.Truncated
		row.OcdReason = stopReason(cres)

		rows = append(rows, row)
	}
	return rows
}

// FormatTable6 renders the rows in a Table 6-like layout. A trailing †
// marks truncated (or skipped) executions, as in the paper; the legend
// names why each truncated OCDDISCOVER run stopped.
func FormatTable6(rows []Table6Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-11s %9s %5s | %7s | %9s %10s | %7s %7s %10s | %9s %11s %10s %10s\n",
		"Dataset", "|r|", "|U|", "|Fd|",
		"ORDER|Od|", "time",
		"FOD|Fd|", "FOD|Oc|", "time",
		"OCD|Ocd|", "OCD|Od|", "#checks", "time")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-11s %9d %5d | %7s | %9s %10s | %7s %7s %10s | %9d %11d %10d %10s\n",
			r.Dataset, r.Rows, r.Cols,
			count(r.NumFDs, r.NumFDsTrunc),
			count(r.OrderODs, r.OrderTrunc), dur(r.OrderTime, r.OrderTrunc),
			count(r.FastodFDs, r.FastodTrunc), count(r.FastodOCs, r.FastodTrunc), dur(r.FastodTime, r.FastodTrunc),
			r.OcdOCDs, r.OcdODs, r.OcdChecks, dur(r.OcdTime, r.OcdTrunc))
	}
	b.WriteString("† = truncated (timeout or candidate cap) or skipped, partial results where shown")
	var stops []string
	for _, r := range rows {
		if r.OcdReason != "" {
			stops = append(stops, r.Dataset+" "+r.OcdReason)
		}
	}
	if len(stops) > 0 {
		fmt.Fprintf(&b, "; OCDDISCOVER stopped on %s", strings.Join(stops, ", "))
	}
	b.WriteString("\n")
	return b.String()
}

func count(n int, trunc bool) string {
	if n < 0 {
		return "†"
	}
	s := fmt.Sprintf("%d", n)
	if trunc {
		s += "†"
	}
	return s
}

func dur(d time.Duration, trunc bool) string {
	s := d.Round(time.Millisecond).String()
	if trunc {
		s += "†"
	}
	return s
}

// sampleRows returns the first frac·rows indices (the paper samples
// contiguous fractions of each dataset for Figure 2).
func sampleRows(r *relation.Relation, frac float64) *relation.Relation {
	n := int(frac * float64(r.NumRows()))
	return r.HeadRows(n)
}

// SeriesPoint is one (x, duration) measurement of a figure's series.
type SeriesPoint struct {
	X       float64
	Elapsed time.Duration
	Extra   int64 // series-specific payload (dependency count etc.)
	// Reason says why a run behind the point stopped early (timeout,
	// candidate-cap or memory-budget); empty when every run completed.
	Reason string
}

// stopReason names why res is partial; empty when the run completed.
func stopReason(res *core.Result) string {
	if !res.Stats.Truncated {
		return ""
	}
	return res.Stats.Reason.String()
}

// Fig2RowScalability measures OCDDISCOVER runtime at 10%..100% of the rows
// of LINEITEM and of a 20-column NCVOTER sample, averaging Reps runs —
// the paper's Figure 2. The expected shape is near-linear growth.
func Fig2RowScalability(ctx context.Context, s Scale) map[string][]SeriesPoint {
	out := make(map[string][]SeriesPoint)
	// 20 deterministic-randomly chosen columns of NCVOTER, as in §5.3.1.
	nv := datagen.NCVoter(s.NCVoterRows, 94)
	rng := rand.New(rand.NewSource(1))
	perm := rng.Perm(94)[:20]
	cols := make([]attr.ID, len(perm))
	for i, p := range perm {
		cols[i] = attr.ID(p)
	}
	nv20 := nv.Project(cols)
	nv20.Name = "NCVOTER(20cols)"

	for _, base := range []*relation.Relation{datagen.LineItem(s.LineItemRows), nv20} {
		var series []SeriesPoint
		for pct := 10; pct <= 100; pct += 10 {
			if ctx.Err() != nil {
				break
			}
			sub := sampleRows(base, float64(pct)/100)
			var total time.Duration
			var deps int64
			var reason string
			for rep := 0; rep < s.Reps; rep++ {
				res := discover(ctx, s, sub, core.Options{Timeout: s.Timeout, MaxCandidates: s.MaxCand})
				total += res.Stats.Elapsed
				deps = res.CountExpandedODs()
				reason = cmp.Or(stopReason(res), reason)
			}
			series = append(series, SeriesPoint{
				X:       float64(sub.NumRows()),
				Elapsed: total / time.Duration(s.Reps),
				Extra:   deps,
				Reason:  reason,
			})
		}
		out[base.Name] = series
	}
	return out
}

// ColScalability measures mean OCDDISCOVER runtime over ColSamples random
// column subsets of each size from 2 to NumCols — Figures 3 (HEPATITIS)
// and 4 (HORSE).
func ColScalability(ctx context.Context, dataset string, s Scale) []SeriesPoint {
	base := Dataset(dataset, s)
	rng := rand.New(rand.NewSource(2))
	var series []SeriesPoint
	for nc := 2; nc <= base.NumCols(); nc++ {
		if ctx.Err() != nil {
			break
		}
		var total time.Duration
		var deps int64
		var reason string
		for rep := 0; rep < s.ColSamples; rep++ {
			perm := rng.Perm(base.NumCols())[:nc]
			cols := make([]attr.ID, nc)
			for i, p := range perm {
				cols[i] = attr.ID(p)
			}
			sub := base.Project(cols)
			res := discover(ctx, s, sub, core.Options{Timeout: s.Timeout, MaxCandidates: s.MaxCand})
			total += res.Stats.Elapsed
			deps += res.CountExpandedODs()
			reason = cmp.Or(stopReason(res), reason)
		}
		series = append(series, SeriesPoint{
			X:       float64(nc),
			Elapsed: total / time.Duration(s.ColSamples),
			Extra:   deps / int64(s.ColSamples),
			Reason:  reason,
		})
	}
	return series
}

// Fig5SingleRun performs one incremental column walk over HORSE with a
// fixed column order, recording runtime and dependency count per prefix —
// the paper's Figure 5, whose y-axis jump appears when a quasi-constant
// column (few distinct values) joins the working set.
func Fig5SingleRun(ctx context.Context, s Scale) []SeriesPoint {
	base := Dataset("HORSE", s)
	rng := rand.New(rand.NewSource(3))
	perm := rng.Perm(base.NumCols())
	// Force a quasi-constant column late in the order, mirroring the
	// paper's observation at the 28-column sample: h28 (index 27) is the
	// near-constant flag.
	order := make([]int, 0, len(perm))
	for _, p := range perm {
		if p != 27 {
			order = append(order, p)
		}
	}
	order = append(order[:26], append([]int{27}, order[26:]...)...)

	var series []SeriesPoint
	for nc := 2; nc <= len(order); nc++ {
		if ctx.Err() != nil {
			break
		}
		cols := make([]attr.ID, nc)
		for i := 0; i < nc; i++ {
			cols[i] = attr.ID(order[i])
		}
		sub := base.Project(cols)
		res := discover(ctx, s, sub, core.Options{Timeout: s.Timeout, MaxCandidates: s.MaxCand})
		series = append(series, SeriesPoint{
			X:       float64(nc),
			Elapsed: res.Stats.Elapsed,
			Extra:   res.CountExpandedODs(),
			Reason:  stopReason(res),
		})
	}
	return series
}

// ThreadPoint is one multithreading measurement.
type ThreadPoint struct {
	Threads    int
	Elapsed    time.Duration
	Normalized float64 // relative to the single-thread runtime
}

// Fig6Threads measures OCDDISCOVER over 1..MaxThreads workers on LETTER,
// LINEITEM and DBTESMA — Figure 6 and Table 8. The paper's shape: LINEITEM
// (expensive checks) and DBTESMA (many checks) gain the most; LETTER gains
// little.
func Fig6Threads(ctx context.Context, s Scale) map[string][]ThreadPoint {
	out := make(map[string][]ThreadPoint)
	for _, name := range []string{"LETTER", "LINEITEM", "DBTESMA"} {
		r := Dataset(name, s)
		var pts []ThreadPoint
		var base time.Duration
		for th := 1; th <= s.MaxThreads; th *= 2 {
			if ctx.Err() != nil {
				break
			}
			var best time.Duration
			for rep := 0; rep < s.Reps; rep++ {
				res := discover(ctx, s, r, core.Options{
					Workers: th, Timeout: s.Timeout, MaxCandidates: s.MaxCand,
				})
				if rep == 0 || res.Stats.Elapsed < best {
					best = res.Stats.Elapsed
				}
			}
			if th == 1 {
				base = best
			}
			pts = append(pts, ThreadPoint{
				Threads:    th,
				Elapsed:    best,
				Normalized: float64(best) / float64(base),
			})
		}
		out[name] = pts
	}
	return out
}

// Fig7EntropyOrdered adds FLIGHT columns in decreasing-entropy order and
// measures runtime and expanded OD count per prefix — the paper's Figure
// 7, whose cliff appears once 2-distinct-value columns join. The sweep
// stops at the first truncated prefix, whose Reason says why.
func Fig7EntropyOrdered(ctx context.Context, s Scale, maxCols int) []SeriesPoint {
	base := datagen.Flight1K()
	ranked := entropy.Rank(base)
	if maxCols <= 0 || maxCols > len(ranked) {
		maxCols = len(ranked)
	}
	var series []SeriesPoint
	for nc := 2; nc <= maxCols; nc++ {
		if ctx.Err() != nil {
			break
		}
		cols := make([]attr.ID, nc)
		for i := 0; i < nc; i++ {
			cols[i] = ranked[i].Col
		}
		sub := base.Project(cols)
		res := discover(ctx, s, sub, core.Options{Timeout: s.Timeout, MaxCandidates: s.MaxCand})
		series = append(series, SeriesPoint{
			X:       float64(nc),
			Elapsed: res.Stats.Elapsed,
			Extra:   res.CountExpandedODs(),
			Reason:  stopReason(res),
		})
		if res.Stats.Truncated {
			break // the paper stops at the first timed-out sample
		}
	}
	return series
}

// NumbersReport compares the three algorithms on the NUMBERS dataset of
// Table 7 and on YES/NO (Table 5), the paper's §5.2 correctness discussion.
func NumbersReport() string {
	var b strings.Builder
	for _, name := range []string{"YES", "NO", "NUMBERS"} {
		r := Dataset(name, Scale{})
		cres := core.Discover(r, core.Options{})
		ores := orderalg.Discover(r, orderalg.Options{})
		fres := fastod.Discover(r, fastod.Options{})
		fmt.Fprintf(&b, "%s (%d×%d):\n", name, r.NumRows(), r.NumCols())
		fmt.Fprintf(&b, "  ocddiscover: %d OCDs, %d expanded ODs\n", len(cres.OCDs), cres.CountExpandedODs())
		for _, d := range cres.OCDs {
			fmt.Fprintf(&b, "    %s\n", d.Format(r.NameOf))
		}
		fmt.Fprintf(&b, "  ORDER:       %d ODs (cannot represent repeated-attribute ODs)\n", len(ores.ODs))
		fmt.Fprintf(&b, "  FASTOD:      %d canonical FDs, %d canonical OCs (correct implementation)\n",
			len(fres.FDs), len(fres.OCs))
	}
	return b.String()
}

// FormatSeries renders a figure series as an aligned text table; the stop
// column names why a truncated point's run stopped.
func FormatSeries(title, xlabel string, series []SeriesPoint) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n%12s %14s %14s  %s\n", title, xlabel, "time", "deps", "stop")
	for _, p := range series {
		line := fmt.Sprintf("%12.0f %14s %14d  %s", p.X, p.Elapsed.Round(time.Millisecond), p.Extra, p.Reason)
		b.WriteString(strings.TrimRight(line, " ") + "\n")
	}
	return b.String()
}

// FormatThreads renders Figure 6 / Table 8 data.
func FormatThreads(data map[string][]ThreadPoint) string {
	names := make([]string, 0, len(data))
	for n := range data {
		names = append(names, n)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, n := range names {
		fmt.Fprintf(&b, "%s:\n%8s %14s %12s\n", n, "threads", "time", "normalized")
		for _, p := range data[n] {
			fmt.Fprintf(&b, "%8d %14s %12.3f\n", p.Threads, p.Elapsed.Round(time.Millisecond), p.Normalized)
		}
	}
	return b.String()
}

// AblationPoint is one configuration's measurement in an ablation study.
type AblationPoint struct {
	Config  string
	Elapsed time.Duration
	Checks  int64
}

// Ablations measures the design choices DESIGN.md calls out, on DBTESMA_1K
// (whose order-equivalent column group makes the reduction phase matter):
// column reduction on/off and the rank-vector cache on/off.
func Ablations(ctx context.Context, s Scale) []AblationPoint {
	r := Dataset("DBTESMA_1K", s)
	var out []AblationPoint
	run := func(config string, opts core.Options) {
		if ctx.Err() != nil {
			return
		}
		opts.Timeout = s.Timeout
		opts.MaxCandidates = s.MaxCand
		res := discover(ctx, s, r, opts)
		out = append(out, AblationPoint{Config: config, Elapsed: res.Stats.Elapsed, Checks: res.Stats.Checks})
	}
	run("baseline", core.Options{})
	run("reduction-off", core.Options{DisableColumnReduction: true})
	run("index-cache-off", core.Options{IndexCacheSize: 1})
	return out
}

// FormatAblations renders the ablation table.
func FormatAblations(pts []AblationPoint) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-18s %12s %10s\n", "config", "time", "checks")
	for _, p := range pts {
		fmt.Fprintf(&b, "%-18s %12s %10d\n", p.Config, p.Elapsed.Round(time.Millisecond), p.Checks)
	}
	return b.String()
}
