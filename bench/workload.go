package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"ocd"
	"ocd/internal/datagen"
	"ocd/internal/relation"
)

// workload is one dataset and the entry point it goes through. Why each
// one exists is recorded in BENCHMARK.json and bench/README.md.
type workload struct {
	name    string
	service bool // through an in-process job server instead of the library
	// unscaled reports the workload's times as measured rather than at
	// reference speed (see refClock). Its ops take about a millisecond and
	// mostly wait on the other side of a connection, so the host's
	// preemptions of the VM reach their tail but not their median, while
	// the reference loop slows with every one of them.
	unscaled bool
	gen      func() *relation.Relation
}

// workloads lists the benchmark's workloads. lineitemRows scales the
// row-heavy one; the tests shrink it.
func workloads(lineitemRows int) []workload {
	return []workload{
		{name: "lineitem-rows", gen: func() *relation.Relation { return datagen.LineItem(lineitemRows) }},
		{name: "hepatitis-lattice", gen: datagen.Hepatitis},
		{name: "serve-taxinfo", service: true, unscaled: true, gen: datagen.TaxTable},
		{name: "serve-horse", service: true, gen: datagen.Horse},
	}
}

// refSample is what the workload's refClock samples: nothing for an
// unscaled workload.
func (w workload) refSample(cfg runConfig) func() float64 {
	if w.unscaled {
		return nil
	}
	return cfg.refSample
}

// Library runs use two workers: one per core of the two-core box the
// baseline was recorded on, and the service's default on that box.
const libraryWorkers = 2

// permutedCSV renders rel as CSV with its rows in the order op of seed
// picks. Negative op numbers are set-up and warm-up ops.
func permutedCSV(rel *relation.Relation, seed, op int64) ([]byte, error) {
	rng := rand.New(rand.NewSource(seed*1_000_003 + op))
	return canonicalCSV(rel.SelectRows(rng.Perm(rel.NumRows())))
}

func canonicalCSV(rel *relation.Relation) ([]byte, error) {
	var buf bytes.Buffer
	if err := rel.WriteCSV(&buf); err != nil {
		return nil, fmt.Errorf("render csv: %w", err)
	}
	return buf.Bytes(), nil
}

// libraryOutcome discovers rel's dependencies from its canonical CSV.
func libraryOutcome(rel *relation.Relation) (outcome, error) {
	csv, err := canonicalCSV(rel)
	if err != nil {
		return outcome{}, err
	}
	r, err := discover(context.Background(), csv, rel.Name, ocd.Options{Workers: libraryWorkers}, nil)
	if err != nil {
		return outcome{}, err
	}
	return r.outcome, nil
}

// libraryRun is one library op: LoadCSV then DiscoverContext.
type libraryRun struct {
	load, discover time.Duration
	allocs         uint64
	outcome        outcome
	stats          ocd.Stats
}

func (r libraryRun) total() time.Duration { return r.load + r.discover }

// discover times one CSV → result op through the public library API.
// With a non-nil span the load and the run are recorded under it.
func discover(ctx context.Context, csv []byte, name string, opts ocd.Options, span *ocd.Span) (libraryRun, error) {
	var r libraryRun
	loadSpan := span.StartChild("relation.LoadCSV")
	var lo []ocd.LoadOption
	if loadSpan != nil {
		lo = append(lo, ocd.WithTrace(loadSpan))
	}
	a0 := heapAllocs()
	t0 := time.Now()
	tbl, err := ocd.LoadCSV(bytes.NewReader(csv), name, lo...)
	t1 := time.Now()
	loadSpan.End()
	if err != nil {
		return r, fmt.Errorf("load: %w", err)
	}
	discSpan := span.StartChild("core.DiscoverContext")
	opts.Trace = discSpan
	res, err := tbl.DiscoverContext(ctx, opts)
	t2 := time.Now()
	r.allocs = heapAllocs() - a0
	discSpan.End()
	if err != nil {
		return r, fmt.Errorf("discover: %w", err)
	}
	r.load, r.discover = t1.Sub(t0), t2.Sub(t1)
	r.outcome, r.stats = outcomeOf(tbl, res), res.Stats
	return r, nil
}

// libraryOp builds op's permuted CSV outside the timed section, collects
// the garbage of the previous op, then times and verifies one op.
func (e *env) libraryOp(ctx context.Context, op int64, workers int, span *ocd.Span, reg *ocd.Metrics) (libraryRun, error) {
	csv, err := permutedCSV(e.rel, e.cfg.seed, op)
	if err != nil {
		return libraryRun{}, err
	}
	runtime.GC()
	span.SetAttr("op", op)
	span.SetAttr("workers", int64(workers))
	r, err := discover(ctx, csv, e.rel.Name, ocd.Options{Workers: workers, Metrics: reg}, span)
	if err != nil {
		return r, err
	}
	if r.outcome != e.want {
		return r, fmt.Errorf("op %d: result %+v, want %+v", op, r.outcome, e.want)
	}
	return r, nil
}
