package main

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"sync/atomic"
	"time"

	"ocd/internal/relation"
)

// runConfig is what every workload run shares.
type runConfig struct {
	seed    int64
	window  time.Duration // how long the timed section runs
	dataDir string        // parent of the job server's data directory
	// setupReps is how often set-up runs at least; setup_s is the median.
	// Set-up repeats, up to maxSetups times, while all set-ups so far took
	// less than setupBudget, so a set-up of milliseconds gets a median of
	// many.
	setupReps   int
	setupBudget time.Duration
	// minOps is the least number of timed ops, however long they take.
	minOps int
	// warmup is the closed loop's untimed lead-in on service workloads.
	warmup time.Duration
	// refSample takes one sample of the reference clock (refSample).
	refSample func() float64
}

// Service runs use two closed-loop clients: as many callers as the
// server's default MaxActive admits at once on the two-core box.
const serviceClients = 2

// env is one set-up workload, ready for timed ops.
type env struct {
	w    workload
	cfg  runConfig
	rel  *relation.Relation
	want outcome
	svc  *service // service workloads only
}

// setup generates the workload's dataset, starts the job server for
// service workloads, and runs one verified warm-up op.
func setup(ctx context.Context, w workload, cfg runConfig, want outcome, rep int) (*env, error) {
	e := &env{w: w, cfg: cfg, rel: w.gen(), want: want}
	op := -1 - int64(rep)
	if !w.service {
		_, err := e.libraryOp(ctx, op, libraryWorkers, nil, nil)
		return e, err
	}
	// Every job's result must equal what the library finds on the data.
	lib, err := libraryOutcome(e.rel)
	if err != nil {
		return nil, err
	}
	if lib != want {
		return nil, fmt.Errorf("library result %+v, want %+v", lib, want)
	}
	if e.svc, err = startService(filepath.Join(cfg.dataDir, w.name)); err != nil {
		return nil, err
	}
	if _, err := e.serviceOp(ctx, op, nil); err != nil {
		return nil, errors.Join(err, e.close())
	}
	return e, nil
}

func (e *env) close() error {
	if e.svc == nil {
		return nil
	}
	return e.svc.close()
}

// report is one run's outcome: metric values by name plus every op that
// failed, was refused or returned a wrong result.
type report struct {
	attempted int
	failures  []error
	values    map[string]float64
	// note carries raw figures printed as a comment, not as metrics.
	note string
}

// serviceSlices is how many pieces the timed closed loop of a service
// workload is cut into, each bracketed by reference samples.
const serviceSlices = 8

// maxSetups caps how often set-up runs within cfg.setupBudget.
const maxSetups = 9

// setupAll runs set-up as often as cfg asks, keeping the last environment,
// and returns each set-up's seconds at reference speed. Each set-up is
// bracketed by the reference samples taken before and after it; closing
// the previous environment falls outside both.
func setupAll(ctx context.Context, w workload, cfg runConfig, want outcome, clock *refClock) (*env, []float64, []float64, error) {
	var e *env
	var took, raw []float64
	var spent time.Duration
	for i := 0; i < cfg.setupReps || (i < maxSetups && spent < cfg.setupBudget); i++ {
		if e != nil {
			if err := e.close(); err != nil {
				return nil, nil, nil, err
			}
		}
		t0 := time.Now()
		var err error
		if e, err = setup(ctx, w, cfg, want, i); err != nil {
			return nil, nil, nil, fmt.Errorf("set-up: %w", err)
		}
		dt := time.Since(t0)
		spent += dt
		raw = append(raw, dt.Seconds())
		took = append(took, dt.Seconds()*clock.tick())
	}
	return e, took, raw, nil
}

// endToEnd measures the workload's end-to-end metrics, untraced.
func endToEnd(ctx context.Context, w workload, cfg runConfig, want outcome) (rep report, err error) {
	rep.values = make(map[string]float64)
	clock := newRefClock(w.refSample(cfg))
	e, setups, rawSetups, err := setupAll(ctx, w, cfg, want, clock)
	if err != nil {
		return rep, err
	}
	defer func() { err = errors.Join(err, e.close()) }()

	var lat, rawLat []float64     // seconds per op
	var cycle, rawCycle []float64 // service: seconds per op of one client, DELETE included
	var busy, rawBusy float64     // library: seconds the timed ops took, back to back
	var allocs uint64
	if w.service {
		var next atomic.Int64
		warm := e.closedLoop(ctx, serviceClients, cfg.warmup, &next, nil)
		rep.attempted, rep.failures = len(warm.latency)+len(warm.failures), warm.failures
		clock.tick()
		for start, slices := time.Now(), 0; ctx.Err() == nil && (slices == 0 || time.Since(start) < cfg.window); slices++ {
			a0 := heapAllocs()
			slice := e.closedLoop(ctx, serviceClients, cfg.window/serviceSlices, &next, nil)
			allocs += heapAllocs() - a0
			k := clock.tick()
			rawLat = append(rawLat, slice.latency...)
			lat = append(lat, scaled(slice.latency, k)...)
			rawCycle = append(rawCycle, slice.cycle...)
			cycle = append(cycle, scaled(slice.cycle, k)...)
			rep.attempted += len(slice.latency) + len(slice.failures)
			rep.failures = append(rep.failures, slice.failures...)
		}
		if err := e.svc.checkCounters(ctx); err != nil {
			rep.failures = append(rep.failures, err)
		}
	} else {
		deadline := time.Now().Add(cfg.window)
		for op := int64(0); ctx.Err() == nil && (op < int64(cfg.minOps) || time.Now().Before(deadline)); op++ {
			rep.attempted++
			r, err := e.libraryOp(ctx, op, libraryWorkers, nil, nil)
			k := clock.tick()
			if err != nil {
				rep.failures = append(rep.failures, err)
				continue
			}
			dt := r.total().Seconds()
			rawLat, lat = append(rawLat, dt), append(lat, dt*k)
			busy, rawBusy, allocs = busy+dt*k, rawBusy+dt, allocs+r.allocs
		}
	}
	if len(lat) == 0 {
		return rep, errors.New("no op completed")
	}
	rss, err := peakRSSMiB()
	if err != nil {
		return rep, err
	}
	n := float64(len(lat))
	opsPerS, rawOpsPerS := n/busy, n/rawBusy
	if w.service {
		// The closed loop's throughput at its median cycle. The mean cycle
		// follows the host's preemptions of the VM, which stall a few ops
		// by tens of milliseconds, more than anything the program does.
		opsPerS, rawOpsPerS = serviceClients/median(cycle), serviceClients/median(rawCycle)
	}
	rep.values["op_s.p50"] = median(lat)
	rep.values["ops_per_s"] = opsPerS
	rep.values["peak_rss_mb"] = rss
	rep.values["alloc_mb_per_op"] = float64(allocs) / n / (1 << 20)
	rep.values["setup_s"] = median(setups)
	rep.note = fmt.Sprintf("raw op_s.p50=%g ops_per_s=%g setup_s=%g ref_s=%g ops=%d",
		median(rawLat), rawOpsPerS, median(rawSetups), median(clock.seen), len(lat))
	return rep, nil
}
