package core

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"ocd/internal/obs"
)

// This file bridges the BFS traversal to internal/obs: metric names, the
// span hierarchy, and the progress-report cadence all live here so the
// traversal code itself carries only cheap hook calls.
//
// Hot-path discipline (enforced by the ocdlint obshot analyzer): the
// per-candidate path touches only pre-resolved instrument handles —
// Histogram.Observe for check latency, a single atomic add. Progress is
// added once per chunk of candidates, with one atomic threshold load for
// the report cadence. Everything that locks, formats or allocates (span
// creation, registry lookups, rate math) happens at level boundaries or at
// the report cadence (every ReportEvery checks, polled once per chunk),
// never per candidate.

// Registry metric names. The full catalogue is documented in
// docs/OBSERVABILITY.md; tests pin the stable ones.
const (
	// Counters (cumulative over the run, resume-continuous).
	MetricChecks         = "discover.checks"
	MetricCandidates     = "discover.candidates"
	MetricLevels         = "discover.levels"
	MetricOCDs           = "discover.ocds"
	MetricODs            = "discover.ods"
	MetricPrunes         = "discover.prunes"
	MetricCheckpoints    = "discover.checkpoints"
	MetricMemoryReleases = "discover.memory_releases"
	// Gauges (instantaneous).
	MetricLevel        = "discover.level"
	MetricFrontierSize = "discover.frontier_size"
	// Histograms.
	MetricCheckLatency    = "discover.check_latency_ns"
	MetricLevelCandidates = "discover.level_candidates"
	MetricWorkerBusy      = "discover.worker_busy_ns"
)

// Cache metric names owned by internal/order but consumed here for the
// progress ticker's hit-rate column.
const (
	MetricIndexCacheHits   = "order.index_cache.hits"
	MetricIndexCacheMisses = "order.index_cache.misses"
)

// defaultReportEvery is the check cadence of mid-level progress reports
// when a Reporter is set but Options.ReportEvery is not.
const defaultReportEvery = 10_000

// runObs carries one run's observability state: pre-resolved instrument
// handles, the span spine, and the progress-report bookkeeping. A nil
// *runObs (observability fully disabled) is valid — every method
// no-ops — so the traversal calls hooks unconditionally.
type runObs struct {
	reg         *obs.Registry
	reporter    obs.Reporter
	reportEvery int64

	// Pre-resolved handles; nil (no-op) when reg is nil.
	prunesC    *obs.Counter
	checksC    *obs.Counter
	candsC     *obs.Counter
	levelsC    *obs.Counter
	ocdsC      *obs.Counter
	odsC       *obs.Counter
	ckptC      *obs.Counter
	memRelC    *obs.Counter
	levelG     *obs.Gauge
	frontierG  *obs.Gauge
	checkLat   *obs.Histogram
	levelCands *obs.Histogram
	workerBusy *obs.Histogram
	idxHits    *obs.Counter
	idxMisses  *obs.Counter

	// Span spine: runSpan under the caller's parent, one level span at a
	// time under it. Both nil when tracing is off.
	parent    *obs.Span
	runSpan   *obs.Span
	levelSpan *obs.Span

	// Level-progress state written at level boundaries (main goroutine)
	// and read from workers at report time, hence atomic.
	start        time.Time
	prior        time.Duration
	curLevel     atomic.Int64
	curFrontier  atomic.Int64
	levelDone    atomic.Int64
	levelStartNS atomic.Int64 // since ro.start
	genAtLevel   atomic.Int64
	nextReportAt atomic.Int64

	// Main-goroutine-only per-level baselines for span attributes.
	nOCDAtLevel   int
	nODAtLevel    int
	checksAtLevel int64

	// Rate bookkeeping, touched only at report cadence.
	mu         sync.Mutex
	lastTime   time.Time
	lastChecks int64
}

// newRunObs returns the run's observability state, or nil when metrics,
// tracing and reporting are all disabled.
func newRunObs(o *Options) *runObs {
	if o.Metrics == nil && o.Trace == nil && o.Reporter == nil {
		return nil
	}
	reg := o.Metrics
	every := o.ReportEvery
	if every <= 0 {
		every = defaultReportEvery
	}
	latBounds := obs.ExpBounds(1000, 4, 14)     // 1µs .. ~268s
	busyBounds := obs.ExpBounds(100_000, 4, 14) // 100µs .. ~7.5h
	candBounds := obs.ExpBounds(1, 4, 16)       // 1 .. ~1e9 candidates/level
	return &runObs{
		reg:         reg,
		reporter:    o.Reporter,
		reportEvery: every,
		parent:      o.Trace,
		prunesC:     reg.Counter(MetricPrunes),
		checksC:     reg.Counter(MetricChecks),
		candsC:      reg.Counter(MetricCandidates),
		levelsC:     reg.Counter(MetricLevels),
		ocdsC:       reg.Counter(MetricOCDs),
		odsC:        reg.Counter(MetricODs),
		ckptC:       reg.Counter(MetricCheckpoints),
		memRelC:     reg.Counter(MetricMemoryReleases),
		levelG:      reg.Gauge(MetricLevel),
		frontierG:   reg.Gauge(MetricFrontierSize),
		checkLat:    reg.Histogram(MetricCheckLatency, latBounds),
		levelCands:  reg.Histogram(MetricLevelCandidates, candBounds),
		workerBusy:  reg.Histogram(MetricWorkerBusy, busyBounds),
		idxHits:     reg.Counter(MetricIndexCacheHits),
		idxMisses:   reg.Counter(MetricIndexCacheMisses),
	}
}

// runStart opens the run span and the clocks. prior is the original
// run's cumulative elapsed time on a resumed run.
func (ro *runObs) runStart(start time.Time, prior time.Duration) {
	if ro == nil {
		return
	}
	ro.start = start
	ro.prior = prior
	ro.nextReportAt.Store(ro.reportEvery)
	if ro.parent != nil {
		ro.runSpan = ro.parent.StartChild("discover")
	}
}

// runEnd closes the run span with the run totals, mirrors the final
// counters and emits the final progress report.
func (ro *runObs) runEnd(d *discoverer, res *Result) {
	if ro == nil {
		return
	}
	ro.syncTotals(d, res)
	if ro.runSpan != nil {
		ro.runSpan.SetAttr("checks", res.Stats.Checks)
		ro.runSpan.SetAttr("candidates", res.Stats.Candidates)
		ro.runSpan.SetAttr("levels", int64(res.Stats.Levels))
		ro.runSpan.SetAttr("ocds", int64(len(res.OCDs)))
		ro.runSpan.SetAttr("ods", int64(len(res.ODs)))
		ro.runSpan.End()
	}
	if ro.reporter != nil {
		ro.report(d, true)
	}
}

// phaseSpan opens a named child span of the run span (reduction, resume
// verification). The caller ends it.
func (ro *runObs) phaseSpan(name string) *obs.Span {
	if ro == nil {
		return nil
	}
	return ro.runSpan.StartChild(name)
}

// levelStart opens the level span, publishes the level gauges, resets
// the per-level progress state and emits the level-barrier report.
func (ro *runObs) levelStart(d *discoverer, res *Result, levelNo int, frontier int) {
	if ro == nil {
		return
	}
	ro.curLevel.Store(int64(levelNo))
	ro.curFrontier.Store(int64(frontier))
	ro.levelDone.Store(0)
	ro.levelStartNS.Store(int64(time.Since(ro.start)))
	ro.genAtLevel.Store(d.generated.Load())
	ro.nOCDAtLevel = len(res.OCDs)
	ro.nODAtLevel = len(res.ODs)
	ro.checksAtLevel = d.checksBase + d.chk.Checks()
	ro.levelG.Set(int64(levelNo))
	ro.frontierG.Set(int64(frontier))
	ro.levelCands.Observe(int64(frontier))
	if ro.runSpan != nil {
		ro.levelSpan = ro.runSpan.StartChild(fmt.Sprintf("level %d", levelNo))
		ro.levelSpan.SetAttr("frontier", int64(frontier))
	}
	ro.syncTotals(d, res)
	if ro.reporter != nil {
		ro.report(d, false)
	}
}

// levelEnd closes the level span with the level's check/emission deltas.
func (ro *runObs) levelEnd(d *discoverer, res *Result, generated int) {
	if ro == nil || ro.levelSpan == nil {
		return
	}
	ro.levelSpan.SetAttr("checks", d.checksBase+d.chk.Checks()-ro.checksAtLevel)
	ro.levelSpan.SetAttr("ocds", int64(len(res.OCDs)-ro.nOCDAtLevel))
	ro.levelSpan.SetAttr("ods", int64(len(res.ODs)-ro.nODAtLevel))
	ro.levelSpan.SetAttr("generated", int64(generated))
	ro.levelSpan.End()
	ro.levelSpan = nil
}

// workerStart opens a per-worker batch span on its own trace lane and
// starts the busy-time clock. Returns zero values when both tracing and
// the busy-time histogram are off.
func (ro *runObs) workerStart(w int) (*obs.Span, time.Time) {
	if ro == nil {
		return nil, time.Time{}
	}
	var sp *obs.Span
	if ro.levelSpan != nil {
		sp = ro.levelSpan.StartChildLane(fmt.Sprintf("worker %d", w), w+1)
	}
	if sp == nil && ro.workerBusy == nil {
		return nil, time.Time{}
	}
	return sp, time.Now()
}

// workerEnd closes the batch span and records the worker's busy time.
func (ro *runObs) workerEnd(sp *obs.Span, t0 time.Time, out *workerOut) {
	if ro == nil || t0.IsZero() {
		return
	}
	ro.workerBusy.Observe(int64(time.Since(t0)))
	if sp != nil {
		sp.SetAttr("ocds", int64(len(out.ocds)))
		sp.SetAttr("ods", int64(len(out.ods)))
		sp.SetAttr("generated", int64(out.next.Len()))
		sp.End()
	}
}

// checkStart starts the latency clock for one order check; zero when the
// latency histogram is off, so disabled runs never read the clock.
// lint:hot
func (ro *runObs) checkStart() time.Time {
	if ro == nil || ro.checkLat == nil {
		return time.Time{}
	}
	return time.Now()
}

// checkDone records one check's latency.
// lint:hot
func (ro *runObs) checkDone(t0 time.Time) {
	if ro == nil || t0.IsZero() {
		return
	}
	ro.checkLat.Observe(int64(time.Since(t0)))
}

// chunkDone advances the level-progress counter by the n candidates a
// worker finished, then, at the report cadence, emits a mid-level progress
// report from whichever worker crosses the threshold first (the CAS elects
// exactly one). Workers call it once per chunk, after flushing their
// Handle, so counters other workers read move once per chunk, not once per
// candidate.
func (ro *runObs) chunkDone(d *discoverer, n int) {
	if ro == nil {
		return
	}
	ro.levelDone.Add(int64(n))
	if ro.reporter == nil {
		return
	}
	checks := d.checksBase + d.chk.Checks()
	at := ro.nextReportAt.Load()
	if checks < at {
		return
	}
	if !ro.nextReportAt.CompareAndSwap(at, checks+ro.reportEvery) {
		return
	}
	ro.report(d, false)
}

// cacheHitRate derives the cumulative hit rate of the checker's rank-vector
// cache; negative when no cache activity was recorded.
func (ro *runObs) cacheHitRate() float64 {
	hits := ro.idxHits.Value()
	total := hits + ro.idxMisses.Value()
	if total == 0 {
		return -1
	}
	return float64(hits) / float64(total)
}

// report assembles and delivers one progress sample. Called at level
// barriers, at the check cadence, and once with final=true at run end.
func (ro *runObs) report(d *discoverer, final bool) {
	now := time.Now()
	checks := d.checksBase + d.chk.Checks()

	ro.mu.Lock()
	var cps float64
	if !ro.lastTime.IsZero() {
		if dt := now.Sub(ro.lastTime).Seconds(); dt > 0 {
			cps = float64(checks-ro.lastChecks) / dt
		}
	} else if el := now.Sub(ro.start).Seconds(); el > 0 {
		cps = float64(checks) / el
	}
	ro.lastTime = now
	ro.lastChecks = checks
	ro.mu.Unlock()

	done := ro.levelDone.Load()
	frontier := ro.curFrontier.Load()
	ro.reporter.Report(obs.Progress{
		Level:        int(ro.curLevel.Load()),
		FrontierSize: int(frontier),
		Done:         done,
		Checks:       checks,
		Candidates:   d.generated.Load(),
		ChecksPerSec: cps,
		CacheHitRate: ro.cacheHitRate(),
		Elapsed:      now.Sub(ro.start),
		PriorElapsed: ro.prior,
		ETA:          ro.eta(d, now, done, frontier, final),
		Final:        final,
	})
}

// eta estimates time to drain the current level plus one projected next
// level, scaled by the frontier growth observed so far. A rough forward
// signal for the progress ticker, not a promise: the candidate tree can
// collapse or blow up at any level. Negative means "no signal yet".
func (ro *runObs) eta(d *discoverer, now time.Time, done, frontier int64, final bool) time.Duration {
	if final || done <= 0 || frontier <= 0 || done > frontier {
		return -1
	}
	inLevel := now.Sub(ro.start) - time.Duration(ro.levelStartNS.Load())
	if inLevel <= 0 {
		return -1
	}
	rate := float64(done) / inLevel.Seconds() // candidates per second
	if rate <= 0 {
		return -1
	}
	remaining := float64(frontier - done)
	projectedNext := float64(d.generated.Load()-ro.genAtLevel.Load()) / float64(done) * float64(frontier)
	sec := (remaining + projectedNext) / rate
	return time.Duration(sec * float64(time.Second))
}

// syncTotals mirrors the externally tracked run totals into the registry
// counters. Called only from the main goroutine at level boundaries and
// run end, when no worker is appending to res — together with the live
// latency observations this keeps the registry's view exact at every
// barrier, which is what the checkpoint records. The discover.* counters
// come from the run's totals, which a resumed run restores from the
// snapshot's Stats, so they carry across a resume whether or not the
// snapshot holds a registry.
func (ro *runObs) syncTotals(d *discoverer, res *Result) {
	if ro == nil {
		return
	}
	ro.checksC.Store(d.checksBase + d.chk.Checks())
	ro.candsC.Store(res.Stats.Candidates)
	ro.prunesC.Store(res.Stats.Prunes)
	ro.levelsC.Store(int64(res.Stats.Levels))
	ro.ocdsC.Store(int64(len(res.OCDs)))
	ro.odsC.Store(int64(len(res.ODs)))
	ro.ckptC.Store(int64(res.Stats.Checkpoints))
	ro.memRelC.Store(int64(res.Stats.MemoryReleases))
}

// barrierMetrics captures the registry snapshot persisted at a barrier,
// nil when no registry is attached.
func (ro *runObs) barrierMetrics() *obs.Snapshot {
	if ro == nil || ro.reg == nil {
		return nil
	}
	s := ro.reg.Snapshot()
	return &s
}
