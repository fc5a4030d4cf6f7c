package core

import (
	"fmt"
	"time"

	"ocd/internal/attr"
	"ocd/internal/checkpoint"
	"ocd/internal/obs"
)

// This file is the bridge between the BFS traversal and the durable
// snapshot format of internal/checkpoint. The traversal is
// level-synchronous, so the only consistent cuts are completed level
// barriers: a barrier records the frontier for the next level plus the
// prefix of the result accumulated from fully processed levels. Snapshots
// are taken from barriers only — a level whose workers stopped early
// (cancel, budget, panic) contributes partial output to the in-memory
// Result for reporting, but never to a snapshot, which is what makes a
// resumed run's output provably identical to an uninterrupted one.

// barrier is a consistent cut of the traversal: the state exactly between
// two levels. nOCD/nOD are prefix lengths into res.OCDs/res.ODs (both
// slices are append-only during the run, so the prefix is stable).
type barrier struct {
	// valid is set by the first noteBarrier call; until then there is no
	// consistent cut to persist (a stop during column reduction can leave
	// degraded reduction output that must never be baked into a snapshot).
	valid      bool
	frontier   level
	levelNo    int
	nOCD, nOD  int
	candidates int64
	levels     int
	memRel     int
	checks     int64
	// elapsedNS is the cumulative wall-clock time at the barrier,
	// including a resumed run's prior elapsed time.
	elapsedNS int64
	// metrics is the registry snapshot at the barrier (nil when no
	// registry is attached). Captured here — with no workers running —
	// rather than at write time, so a snapshot written after a truncated
	// level never leaks that level's partial counter increments.
	metrics *obs.Snapshot
}

// noteBarrier records the current state as the latest consistent cut.
// Called with the frontier that is about to be processed (or the empty
// final frontier), after the preceding level fully completed.
func (d *discoverer) noteBarrier(lv *level, levelNo int, res *Result) {
	d.ro.syncTotals(d, res)
	d.barrier = barrier{
		valid:      true,
		frontier:   *lv,
		levelNo:    levelNo,
		nOCD:       len(res.OCDs),
		nOD:        len(res.ODs),
		candidates: res.Stats.Candidates,
		levels:     res.Stats.Levels,
		memRel:     res.Stats.MemoryReleases,
		checks:     d.checksBase + d.chk.Checks(),
		elapsedNS:  int64(d.priorElapsed + time.Since(d.start)),
		metrics:    d.ro.barrierMetrics(),
	}
}

// snapshotAtBarrier materializes the latest barrier as a Snapshot.
func (d *discoverer) snapshotAtBarrier(res *Result) *checkpoint.Snapshot {
	b := &d.barrier
	s := &checkpoint.Snapshot{
		Fingerprint:            d.fingerprint(),
		DisableColumnReduction: d.opts.DisableColumnReduction,
		Universe:               idsToInts(d.universe),
		Reduced:                idsToInts(d.reduced),
		Constants:              idsToInts(res.Constants),
		NextLevel:              b.levelNo,
		ElapsedNanos:           b.elapsedNS,
		Metrics:                b.metrics,
		Stats: checkpoint.Stats{
			Checks:         b.checks,
			Candidates:     b.candidates,
			Levels:         b.levels,
			MemoryReleases: b.memRel,
		},
	}
	for _, class := range res.EquivClasses {
		s.EquivClasses = append(s.EquivClasses, idsToInts(class))
	}
	for _, ocd := range res.OCDs[:b.nOCD] {
		s.OCDs = append(s.OCDs, pairRec(ocd.X, ocd.Y))
	}
	for _, od := range res.ODs[:b.nOD] {
		s.ODs = append(s.ODs, pairRec(od.X, od.Y))
	}
	s.Frontier = frontierRecs(&b.frontier)
	return s
}

// frontierRecs converts lv's rows to records whose sides share one
// backing array, so a level of millions of pairs costs two allocations.
func frontierRecs(lv *level) []checkpoint.PairRec {
	if lv.len() == 0 {
		return nil
	}
	ints := make([]int, len(lv.ids))
	for i, a := range lv.ids {
		ints[i] = int(a)
	}
	recs := make([]checkpoint.PairRec, lv.len())
	for i := range recs {
		o, s := lv.k*i, int(lv.split[i])
		recs[i] = checkpoint.PairRec{X: ints[o : o+s : o+s], Y: ints[o+s : o+lv.k : o+lv.k]}
	}
	return recs
}

// fingerprint computes (once) the dataset fingerprint of the run's input.
func (d *discoverer) fingerprint() checkpoint.Fingerprint {
	if d.fp == nil {
		fp := checkpoint.FingerprintOf(d.r, d.r.Name)
		d.fp = &fp
	}
	return *d.fp
}

// writeCheckpoint persists the latest barrier snapshot. Failures never
// abort discovery: the first one is recorded in Stats.CheckpointError and
// disables checkpointing for the rest of the run (the old snapshot, if
// any, stays intact on disk thanks to the atomic write).
func (d *discoverer) writeCheckpoint(res *Result) {
	if d.opts.CheckpointPath == "" || !d.barrier.valid || res.Stats.CheckpointError != "" {
		return
	}
	if err := checkpoint.Write(d.opts.CheckpointPath, d.snapshotAtBarrier(res)); err != nil {
		res.Stats.CheckpointError = err.Error()
		return
	}
	res.Stats.Checkpoints++
}

// restoreFromSnapshot rebuilds the traversal state from a verified
// snapshot: reduction outputs, validated dependencies, stats baseline and
// the frontier. Returns the frontier and its level number.
func (d *discoverer) restoreFromSnapshot(s *checkpoint.Snapshot, res *Result) (level, int) {
	d.universe = intsToIDs(s.Universe)
	d.reduced = intsToIDs(s.Reduced)
	res.Constants = intsToIDs(s.Constants)
	for _, class := range s.EquivClasses {
		res.EquivClasses = append(res.EquivClasses, intsToIDs(class))
	}
	for _, p := range s.OCDs {
		res.OCDs = append(res.OCDs, OCD{X: intsToIDs(p.X), Y: intsToIDs(p.Y)})
	}
	for _, p := range s.ODs {
		res.ODs = append(res.ODs, OD{X: intsToIDs(p.X), Y: intsToIDs(p.Y)})
	}
	d.checksBase = s.Stats.Checks
	res.Stats.Candidates = s.Stats.Candidates
	res.Stats.Levels = s.Stats.Levels
	res.Stats.MemoryReleases = s.Stats.MemoryReleases
	res.Stats.Resumed = true
	d.generated.Store(s.Stats.Candidates)
	// Restore the observability baseline: the original run's elapsed time
	// and its registry counters at the barrier, so crash + resume totals
	// (and metrics dumps) match an uninterrupted run's.
	d.priorElapsed = time.Duration(s.ElapsedNanos)
	res.Stats.PriorElapsed = d.priorElapsed
	if d.ro != nil {
		d.ro.prior = d.priorElapsed
	}
	if s.Metrics != nil {
		d.opts.Metrics.Restore(*s.Metrics)
	}
	levelNo := max(2, s.NextLevel)
	// Snapshot validation bounds every frontier id by the relation's width
	// and gives every frontier pair the level NextLevel.
	var lv level
	lv.reset(levelNo)
	for _, p := range s.Frontier {
		lv.appendPair(p.X, p.Y)
	}
	return lv, levelNo
}

// verifyResume checks that the snapshot belongs to this relation instance
// and is compatible with the requested options. The fingerprint guards the
// data; the option checks guard against silently diverging traversals
// (e.g. resuming a -top-entropy run without the restriction).
func (d *discoverer) verifyResume(s *checkpoint.Snapshot) error {
	if err := s.Fingerprint.Verify(d.r); err != nil {
		return err
	}
	if s.DisableColumnReduction != d.opts.DisableColumnReduction {
		return fmt.Errorf("%w: snapshot was taken with column reduction %s, this run has it %s",
			checkpoint.ErrMismatch, onOff(!s.DisableColumnReduction), onOff(!d.opts.DisableColumnReduction))
	}
	want := intsToIDs(s.Universe)
	if len(want) != len(d.universe) {
		return fmt.Errorf("%w: snapshot covers %d columns, this run requests %d — resume with the original column selection",
			checkpoint.ErrMismatch, len(want), len(d.universe))
	}
	for i, a := range want {
		if d.universe[i] != a {
			return fmt.Errorf("%w: snapshot column set differs at position %d — resume with the original column selection",
				checkpoint.ErrMismatch, i)
		}
	}
	return nil
}

func onOff(b bool) string {
	if b {
		return "on"
	}
	return "off"
}

func idsToInts(ids []attr.ID) []int {
	if ids == nil {
		return nil
	}
	out := make([]int, len(ids))
	for i, a := range ids {
		out[i] = int(a)
	}
	return out
}

func intsToIDs(ints []int) []attr.ID {
	if ints == nil {
		return nil
	}
	out := make([]attr.ID, len(ints))
	for i, v := range ints {
		out[i] = attr.ID(v)
	}
	return out
}

func pairRec(x, y attr.List) checkpoint.PairRec {
	return checkpoint.PairRec{X: idsToInts(x), Y: idsToInts(y)}
}
