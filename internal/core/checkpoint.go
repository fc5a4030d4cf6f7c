package core

import (
	"fmt"
	"slices"
	"time"

	"ocd/internal/attr"
	"ocd/internal/checkpoint"
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
	valid     bool
	nOCD, nOD int
	// snap holds the cut's frontier, counters, cumulative elapsed time and
	// registry snapshot; snapshotAtBarrier adds the rest. The metrics are
	// captured here — with no workers running — rather than at write time,
	// so a snapshot written after a truncated level never leaks that
	// level's partial counter increments.
	snap checkpoint.Snapshot
}

// noteBarrier records the current state as the latest consistent cut.
// Called with the frontier that is about to be processed (or the empty
// final frontier), after the preceding level fully completed.
func (d *discoverer) noteBarrier(lv *level, res *Result) {
	d.ro.syncTotals(d, res)
	d.barrier = barrier{
		valid: true,
		nOCD:  len(res.OCDs),
		nOD:   len(res.ODs),
		snap: checkpoint.Snapshot{
			Frontier: lv.Rows,
			Stats: checkpoint.Stats{
				Checks:         d.checksBase + d.chk.Checks(),
				Candidates:     res.Stats.Candidates,
				Prunes:         res.Stats.Prunes,
				Levels:         res.Stats.Levels,
				MemoryReleases: res.Stats.MemoryReleases,
			},
			ElapsedNanos: int64(d.priorElapsed + time.Since(d.start)),
			Metrics:      d.ro.barrierMetrics(),
		},
	}
}

// snapshotAtBarrier materializes the latest barrier as a Snapshot. The
// snapshot shares the run's slices, so it allocates nothing per pair; it
// is encoded at once, while no worker runs.
func (d *discoverer) snapshotAtBarrier(res *Result) *checkpoint.Snapshot {
	s := d.barrier.snap
	s.Fingerprint = d.fingerprint()
	s.DisableColumnReduction = d.opts.DisableColumnReduction
	s.Universe, s.Reduced = d.universe, d.reduced
	s.Constants, s.EquivClasses = res.Constants, res.EquivClasses
	s.OCDs = make([]attr.Pair, d.barrier.nOCD)
	for i, ocd := range res.OCDs[:d.barrier.nOCD] {
		s.OCDs[i] = attr.Pair(ocd)
	}
	s.ODs = make([]attr.Pair, d.barrier.nOD)
	for i, od := range res.ODs[:d.barrier.nOD] {
		s.ODs[i] = attr.Pair(od)
	}
	return &s
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
// the frontier, which it returns.
func (d *discoverer) restoreFromSnapshot(s *checkpoint.Snapshot, res *Result) level {
	// The run copies the slices it modifies in place (sortResult sorts
	// Constants, the level loop reuses its buffers) and shares the
	// attribute lists, which nothing modifies.
	d.universe, d.reduced = s.Universe, s.Reduced
	res.Constants, res.EquivClasses = slices.Clone(s.Constants), slices.Clone(s.EquivClasses)
	res.OCDs = slices.Grow(res.OCDs, len(s.OCDs))
	for _, p := range s.OCDs {
		res.OCDs = append(res.OCDs, OCD(p))
	}
	res.ODs = slices.Grow(res.ODs, len(s.ODs))
	for _, p := range s.ODs {
		res.ODs = append(res.ODs, OD(p))
	}
	d.checksBase = s.Stats.Checks
	res.Stats.Candidates = s.Stats.Candidates
	res.Stats.Prunes = s.Stats.Prunes
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
	var lv level
	lv.Reset(s.Frontier.K())
	lv.AppendRows(&s.Frontier, 0, s.Frontier.Len())
	return lv
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
	if !slices.Equal(s.Universe, d.universe) {
		return fmt.Errorf("%w: snapshot covers another column selection (%d columns, this run %d) — resume with the original one",
			checkpoint.ErrMismatch, len(s.Universe), len(d.universe))
	}
	return nil
}

func onOff(b bool) string {
	if b {
		return "on"
	}
	return "off"
}
