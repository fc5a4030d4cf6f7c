package core

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"runtime/debug"
	"testing"

	"ocd/internal/attr"
	"ocd/internal/checkpoint"
	"ocd/internal/relation"
)

// loadSnapshot reads the snapshot a truncated run left behind.
func loadSnapshot(t *testing.T, path string) *checkpoint.Snapshot {
	t.Helper()
	s, err := checkpoint.Load(path)
	if err != nil {
		t.Fatalf("Load(%s): %v", path, err)
	}
	return s
}

// assertSameDiscovery asserts the resumed run reproduced the fresh run
// exactly: every dependency list and every deterministic counter.
func assertSameDiscovery(t *testing.T, fresh, resumed *Result) {
	t.Helper()
	if !reflect.DeepEqual(fresh.OCDs, resumed.OCDs) {
		t.Errorf("OCDs differ:\nfresh:   %v\nresumed: %v", fresh.OCDs, resumed.OCDs)
	}
	if !reflect.DeepEqual(fresh.ODs, resumed.ODs) {
		t.Errorf("ODs differ:\nfresh:   %v\nresumed: %v", fresh.ODs, resumed.ODs)
	}
	if !reflect.DeepEqual(fresh.Constants, resumed.Constants) {
		t.Errorf("Constants differ: fresh %v, resumed %v", fresh.Constants, resumed.Constants)
	}
	if !reflect.DeepEqual(fresh.EquivClasses, resumed.EquivClasses) {
		t.Errorf("EquivClasses differ: fresh %v, resumed %v", fresh.EquivClasses, resumed.EquivClasses)
	}
	if fresh.Stats.Checks != resumed.Stats.Checks {
		t.Errorf("Checks: fresh %d, resumed total %d", fresh.Stats.Checks, resumed.Stats.Checks)
	}
	if fresh.Stats.Candidates != resumed.Stats.Candidates {
		t.Errorf("Candidates: fresh %d, resumed total %d", fresh.Stats.Candidates, resumed.Stats.Candidates)
	}
	if fresh.Stats.Prunes != resumed.Stats.Prunes {
		t.Errorf("Prunes: fresh %d, resumed total %d", fresh.Stats.Prunes, resumed.Stats.Prunes)
	}
	if fresh.Stats.Levels != resumed.Stats.Levels {
		t.Errorf("Levels: fresh %d, resumed total %d", fresh.Stats.Levels, resumed.Stats.Levels)
	}
	if !resumed.Stats.Resumed {
		t.Error("resumed run did not set Stats.Resumed")
	}
}

// TestResumeAfterLevelCapMatchesFresh is the differential core of the
// checkpoint contract: truncate a run at a level barrier, resume from its
// snapshot, and the combined output — dependencies and counters — must be
// indistinguishable from a run that was never interrupted. A frontier is a
// set, so a resume from the same frontier in reverse order must match too;
// from level 4 on a child can have two parents, and which copy the barrier
// drops depends on the order the level lists them in.
func TestResumeAfterLevelCapMatchesFresh(t *testing.T) {
	r := correlatedRelation(t, 60)
	fresh := Discover(r, Options{Workers: 2})
	if fresh.Stats.Levels < 4 {
		t.Fatalf("dataset too shallow for a meaningful resume: %d levels", fresh.Stats.Levels)
	}

	for _, maxLevel := range []int{2, 3} {
		ckpt := filepath.Join(t.TempDir(), "run.ckpt")
		part := Discover(r, Options{Workers: 2, MaxLevel: maxLevel, CheckpointPath: ckpt})
		if !part.Stats.Truncated || part.Stats.Reason != TruncateMaxLevel {
			t.Fatalf("MaxLevel %d: expected level-cap truncation, got %+v", maxLevel, part.Stats)
		}
		if part.Stats.Checkpoints == 0 {
			t.Fatalf("MaxLevel %d: truncated run wrote no snapshot", maxLevel)
		}

		snap := loadSnapshot(t, ckpt)
		if snap.Complete() {
			t.Fatalf("MaxLevel %d: truncated run's snapshot claims completion", maxLevel)
		}
		reversed := *snap
		reversed.Frontier = checkpoint.Rows{}
		reversed.Frontier.Reset(snap.Frontier.K())
		for i := snap.Frontier.Len() - 1; i >= 0; i-- {
			reversed.Frontier.AppendRows(&snap.Frontier, i, i+1)
		}
		for _, s := range []*checkpoint.Snapshot{snap, &reversed} {
			resumed, err := DiscoverContext(context.Background(), r, Options{Workers: 2, Resume: s})
			if err != nil {
				t.Fatalf("MaxLevel %d: resume: %v", maxLevel, err)
			}
			if resumed.Stats.Truncated {
				t.Fatalf("MaxLevel %d: resumed run truncated: %+v", maxLevel, resumed.Stats)
			}
			assertSameDiscovery(t, fresh, resumed)
			assertWellFormed(t, r, resumed)
		}
	}
}

// TestResumeAfterCandidateCapMatchesFresh exercises the mid-level stop: the
// candidate budget trips workers inside a level, so the barrier stays at the
// previous level and resume re-runs the interrupted level from scratch.
func TestResumeAfterCandidateCapMatchesFresh(t *testing.T) {
	r := correlatedRelation(t, 60)
	fresh := Discover(r, Options{})

	ckpt := filepath.Join(t.TempDir(), "run.ckpt")
	part := Discover(r, Options{MaxCandidates: fresh.Stats.Candidates / 2, CheckpointPath: ckpt})
	if !part.Stats.Truncated || part.Stats.Reason != TruncateMaxCandidates {
		t.Fatalf("expected candidate-cap truncation, got %+v", part.Stats)
	}

	resumed, err := DiscoverContext(context.Background(), r, Options{Resume: loadSnapshot(t, ckpt)})
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	assertSameDiscovery(t, fresh, resumed)
}

// TestResumeOfCompleteRun: a full run's final snapshot has an empty frontier;
// resuming it re-emits the complete result without performing any checks.
func TestResumeOfCompleteRun(t *testing.T) {
	r := correlatedRelation(t, 40)
	ckpt := filepath.Join(t.TempDir(), "run.ckpt")
	fresh := Discover(r, Options{CheckpointPath: ckpt})
	if fresh.Stats.Truncated {
		t.Fatalf("fresh run truncated: %+v", fresh.Stats)
	}
	wantPeriodic := fresh.Stats.Levels // one per completed level with a successor, plus the final one
	if fresh.Stats.Checkpoints < 2 || fresh.Stats.Checkpoints > wantPeriodic+1 {
		t.Errorf("Checkpoints = %d, want within [2, %d]", fresh.Stats.Checkpoints, wantPeriodic+1)
	}

	snap := loadSnapshot(t, ckpt)
	if !snap.Complete() {
		t.Fatalf("final snapshot of a complete run has frontier %d", snap.Frontier.Len())
	}
	resumed, err := DiscoverContext(context.Background(), r, Options{Resume: snap})
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	assertSameDiscovery(t, fresh, resumed)
	if got := resumed.Stats.Checks - snap.Stats.Checks; got != 0 {
		t.Errorf("resuming a complete run performed %d checks, want 0", got)
	}
}

// TestResumeRefusesModifiedData: resuming against a relation whose rank
// structure changed fails fast with a fingerprint mismatch.
func TestResumeRefusesModifiedData(t *testing.T) {
	r := correlatedRelation(t, 40)
	ckpt := filepath.Join(t.TempDir(), "run.ckpt")
	Discover(r, Options{MaxLevel: 2, CheckpointPath: ckpt})
	snap := loadSnapshot(t, ckpt)

	divs := []int{2, 3, 5, 7, 11, 13}
	data := make([][]int, 40)
	for i := range data {
		row := make([]int, len(divs))
		for j, d := range divs {
			row[j] = i / d
		}
		data[i] = row
	}
	data[7][1] = 99 // breaks column 1's rank order
	modified, err := relation.FromIntsErr("correlated", nil, data)
	if err != nil {
		t.Fatalf("FromIntsErr: %v", err)
	}

	res, rerr := DiscoverContext(context.Background(), modified, Options{Resume: snap})
	if !errors.Is(rerr, checkpoint.ErrMismatch) {
		t.Fatalf("resume against modified data: err = %v, want ErrMismatch", rerr)
	}
	if len(res.OCDs) != 0 || res.Stats.Checks != 0 {
		t.Errorf("mismatched resume did work before failing: %+v", res.Stats)
	}
}

// TestResumeRefusesOptionMismatch: the snapshot pins the column universe and
// the reduction setting; a resume that changes either is refused.
func TestResumeRefusesOptionMismatch(t *testing.T) {
	r := correlatedRelation(t, 40)
	ckpt := filepath.Join(t.TempDir(), "run.ckpt")
	Discover(r, Options{MaxLevel: 2, CheckpointPath: ckpt})
	snap := loadSnapshot(t, ckpt)

	if _, err := DiscoverContext(context.Background(), r, Options{
		Resume: snap, DisableColumnReduction: true,
	}); !errors.Is(err, checkpoint.ErrMismatch) {
		t.Errorf("reduction toggle: err = %v, want ErrMismatch", err)
	}
	if _, err := DiscoverContext(context.Background(), r, Options{
		Resume: snap, Columns: []attr.ID{0, 1, 2},
	}); !errors.Is(err, checkpoint.ErrMismatch) {
		t.Errorf("column subset: err = %v, want ErrMismatch", err)
	}
}

// TestCheckpointWriteFailureIsNonFatal: an unwritable checkpoint path never
// aborts discovery; the failure is recorded and the run completes normally.
func TestCheckpointWriteFailureIsNonFatal(t *testing.T) {
	r := correlatedRelation(t, 40)
	fresh := Discover(r, Options{})
	res := Discover(r, Options{CheckpointPath: filepath.Join(t.TempDir(), "no", "such", "dir", "x.ckpt")})
	if res.Stats.CheckpointError == "" {
		t.Fatal("expected Stats.CheckpointError to record the write failure")
	}
	if res.Stats.Checkpoints != 0 {
		t.Errorf("Checkpoints = %d after a failed write", res.Stats.Checkpoints)
	}
	if res.Stats.Truncated {
		t.Errorf("checkpoint failure truncated the run: %+v", res.Stats)
	}
	if !reflect.DeepEqual(fresh.OCDs, res.OCDs) {
		t.Error("checkpoint failure changed the discovered OCDs")
	}
}

// TestNoSnapshotBeforeFirstBarrier: a cancellation that lands before the
// initial frontier exists (here: before the run starts) may have degraded the
// reduction phase, so nothing may be persisted.
func TestNoSnapshotBeforeFirstBarrier(t *testing.T) {
	r := correlatedRelation(t, 40)
	ckpt := filepath.Join(t.TempDir(), "run.ckpt")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := DiscoverContext(ctx, r, Options{CheckpointPath: ckpt})
	if err == nil {
		t.Fatal("expected a context error")
	}
	if res.Stats.Checkpoints != 0 {
		t.Errorf("pre-cancelled run wrote %d snapshots", res.Stats.Checkpoints)
	}
	if _, statErr := os.Stat(ckpt); !os.IsNotExist(statErr) {
		t.Errorf("pre-cancelled run left a snapshot on disk (stat err: %v)", statErr)
	}
}

// TestSnapshotAllocsIndependentOfFrontier: a barrier becomes a snapshot,
// and a snapshot a level, in as many allocations for a frontier of 100,000
// pairs as for one of 1,000: the frontier's rows are shared or copied
// whole, never converted pair by pair.
func TestSnapshotAllocsIndependentOfFrontier(t *testing.T) {
	// A GC cycle makes a few heap allocations of the runtime's own, which
	// AllocsPerRun counts as the function's, and the large frontier meets
	// more cycles; so the collector is off while allocations are counted.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	r := correlatedRelation(t, 40)
	allocs := func(pairs int) (snap, restore float64) {
		d := newDiscoverer(r, Options{Workers: 1})
		var lv level
		lv.Reset(3)
		for i := 0; i < pairs; i++ {
			lv.AppendRight([]uint16{0, 1}, 1, 2)
		}
		d.noteBarrier(&lv, d.res)
		s := d.snapshotAtBarrier(d.res) // computes the fingerprint once
		snap = testing.AllocsPerRun(3, func() { d.snapshotAtBarrier(d.res) })
		restore = testing.AllocsPerRun(3, func() { d.restoreFromSnapshot(s, &Result{}) })
		return snap, restore
	}
	snapSmall, restoreSmall := allocs(1000)
	snapLarge, restoreLarge := allocs(100000)
	if snapSmall != snapLarge || restoreSmall != restoreLarge {
		t.Fatalf("allocations for 1,000 / 100,000 frontier pairs: snapshot %v / %v, restore %v / %v",
			snapSmall, snapLarge, restoreSmall, restoreLarge)
	}
}
