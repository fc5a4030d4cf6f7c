//go:build faultinject

package core

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"ocd/internal/checkpoint"
	"ocd/internal/faultinject"
)

// TestResumeAfterWorkerPanicMatchesFresh is the chaos half of the
// differential contract: a worker panics on the first level-3 candidate (the
// 16th point hit — the correlated relation has exactly 15 initial pairs), so
// the snapshot on disk is the barrier after the initial level. Resuming it
// must reproduce the uninterrupted run exactly.
func TestResumeAfterWorkerPanicMatchesFresh(t *testing.T) {
	defer faultinject.Reset()
	r := correlatedRelation(t, 80)

	faultinject.Reset()
	fresh := Discover(r, Options{Workers: 4})
	if fresh.Stats.Truncated {
		t.Fatalf("fresh run truncated: %+v", fresh.Stats)
	}

	ckpt := filepath.Join(t.TempDir(), "run.ckpt")
	faultinject.Arm("core.worker.candidate", faultinject.Rule{
		Action: faultinject.ActionPanic, Nth: 16,
	})
	crashed, err := DiscoverContext(context.Background(), r,
		Options{Workers: 4, CheckpointPath: ckpt})
	faultinject.Disarm("core.worker.candidate")
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want a *PanicError", err)
	}
	if crashed.Stats.Checkpoints == 0 {
		t.Fatal("panic-truncated run wrote no snapshot")
	}

	snap, lerr := checkpoint.Load(ckpt)
	if lerr != nil {
		t.Fatalf("Load: %v", lerr)
	}
	if snap.Frontier.K() != 3 {
		t.Fatalf("snapshot frontier level = %d, want 3 (barrier after the initial level)", snap.Frontier.K())
	}
	resumed, rerr := DiscoverContext(context.Background(), r, Options{Workers: 4, Resume: snap})
	if rerr != nil {
		t.Fatalf("resume: %v", rerr)
	}
	assertSameDiscovery(t, fresh, resumed)
	assertWellFormed(t, r, resumed)
}

// TestCancelMidLevelSnapshotResumable lands a hard cancellation on an exact
// candidate inside level 3; the interrupted level must not advance the
// barrier, and resuming the snapshot completes the discovery identically.
func TestCancelMidLevelSnapshotResumable(t *testing.T) {
	defer faultinject.Reset()
	r := correlatedRelation(t, 80)

	faultinject.Reset()
	fresh := Discover(r, Options{Workers: 4})

	ckpt := filepath.Join(t.TempDir(), "run.ckpt")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	faultinject.Arm("core.worker.candidate", faultinject.Rule{
		Action: faultinject.ActionCancel, Nth: 20, Call: cancel,
	})
	crashed, err := DiscoverContext(ctx, r, Options{Workers: 4, CheckpointPath: ckpt})
	faultinject.Disarm("core.worker.candidate")
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if !crashed.Stats.Truncated || crashed.Stats.Reason != TruncateCancelled {
		t.Fatalf("stats = %+v, want cancelled truncation", crashed.Stats)
	}

	snap, lerr := checkpoint.Load(ckpt)
	if lerr != nil {
		t.Fatalf("Load: %v", lerr)
	}
	resumed, rerr := DiscoverContext(context.Background(), r, Options{Workers: 4, Resume: snap})
	if rerr != nil {
		t.Fatalf("resume: %v", rerr)
	}
	assertSameDiscovery(t, fresh, resumed)
}

// TestCheckpointWriteErrorDegradesToUncheckpointed injects a plain error
// (a full or read-only checkpoint disk) into the first snapshot write at a
// level barrier. The contract under test: discovery continues to a complete,
// correct result, merely un-checkpointed — the failure is surfaced in
// Stats.CheckpointError, no snapshot is counted, and nothing usable is left
// at the destination.
func TestCheckpointWriteErrorDegradesToUncheckpointed(t *testing.T) {
	defer faultinject.Reset()
	r := correlatedRelation(t, 80)

	faultinject.Reset()
	fresh := Discover(r, Options{Workers: 4})

	ckpt := filepath.Join(t.TempDir(), "run.ckpt")
	faultinject.Arm("checkpoint.write", faultinject.Rule{
		Action: faultinject.ActionErr, EveryK: 1,
	})
	res, err := DiscoverContext(context.Background(), r,
		Options{Workers: 4, CheckpointPath: ckpt})
	faultinject.Disarm("checkpoint.write")
	if err != nil {
		t.Fatalf("a failed snapshot write must not fail discovery: %v", err)
	}
	if res.Stats.Truncated {
		t.Fatalf("run truncated: %+v", res.Stats)
	}
	if res.Stats.CheckpointError == "" {
		t.Fatal("write failure not surfaced in Stats.CheckpointError")
	}
	if res.Stats.Checkpoints != 0 {
		t.Fatalf("Checkpoints = %d despite every write failing", res.Stats.Checkpoints)
	}
	if _, lerr := checkpoint.Load(ckpt); !os.IsNotExist(lerr) {
		t.Fatalf("Load = %v, want not-exist — no snapshot should land", lerr)
	}
	if !equalStrings(formatDeps(fresh), formatDeps(res)) {
		t.Fatal("un-checkpointed run changed the results")
	}
	assertWellFormed(t, r, res)
}

// TestCrashDuringSnapshotRenameLeavesNoTornFile kills the write at the
// worst possible instant — after the payload is flushed, before the atomic
// rename — and proves the destination never holds a half-written snapshot.
func TestCrashDuringSnapshotRenameLeavesNoTornFile(t *testing.T) {
	defer faultinject.Reset()
	r := correlatedRelation(t, 60)

	dir := t.TempDir()
	ckpt := filepath.Join(dir, "run.ckpt")
	faultinject.Reset()
	faultinject.Arm("checkpoint.write.rename", faultinject.Rule{
		Action: faultinject.ActionPanic, Nth: 1,
	})
	res, err := DiscoverContext(context.Background(), r, Options{CheckpointPath: ckpt})
	faultinject.Disarm("checkpoint.write.rename")
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want the injected rename panic as *PanicError", err)
	}
	if res.Stats.Checkpoints != 0 {
		t.Errorf("Checkpoints = %d despite the rename never completing", res.Stats.Checkpoints)
	}
	if _, statErr := os.Stat(ckpt); !os.IsNotExist(statErr) {
		t.Fatalf("destination exists after a crash before rename (stat err: %v)", statErr)
	}
	if _, lerr := checkpoint.Load(ckpt); !os.IsNotExist(lerr) {
		t.Fatalf("Load after rename crash: %v, want not-exist", lerr)
	}
	// The orphaned temp file may remain — that is the crash contract — but a
	// later successful run must atomically replace the destination anyway.
	faultinject.Reset()
	clean := Discover(r, Options{CheckpointPath: ckpt})
	if clean.Stats.Checkpoints == 0 || clean.Stats.CheckpointError != "" {
		t.Fatalf("post-crash run failed to checkpoint: %+v", clean.Stats)
	}
	if _, lerr := checkpoint.Load(ckpt); lerr != nil {
		t.Fatalf("Load after recovery run: %v", lerr)
	}
}
