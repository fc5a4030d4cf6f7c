//go:build faultinject

package core

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"ocd/internal/faultinject"
)

// These tests drive the failure paths of the discovery engine through the
// deterministic fault-injection points compiled in under the faultinject
// build tag (`go test -tags=faultinject`, `make chaos`).

// TestWorkerPanicAtLevelTwo is the acceptance scenario: a worker panics on
// the first candidate of level 2 (the 16th candidate point hit — the
// correlated relation has exactly 15 level-1 pairs, all OCD-valid, and the
// level barrier guarantees every level-1 hit lands first). The engine must
// return a non-nil *PanicError naming a level-2 candidate alongside a
// partial Result that still holds every level-1 OCD, and leak nothing.
func TestWorkerPanicAtLevelTwo(t *testing.T) {
	defer faultinject.Reset()
	baseline := runtime.NumGoroutine()
	r := correlatedRelation(t, 150)

	faultinject.Reset()
	full := Discover(r, Options{Workers: 4, MaxLevel: 3})
	var levelOne []OCD
	for _, d := range full.OCDs {
		if len(d.X)+len(d.Y) == 2 {
			levelOne = append(levelOne, d)
		}
	}
	if len(levelOne) != 15 {
		t.Fatalf("expected 15 level-1 OCDs on the correlated relation, got %d", len(levelOne))
	}

	faultinject.Arm("core.worker.candidate", faultinject.Rule{
		Action: faultinject.ActionPanic, Nth: 16,
	})
	res, err := DiscoverContext(context.Background(), r, Options{Workers: 4, MaxLevel: 3})
	faultinject.Disarm("core.worker.candidate")

	if err == nil {
		t.Fatal("worker panic must surface as an error")
	}
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want a *PanicError", err)
	}
	if pv, ok := pe.Value.(faultinject.PanicValue); !ok || pv.Point != "core.worker.candidate" {
		t.Fatalf("panic value = %v, want the injected PanicValue", pe.Value)
	}
	if got := len(pe.Candidate.X) + len(pe.Candidate.Y); got < 3 {
		t.Fatalf("panic candidate %s ~ %s is level %d, want >= 3 (a level-2 node)",
			pe.Candidate.X, pe.Candidate.Y, got)
	}
	if len(pe.Stack) == 0 {
		t.Fatal("panic error must carry the stack trace")
	}
	if res == nil {
		t.Fatal("partial result must be non-nil")
	}
	if !res.Stats.Truncated || res.Stats.Reason != TruncateWorkerPanic {
		t.Fatalf("stats = %+v, want truncated with reason worker-panic", res.Stats)
	}
	got := make(map[string]bool)
	for _, d := range res.OCDs {
		got[d.X.String()+"~"+d.Y.String()] = true
	}
	for _, d := range levelOne {
		if !got[d.X.String()+"~"+d.Y.String()] {
			t.Fatalf("partial result lost level-1 OCD %s ~ %s", d.X, d.Y)
		}
	}
	assertWellFormed(t, r, res)
	settleGoroutines(t, baseline)
}

// TestWorkerPanicErrorFreeWrapper: the classic Discover entry point must
// degrade a worker panic to a partial result instead of crashing.
func TestWorkerPanicErrorFreeWrapper(t *testing.T) {
	defer faultinject.Reset()
	r := correlatedRelation(t, 100)
	faultinject.Arm("core.worker.candidate", faultinject.Rule{
		Action: faultinject.ActionPanic, Nth: 16,
	})
	res := Discover(r, Options{Workers: 4, MaxLevel: 3})
	if res == nil || !res.Stats.Truncated || res.Stats.Reason != TruncateWorkerPanic {
		t.Fatalf("Discover must return the partial panic-truncated result, got %+v", res)
	}
	assertWellFormed(t, r, res)
}

// TestCheckerPanicIsolated: a panic deep inside the re-sorting checker (not
// in worker code) is still attributed to the worker's current candidate.
func TestCheckerPanicIsolated(t *testing.T) {
	defer faultinject.Reset()
	baseline := runtime.NumGoroutine()
	r := correlatedRelation(t, 120)
	// The reduction phase performs exactly 30 checker calls (6 varying
	// columns, all pairs); the 40th lands inside a level worker.
	faultinject.Arm("order.checker.check", faultinject.Rule{
		Action: faultinject.ActionPanic, Nth: 40,
	})
	res, err := DiscoverContext(context.Background(), r, Options{Workers: 4})
	faultinject.Disarm("order.checker.check")
	if err == nil {
		t.Fatal("checker panic must surface as an error")
	}
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want a *PanicError", err)
	}
	if !res.Stats.Truncated || res.Stats.Reason != TruncateWorkerPanic {
		t.Fatalf("stats = %+v, want reason worker-panic", res.Stats)
	}
	assertWellFormed(t, r, res)
	settleGoroutines(t, baseline)
}

// TestReductionCheckPanicHitsBoundaryRecover: a panic raised outside the
// level loop (here: the checker's first call, a single-column check of the
// reduction phase on a worker's Handle, re-raised on the caller's
// goroutine) is converted by the DiscoverContext boundary recover into a
// candidate-less PanicError plus the partial result.
func TestReductionCheckPanicHitsBoundaryRecover(t *testing.T) {
	defer faultinject.Reset()
	baseline := runtime.NumGoroutine()
	r := seededRelation(t, 17, 80, 5)
	faultinject.Arm("order.checker.check", faultinject.Rule{
		Action: faultinject.ActionPanic, Nth: 1,
	})
	res, err := DiscoverContext(context.Background(), r, Options{Workers: 2})
	faultinject.Disarm("order.checker.check")
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want a *PanicError", err)
	}
	if len(pe.Candidate.X)+len(pe.Candidate.Y) != 0 {
		t.Fatalf("boundary panic should carry no candidate, got %s ~ %s",
			pe.Candidate.X, pe.Candidate.Y)
	}
	if res == nil || !res.Stats.Truncated {
		t.Fatal("boundary panic must still return the partial result")
	}
	settleGoroutines(t, baseline)
}

// TestInjectedCancelAtLevelTwo: an ActionCancel rule cancels the context
// deterministically on the first level-2 candidate. Level 1 completed, so
// every level-1 OCD must survive into the partial result — the
// subset-of-full invariant at an exact, reproducible cut point. The run is
// single-worker so the sleep inside the injection point hands the only P to
// the watcher goroutine even on a GOMAXPROCS=1 machine.
func TestInjectedCancelAtLevelTwo(t *testing.T) {
	defer faultinject.Reset()
	baseline := runtime.NumGoroutine()
	r := correlatedRelation(t, 150)

	faultinject.Reset()
	full := Discover(r, Options{Workers: 4, MaxLevel: 3})
	var levelOne []OCD
	for _, d := range full.OCDs {
		if len(d.X)+len(d.Y) == 2 {
			levelOne = append(levelOne, d)
		}
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	faultinject.Arm("core.worker.candidate", faultinject.Rule{
		Action: faultinject.ActionCancel, Nth: 16, Call: func() {
			cancel()
			// Hold the worker inside the point until the watcher has
			// converted the cancel into the stop flags, so the cut is
			// deterministic even on a machine fast enough to finish the
			// whole level before the watcher goroutine wakes.
			<-ctx.Done()
			time.Sleep(10 * time.Millisecond)
		},
	})
	res, err := DiscoverContext(ctx, r, Options{Workers: 1, MaxLevel: 3})
	faultinject.Disarm("core.worker.candidate")

	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if !res.Stats.Truncated || res.Stats.Reason != TruncateCancelled {
		t.Fatalf("stats = %+v, want reason cancelled", res.Stats)
	}
	got := make(map[string]bool)
	for _, d := range res.OCDs {
		got[d.X.String()+"~"+d.Y.String()] = true
	}
	for _, d := range levelOne {
		if !got[d.X.String()+"~"+d.Y.String()] {
			t.Fatalf("cancel dropped level-1 OCD %s ~ %s", d.X, d.Y)
		}
	}
	assertWellFormed(t, r, res)
	settleGoroutines(t, baseline)
}

// TestReductionCancel: a cancel landing during the column-reduction phase
// stops the O(n²) single-attribute checks early; the run reports cancelled
// and whatever reduction output exists stays sound.
func TestReductionCancel(t *testing.T) {
	defer faultinject.Reset()
	baseline := runtime.NumGoroutine()
	r := seededRelation(t, 19, 150, 8)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	faultinject.Arm("core.reduction.row", faultinject.Rule{
		Action: faultinject.ActionCancel, Nth: 2, Call: func() {
			cancel()
			// Hold the reduction goroutine inside the point until the
			// watcher has converted the cancel into the stop flags;
			// without the hold a fast machine finishes the whole run
			// before the watcher wakes and the reason stays empty.
			<-ctx.Done()
			time.Sleep(10 * time.Millisecond)
		},
	})
	res, err := DiscoverContext(ctx, r, Options{Workers: 2})
	faultinject.Disarm("core.reduction.row")
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if !res.Stats.Truncated || res.Stats.Reason != TruncateCancelled {
		t.Fatalf("stats = %+v, want reason cancelled", res.Stats)
	}
	assertWellFormed(t, r, res)
	settleGoroutines(t, baseline)
}

// TestDelayedWorkerStillCancels: an injected per-candidate delay simulates
// a slow backend; a cancel fired after a few candidates must stop the run
// long before the level would finish at full delay cost.
func TestDelayedWorkerStillCancels(t *testing.T) {
	defer faultinject.Reset()
	baseline := runtime.NumGoroutine()
	r := correlatedRelation(t, 100)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	faultinject.Arm("core.worker.candidate", faultinject.Rule{
		Action: faultinject.ActionDelay, Delay: 0, EveryK: 1,
	})
	faultinject.Arm("core.level.start", faultinject.Rule{
		Action: faultinject.ActionCancel, Nth: 2, Call: func() {
			cancel()
			time.Sleep(10 * time.Millisecond) // let the watcher arm the stop flags
		},
	})
	res, err := DiscoverContext(ctx, r, Options{Workers: 2, MaxLevel: 4})
	faultinject.Reset()
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if !res.Stats.Truncated || res.Stats.Reason != TruncateCancelled {
		t.Fatalf("stats = %+v, want reason cancelled", res.Stats)
	}
	assertWellFormed(t, r, res)
	settleGoroutines(t, baseline)
}
