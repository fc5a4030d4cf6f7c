//go:build faultinject

package faultinject

import (
	"errors"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestNthHitFiresExactlyOnce drives a panic rule through 10 hits and
// asserts the panic lands on the 4th hit and only there.
func TestNthHitFiresExactlyOnce(t *testing.T) {
	Reset()
	defer Reset()
	Arm("p", Rule{Action: ActionPanic, Nth: 4})
	fired := 0
	for i := 1; i <= 10; i++ {
		func() {
			defer func() {
				if v := recover(); v != nil {
					pv, ok := v.(PanicValue)
					if !ok || pv.Point != "p" {
						t.Fatalf("unexpected panic value %v", v)
					}
					if i != 4 {
						t.Fatalf("panic fired on hit %d, want 4", i)
					}
					fired++
				}
			}()
			Point("p")
		}()
	}
	if fired != 1 {
		t.Fatalf("panic fired %d times, want exactly once", fired)
	}
	if got := Hits("p"); got != 10 {
		t.Errorf("Hits = %d, want 10", got)
	}
}

// TestEveryKFiresPeriodically checks the every-k trigger with a cancel
// action: 3, 6 and 9 of 10 hits fire.
func TestEveryKFiresPeriodically(t *testing.T) {
	Reset()
	defer Reset()
	calls := 0
	Arm("c", Rule{Action: ActionCancel, EveryK: 3, Call: func() { calls++ }})
	for i := 0; i < 10; i++ {
		Point("c")
	}
	if calls != 3 {
		t.Errorf("cancel fired %d times over 10 hits with EveryK=3, want 3", calls)
	}
}

// TestDelayAction measures that an armed delay actually sleeps.
func TestDelayAction(t *testing.T) {
	Reset()
	defer Reset()
	Arm("d", Rule{Action: ActionDelay, Delay: 20 * time.Millisecond, Nth: 1})
	start := time.Now()
	Point("d")
	if elapsed := time.Since(start); elapsed < 15*time.Millisecond {
		t.Errorf("delay point returned after %v, want >= 20ms", elapsed)
	}
}

// TestDelayFromEnv: a `point:delay:nth` spec in EnvVar arms a sleep of
// SpecDelay on exactly the nth hit.
func TestDelayFromEnv(t *testing.T) {
	Reset()
	defer Reset()
	t.Setenv(EnvVar, "d:delay:2")
	if err := ArmFromEnv(); err != nil {
		t.Fatalf("ArmFromEnv: %v", err)
	}
	for hit := 1; hit <= 3; hit++ {
		start := time.Now()
		Point("d")
		elapsed := time.Since(start)
		if slept := elapsed >= SpecDelay; slept != (hit == 2) {
			t.Errorf("hit %d of d:delay:2 returned after %v, want a sleep of %v on hit 2 only", hit, elapsed, SpecDelay)
		}
	}
}

// TestPointErrInjectsOnNth: an ActionErr rule makes PointErr return an
// error wrapping ErrInjected on exactly the armed hit, nil everywhere else.
func TestPointErrInjectsOnNth(t *testing.T) {
	Reset()
	defer Reset()
	Arm("e", Rule{Action: ActionErr, Nth: 3})
	for i := 1; i <= 5; i++ {
		err := PointErr("e")
		if i == 3 {
			if !errors.Is(err, ErrInjected) {
				t.Fatalf("hit %d: err = %v, want ErrInjected", i, err)
			}
			if !strings.Contains(err.Error(), "e") {
				t.Errorf("injected error should name the point: %v", err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("hit %d: err = %v, want nil", i, err)
		}
	}
	if got := Hits("e"); got != 5 {
		t.Errorf("Hits = %d, want 5", got)
	}
}

// TestPointErrEveryK: the every-k trigger works at error sites too — every
// 2nd call fails.
func TestPointErrEveryK(t *testing.T) {
	Reset()
	defer Reset()
	Arm("ek", Rule{Action: ActionErr, EveryK: 2})
	failed := 0
	for i := 0; i < 6; i++ {
		if PointErr("ek") != nil {
			failed++
		}
	}
	if failed != 3 {
		t.Errorf("PointErr failed %d of 6 hits with EveryK=2, want 3", failed)
	}
}

// TestPointErrFiresOtherActions: a non-err rule armed at a PointErr site
// fires its plain action (here a cancel) and the call returns nil — scripts
// can still exit/panic at error-capable points.
func TestPointErrFiresOtherActions(t *testing.T) {
	Reset()
	defer Reset()
	calls := 0
	Arm("ep", Rule{Action: ActionCancel, Nth: 1, Call: func() { calls++ }})
	if err := PointErr("ep"); err != nil {
		t.Fatalf("PointErr with a cancel rule returned %v, want nil", err)
	}
	if calls != 1 {
		t.Errorf("cancel fired %d times at a PointErr site, want 1", calls)
	}
}

// TestErrActionIgnoredAtPlainPoint: an ActionErr rule at a plain Point site
// does nothing — there is no error channel to return through.
func TestErrActionIgnoredAtPlainPoint(t *testing.T) {
	Reset()
	defer Reset()
	Arm("plain", Rule{Action: ActionErr, Nth: 1})
	Point("plain") // must not panic or exit
	if got := Hits("plain"); got != 1 {
		t.Errorf("Hits = %d, want 1", got)
	}
}

// TestUnarmedPointIsFree: hitting a point that was never armed keeps no
// state and fires nothing.
func TestUnarmedPointIsFree(t *testing.T) {
	Reset()
	defer Reset()
	Point("nobody")
	if got := Hits("nobody"); got != 0 {
		t.Errorf("Hits = %d for unarmed point, want 0", got)
	}
}

// TestDisarmAndReset clear rules and counters.
func TestDisarmAndReset(t *testing.T) {
	Reset()
	defer Reset()
	Arm("a", Rule{Action: ActionPanic, Nth: 1})
	Disarm("a")
	Point("a") // must not panic
	if got := Hits("a"); got != 0 {
		t.Errorf("Hits = %d after Disarm, want 0", got)
	}
	Arm("b", Rule{Action: ActionPanic, Nth: 1})
	Reset()
	Point("b") // must not panic
}

// TestRearmResetsCounter: re-arming a point restarts its hit count, so a
// fresh Nth trigger can fire again.
func TestRearmResetsCounter(t *testing.T) {
	Reset()
	defer Reset()
	calls := 0
	Arm("r", Rule{Action: ActionCancel, Nth: 2, Call: func() { calls++ }})
	Point("r")
	Point("r")
	Arm("r", Rule{Action: ActionCancel, Nth: 2, Call: func() { calls++ }})
	Point("r")
	Point("r")
	if calls != 2 {
		t.Errorf("cancel fired %d times across two armings, want 2", calls)
	}
}

// TestConcurrentHitsDeterministicTotal: the hit counter is a single atomic
// shared across goroutines, so a concurrent workload still fires an Nth
// trigger exactly once.
func TestConcurrentHitsDeterministicTotal(t *testing.T) {
	Reset()
	defer Reset()
	var mu sync.Mutex
	fired := 0
	Arm("conc", Rule{Action: ActionCancel, Nth: 50, Call: func() {
		mu.Lock()
		fired++
		mu.Unlock()
	}})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				Point("conc")
			}
		}()
	}
	wg.Wait()
	if fired != 1 {
		t.Errorf("Nth trigger fired %d times under concurrency, want 1", fired)
	}
	if got := Hits("conc"); got != 200 {
		t.Errorf("Hits = %d, want 200", got)
	}
}
