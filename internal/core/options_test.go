package core

import (
	"context"
	"runtime"
	"testing"
	"time"

	"ocd/internal/datagen"
	"ocd/internal/obs"
)

// TestOptionsWorkersNormalization pins the Workers contract: values
// below 1 resolve to runtime.GOMAXPROCS(0).
func TestOptionsWorkersNormalization(t *testing.T) {
	if got := (Options{Workers: 0}).workers(); got != 0 {
		t.Errorf("Workers 0 should defer resolution, got %d", got)
	}
	if got := (Options{Workers: -3}).workers(); got != 0 {
		t.Errorf("Workers -3 should defer resolution, got %d", got)
	}
	if got := (Options{Workers: 5}).workers(); got != 5 {
		t.Errorf("Workers 5 should pass through, got %d", got)
	}
	r := seededRelation(t, 3, 20, 3)
	for _, w := range []int{0, -1} {
		d := newDiscoverer(r, Options{Workers: w})
		if d.workers != runtime.GOMAXPROCS(0) {
			t.Errorf("Workers %d should resolve to GOMAXPROCS (%d), got %d",
				w, runtime.GOMAXPROCS(0), d.workers)
		}
	}
	d := newDiscoverer(r, Options{Workers: 2})
	if d.workers != 2 {
		t.Errorf("Workers 2 should stick, got %d", d.workers)
	}
}

// TestOptionsIndexCacheDefault pins the IndexCacheSize contract: zero
// selects a real cache (repeated sorts of one list hit it), an explicit
// negative value disables caching.
func TestOptionsIndexCacheDefault(t *testing.T) {
	r := seededRelation(t, 4, 30, 3)

	chk := newDiscoverer(r, Options{}).chk
	x := ids(1, 2)
	chk.SortedIndex(x)
	chk.SortedIndex(x)
	if got := chk.Sorts(); got != 1 {
		t.Errorf("IndexCacheSize 0 should default to a working cache: %d sorts for 2 lookups", got)
	}

	chk = newDiscoverer(r, Options{IndexCacheSize: -1}).chk
	chk.SortedIndex(x)
	chk.SortedIndex(x)
	if got := chk.Sorts(); got != 2 {
		t.Errorf("negative IndexCacheSize should disable caching: %d sorts for 2 lookups", got)
	}
}

// TestHepatitisDerivesOnlyPrefixes: on the HEPATITIS replica nearly every
// check side extends a prefix by one attribute and resolves as composite
// keys, so one worker, and two, derive fewer dense rank vectors than a
// tenth of their checks; the workers' swap-witness rings reject failing
// OCD checks without a scan (order.swap_witness.hits > 0, and at most the
// failing checks, discover.prunes); and the checks, candidates and OCDs
// stay Table 6's.
func TestHepatitisDerivesOnlyPrefixes(t *testing.T) {
	for _, workers := range []int{1, 2} {
		reg := obs.NewRegistry()
		d := newDiscoverer(datagen.Hepatitis(), Options{Workers: workers, Metrics: reg})
		res, err := d.run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if res.Stats.Checks != 138080 || res.Stats.Candidates != 128890 || len(res.OCDs) != 4405 {
			t.Fatalf("workers=%d: %d checks, %d candidates, %d OCDs; want 138080, 128890 and 4405",
				workers, res.Stats.Checks, res.Stats.Candidates, len(res.OCDs))
		}
		if sorts := d.chk.Sorts(); 10*sorts > res.Stats.Checks {
			t.Errorf("workers=%d: %d dense derivations for %d checks, want at most a tenth", workers, sorts, res.Stats.Checks)
		}
		s := reg.Snapshot()
		if hits, failing := s.Counters["order.swap_witness.hits"], s.Counters[MetricPrunes]; hits <= 0 || hits > failing {
			t.Errorf("workers=%d: order.swap_witness.hits = %d, want in (0, %d]", workers, hits, failing)
		}
	}
}

// TestOptionsTimeoutExpiry drives a run whose deadline is already in
// the past: the traversal must stop at the level boundary, mark the
// result truncated, and still return the reduction-phase output in
// canonical, sound form.
func TestOptionsTimeoutExpiry(t *testing.T) {
	r := seededRelation(t, 5, 120, 6)
	res := Discover(r, Options{Workers: 4, Timeout: time.Nanosecond})
	if !res.Stats.Truncated {
		t.Fatal("expired deadline must mark the result truncated")
	}
	if res.Stats.Levels != 0 {
		t.Errorf("no level should complete under an expired deadline, got %d", res.Stats.Levels)
	}
	if res.Stats.Candidates == 0 {
		t.Error("initial candidates should still be counted")
	}
	if len(res.Constants) == 0 {
		t.Error("reduction phase should still report the constant column")
	}
	if len(res.EquivClasses) == 0 {
		t.Error("reduction phase should still report the order-equivalence class")
	}
	assertWellFormed(t, r, res)
}
