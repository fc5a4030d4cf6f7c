//go:build faultinject

package order

import (
	"math/rand"
	"testing"

	"ocd/internal/attr"
	"ocd/internal/faultinject"
	"ocd/internal/obs"
)

// checkAllAgainst runs a fixed check workload on both checkers and fails
// on any divergence — the "never wrong results" clause of the spill
// degradation ladder. Before each row of the workload the spilled
// checker's cache goes to disk, as at a tripped memory budget, so the row
// reloads what earlier rows cached.
func checkAllAgainst(t *testing.T, spilled, mem *Checker, lists []attr.List) {
	t.Helper()
	for i, x := range lists {
		spilled.EvictToSpill()
		for j, y := range lists {
			if got, want := spilled.CheckOD(x, y), mem.CheckOD(x, y); got != want {
				t.Fatalf("(%d,%d): CheckOD = %v, want %v", i, j, got, want)
			}
			if got, want := spilled.CheckOCD(x, y), mem.CheckOCD(x, y); got != want {
				t.Fatalf("(%d,%d): CheckOCD = %v, want %v", i, j, got, want)
			}
		}
	}
}

// spillWorkload returns a check workload, a cap-2 checker spilling to a
// fresh manager with its counters in reg, and an unconstrained in-memory
// checker over the same relation. A check side of two attributes on these
// small domains resolves as composite keys and is never cached; a side of
// three caches its two-attribute prefix, so the workload draws lists of
// up to three attributes and their prefixes are what spills
// (checkAllAgainst evicts them to disk).
func spillWorkload(t *testing.T, seed int64) (lists []attr.List, spilled, mem *Checker, reg *obs.Registry) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < 12; i++ {
		lists = append(lists, randomList(rng, 4, 3))
	}
	r := randomRelation(rng, 50, 4, 3)
	mem = NewChecker(r, 1024)
	spilled = NewChecker(r, 2)
	spilled.SetSpill(newTestSpill(t))
	reg = obs.NewRegistry()
	spilled.SetObs(reg)
	return lists, spilled, mem, reg
}

// TestSpillReadFaultsDegradeToRecompute: every spill read fails; the
// checker must fall back to recomputing from rank codes with exact
// results, counting retries and recomputes.
func TestSpillReadFaultsDegradeToRecompute(t *testing.T) {
	faultinject.Reset()
	defer faultinject.Reset()
	lists, spilled, mem, reg := spillWorkload(t, 91)

	faultinject.Arm("spill.read", faultinject.Rule{Action: faultinject.ActionErr, EveryK: 1})
	checkAllAgainst(t, spilled, mem, lists)
	checkAllAgainst(t, spilled, mem, lists) // second pass would reload if reads worked
	ev, rel := spilled.SpillStats()
	if ev == 0 {
		t.Error("no rank vectors were spilled despite a cap-2 cache")
	}
	if rel != 0 {
		t.Errorf("reloads = %d with every read failing, want 0", rel)
	}
	if n := reg.Counter("order.spill.recomputes").Value(); n == 0 {
		t.Error("no recomputes counted with every read failing")
	}
}

// TestSpillWriteFaultsDegradeGracefully: every spill write fails (ENOSPC,
// say); spills to disk silently become plain drops and results stay exact.
func TestSpillWriteFaultsDegradeGracefully(t *testing.T) {
	faultinject.Reset()
	defer faultinject.Reset()
	lists, spilled, mem, reg := spillWorkload(t, 92)

	faultinject.Arm("spill.write", faultinject.Rule{Action: faultinject.ActionErr, EveryK: 1})
	checkAllAgainst(t, spilled, mem, lists)
	if ev, _ := spilled.SpillStats(); ev != 0 {
		t.Errorf("evictions = %d with every write failing, want 0", ev)
	}
	// The spills happened; each one's write failed twice and was dropped.
	if n := reg.Counter("order.spill.write_failures").Value(); n == 0 {
		t.Error("no failed spill writes counted despite a cap-2 cache")
	}
	// With writes failing everywhere, EvictToSpill reports no progress —
	// the signal that lets the engine move to the next ladder rung.
	if n := spilled.EvictToSpill(); n != 0 {
		t.Errorf("EvictToSpill = %d under total write failure, want 0", n)
	}
}

// TestSpillTornSegmentsRecompute: every segment is torn on disk; reloads
// fail verification, the segments are dropped, and recompute keeps the
// answers exact.
func TestSpillTornSegmentsRecompute(t *testing.T) {
	faultinject.Reset()
	defer faultinject.Reset()
	lists, spilled, mem, reg := spillWorkload(t, 93)

	faultinject.Arm("spill.write.torn", faultinject.Rule{Action: faultinject.ActionErr, EveryK: 1})
	checkAllAgainst(t, spilled, mem, lists)
	faultinject.Reset()
	if ev, _ := spilled.SpillStats(); ev == 0 {
		t.Fatal("no rank vectors were spilled despite a cap-2 cache")
	}
	// Everything spilled so far is torn; the second pass must detect each
	// tear, drop the segment, and recompute.
	checkAllAgainst(t, spilled, mem, lists)
	if n := reg.Counter("order.spill.recomputes").Value(); n == 0 {
		t.Error("no torn segment was detected and recomputed")
	}
}

// TestSpillBitRotRecomputes: single-bit corruption on the read path is
// caught by the checksum; results stay exact.
func TestSpillBitRotRecomputes(t *testing.T) {
	faultinject.Reset()
	defer faultinject.Reset()
	lists, spilled, mem, _ := spillWorkload(t, 94)

	checkAllAgainst(t, spilled, mem, lists)
	if ev, _ := spilled.SpillStats(); ev == 0 {
		t.Fatal("no rank vectors were spilled despite a cap-2 cache")
	}
	faultinject.Arm("spill.read.corrupt", faultinject.Rule{Action: faultinject.ActionErr, EveryK: 2})
	checkAllAgainst(t, spilled, mem, lists)
}

// TestSpillTransientReadFaultRetries: an every-other-read fault is healed
// by the retry rung; reloads still happen.
func TestSpillTransientReadFaultRetries(t *testing.T) {
	faultinject.Reset()
	defer faultinject.Reset()
	lists, spilled, mem, reg := spillWorkload(t, 95)

	checkAllAgainst(t, spilled, mem, lists)
	faultinject.Arm("spill.read", faultinject.Rule{Action: faultinject.ActionErr, EveryK: 2})
	checkAllAgainst(t, spilled, mem, lists)
	ev, rel := spilled.SpillStats()
	if ev == 0 {
		t.Error("no rank vectors were spilled despite a cap-2 cache")
	}
	if rel == 0 {
		t.Error("no reloads despite the retry rung healing every-other-read faults")
	}
	if n := reg.Counter("order.spill.recomputes").Value(); n != 0 {
		t.Errorf("recomputes = %d, want 0: each failed read's retry succeeds", n)
	}
}
