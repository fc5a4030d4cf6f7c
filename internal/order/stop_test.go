package order

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"ocd/internal/attr"
	"ocd/internal/relation"
)

func stopRelation(t *testing.T, rows int) *relation.Relation {
	t.Helper()
	rng := rand.New(rand.NewSource(31))
	data := make([][]int, rows)
	for i := range data {
		data[i] = []int{i, i / 3, rng.Intn(50)}
	}
	r, err := relation.FromIntsErr("stop", nil, data)
	if err != nil {
		t.Fatalf("FromIntsErr: %v", err)
	}
	return r
}

// TestCheckerStopAborts: with the stop flag raised, every check reports
// invalid conservatively, index builds return nil, and nothing partial is
// cached — clearing the flag restores correct answers from scratch.
func TestCheckerStopAborts(t *testing.T) {
	r := stopRelation(t, 5000)
	c := NewChecker(r, 16)
	var stop atomic.Bool
	c.SetStopFlag(&stop)
	x, y := attr.NewList(0), attr.NewList(1)

	stop.Store(true)
	if c.SortedIndex(attr.NewList(0, 1)) != nil {
		t.Error("aborted SortedIndex must return nil")
	}
	if c.CheckOCD(x, y) {
		t.Error("aborted CheckOCD must report invalid")
	}
	if c.CheckOD(x, y) {
		t.Error("aborted CheckOD must report invalid")
	}
	if res := c.CheckODFull(x, y); res.Valid || !res.HasSplit || !res.HasSwap {
		t.Errorf("aborted CheckODFull must report both violation kinds, got %+v", res)
	}

	// Nothing garbage was cached: the same checks now give true answers.
	stop.Store(false)
	if !c.CheckOD(x, y) {
		t.Error("A -> B (B = A/3) must hold once the stop flag clears")
	}
	if !c.CheckOCD(x, y) {
		t.Error("A ~ B must hold once the stop flag clears")
	}
}

// TestRadixAborts: derivations honor the flag inside both their strategies
// and cache nothing partial, and SortedIndex aborts with them.
func TestRadixAborts(t *testing.T) {
	r := stopRelation(t, 5000)
	var stop atomic.Bool
	stop.Store(true)
	c := NewChecker(r, 16)
	c.SetStopFlag(&stop)
	p, col := c.column(attr.NewList(0)), c.column(attr.NewList(2))
	if _, ok := c.own.derive(p, col); ok {
		t.Fatal("a counting-pass derivation must abort on a raised stop flag")
	}
	if _, ok := c.own.derive(c.column(attr.NewList(2)), col); ok {
		t.Fatal("a composite-key derivation must abort on a raised stop flag")
	}
	if c.SortedIndex(attr.NewList(0)) != nil || c.SortedIndex(attr.NewList(0, 1)) != nil {
		t.Fatal("SortedIndex must abort on a raised stop flag")
	}
	c.own.Flush()
	if c.Sorts() == 0 || len(c.own.ents) != 0 {
		t.Fatalf("aborted derivations must run and never be cached: %d sorts, %d cached", c.Sorts(), len(c.own.ents))
	}
}

// TestReleaseMemoryKeepsCheckersUsable: dropping the caches must not change
// any answer, only force rebuilds (visible via the sort counter) — on the
// Checker's own Handle and on several worker Handles checking in parallel,
// released between rounds as the engine's memory budget does at a level
// barrier.
func TestReleaseMemoryKeepsCheckersUsable(t *testing.T) {
	r := stopRelation(t, 2000)
	// Columns rank by their codes; only multi-attribute lists are derived
	// and cached, and AC's pair space is too large for composite keys.
	x, y := attr.NewList(0, 2), attr.NewList(1)

	c := NewChecker(r, 16)
	if !c.CheckOD(x, y) {
		t.Fatal("A -> B must hold")
	}
	sortsBefore := c.Sorts()
	if c.CheckOD(x, y); c.Sorts() != sortsBefore {
		t.Fatal("second check must hit the cache")
	}
	c.ReleaseMemory()
	if !c.CheckOD(x, y) {
		t.Fatal("A -> B must still hold after ReleaseMemory")
	}
	if c.Sorts() == sortsBefore {
		t.Fatal("ReleaseMemory must force an index rebuild")
	}

	releaseWorkerHandles(t)
}

// releaseWorkerHandles checks random lists of up to four attributes on
// four Handles at once, releases every cache between rounds, and compares
// each answer with a fresh Checker's.
func releaseWorkerHandles(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	r := randomRelation(rng, 80, 6, 3)
	c := NewChecker(r, 4)
	handles := make([]*Handle, 4)
	for i := range handles {
		handles[i] = c.NewHandle(1 + i)
	}
	for round := 0; round < 6; round++ {
		type check struct {
			x, y    attr.List
			od, ocd bool
		}
		work := make([][]check, len(handles))
		fresh := NewChecker(r, 0)
		for i := range work {
			for k := 0; k < 30; k++ {
				x, y := randomList(rng, 6, 4), randomList(rng, 6, 4)
				work[i] = append(work[i], check{x, y, fresh.CheckOD(x, y), fresh.CheckOCD(x, y)})
			}
		}
		sortsBefore := c.Sorts()
		var wg sync.WaitGroup
		errs := make(chan string, len(handles))
		for i, h := range handles {
			wg.Add(1)
			go func(h *Handle, checks []check) {
				defer wg.Done()
				defer h.Flush()
				for k, ck := range checks {
					if h.CheckOD(ck.x, ck.y) != ck.od || h.CheckOCD(ck.x, ck.y) != ck.ocd {
						errs <- fmt.Sprintf("round %d check %d: %v vs %v differs from a fresh Checker", round, k, ck.x, ck.y)
						return
					}
				}
			}(h, work[i])
		}
		wg.Wait()
		close(errs)
		for e := range errs {
			t.Fatal(e)
		}
		if c.Sorts() == sortsBefore {
			t.Fatalf("round %d derived nothing: the caches were never exercised", round)
		}
		c.ReleaseMemory()
		for i, h := range handles {
			if len(h.ents) != 0 || h.free != nil {
				t.Fatalf("round %d: handle %d keeps %d entries after ReleaseMemory", round, i, len(h.ents))
			}
		}
	}
}
