package order

import (
	"math/rand"
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

// TestReleaseMemoryKeepsCheckersUsable: dropping the cache must not change
// any answer, only force rebuilds (visible via the sort counter).
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
}
