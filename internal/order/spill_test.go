package order

import (
	"errors"
	"math/rand"
	"path/filepath"
	"testing"

	"ocd/internal/attr"
	"ocd/internal/spill"
)

func newTestSpill(t *testing.T) *spill.Manager {
	t.Helper()
	sm, err := spill.NewManager(filepath.Join(t.TempDir(), "spill"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sm.Close() })
	return sm
}

func TestIndexCodecRoundTrip(t *testing.T) {
	idx := []int32{3, 1, 0, 2}
	got, err := decodeIndex(encodeIndex(idx), 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := range idx {
		if got[i] != idx[i] {
			t.Fatalf("decode = %v, want %v", got, idx)
		}
	}
	if _, err := decodeIndex(encodeIndex(idx), 5); err == nil {
		t.Error("index for 4 rows accepted for a 5-row relation")
	}
	if _, err := decodeIndex([]byte{1, 2}, 4); err == nil {
		t.Error("short payload accepted")
	}
	if _, err := decodeIndex(encodeIndex([]int32{4, 0, 1, 2}), 4); err == nil {
		t.Error("out-of-range position accepted")
	}
	if !errors.Is(func() error { _, err := decodeIndex(nil, 0); return err }(), errSpillShape) {
		t.Error("decode errors should wrap errSpillShape")
	}
}

// TestCheckerSpillsAndReloads: a tiny cache under a spill manager, evicted
// to disk every few checks as a tripped memory budget would, must reload
// on demand and answer every check exactly as an unconstrained in-memory
// checker does. The lists have up to three attributes: a two-attribute
// side on small domains is composite keys, never cached, so only the
// prefixes of three-attribute sides reach the cache.
func TestCheckerSpillsAndReloads(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	r := randomRelation(rng, 60, 5, 3)
	mem := NewChecker(r, 1024)
	spilled := NewChecker(r, 2)
	spilled.SetSpill(newTestSpill(t))

	for pass := 0; pass < 2; pass++ {
		rng2 := rand.New(rand.NewSource(7))
		for i := 0; i < 60; i++ {
			if i%5 == 0 {
				spilled.EvictToSpill()
			}
			x, y := randomList(rng2, 5, 3), randomList(rng2, 5, 3)
			if got, want := spilled.CheckOD(x, y), mem.CheckOD(x, y); got != want {
				t.Fatalf("pass %d check %d: CheckOD = %v, want %v", pass, i, got, want)
			}
			if got, want := spilled.CheckOCD(x, y), mem.CheckOCD(x, y); got != want {
				t.Fatalf("pass %d check %d: CheckOCD = %v, want %v", pass, i, got, want)
			}
		}
	}
	ev, rel := spilled.SpillStats()
	if ev == 0 || rel == 0 {
		t.Errorf("SpillStats = (%d, %d), want both > 0", ev, rel)
	}
}

// TestEvictToSpill: the budget-trip entry point moves the whole cache to
// disk; subsequent checks reload rather than rebuild and stay correct.
func TestEvictToSpill(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	r := randomRelation(rng, 40, 4, 3)
	c := NewChecker(r, 2)
	sm := newTestSpill(t)
	c.SetSpill(sm)

	lists := make([]attr.List, 0, 10)
	for i := 0; i < 10; i++ {
		lists = append(lists, randomList(rng, 4, 2))
	}
	for _, x := range lists {
		c.SortedIndex(x)
	}
	n := c.EvictToSpill()
	if n <= 0 {
		t.Fatalf("EvictToSpill = %d despite a warm cache", n)
	}
	if sm.Len() == 0 {
		t.Fatal("no segments on disk after EvictToSpill")
	}
	// Checks after a full eviction reload from disk and stay exact.
	mem := NewChecker(r, 1024)
	for i, x := range lists {
		for j, y := range lists {
			if got, want := c.CheckOD(x, y), mem.CheckOD(x, y); got != want {
				t.Fatalf("(%d,%d): CheckOD = %v, want %v", i, j, got, want)
			}
		}
	}
	ev, rel := c.SpillStats()
	if ev == 0 {
		t.Error("no evictions counted")
	}
	if rel == 0 {
		t.Error("no reloads after a full eviction")
	}

	// Without a manager the rung reports no progress.
	bare := NewChecker(r, 2)
	bare.SortedIndex(attr.NewList(0, 1))
	if n := bare.EvictToSpill(); n != 0 {
		t.Errorf("EvictToSpill without a manager = %d, want 0", n)
	}
}

// TestPlainEvictionWritesNoSegment: without a tripped budget, a full cache
// drops its oldest vector; only EvictToSpill writes segments. As above,
// three-attribute sides are what derives and caches.
func TestPlainEvictionWritesNoSegment(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	r := randomRelation(rng, 40, 5, 3)
	c := NewChecker(r, 1)
	sm := newTestSpill(t)
	c.SetSpill(sm)
	for i := 0; i < 40; i++ {
		c.CheckOD(randomList(rng, 5, 3), randomList(rng, 5, 3))
	}
	c.own.Flush()
	if c.Sorts() < 2 {
		t.Fatalf("%d derivations cannot have evicted from a 1-entry cache", c.Sorts())
	}
	if ev, _ := c.SpillStats(); ev != 0 || sm.Puts() != 0 {
		t.Errorf("plain evictions wrote %d segments (%d counted), want 0", sm.Puts(), ev)
	}
}

// TestCheckerEvictToSpill: a fully evicted cache reloads the same sorted
// indexes it held.
func TestCheckerEvictToSpill(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	r := randomRelation(rng, 40, 4, 3)
	c := NewChecker(r, 64)
	c.SetSpill(newTestSpill(t))
	lists := make([]attr.List, 0, 8)
	for i := 0; i < 8; i++ {
		x := randomList(rng, 4, 2)
		lists = append(lists, x)
		c.SortedIndex(x)
	}
	if n := c.EvictToSpill(); n == 0 {
		t.Fatal("EvictToSpill moved nothing despite a warm cache")
	}
	mem := NewChecker(r, 64)
	for i, x := range lists {
		idx := c.SortedIndex(x)
		want := mem.SortedIndex(x)
		for j := range want {
			if idx[j] != want[j] {
				t.Fatalf("list %d: reloaded index differs at %d", i, j)
			}
		}
	}
	_, rel := c.SpillStats()
	if rel == 0 {
		t.Error("no reloads after a full eviction")
	}
}
