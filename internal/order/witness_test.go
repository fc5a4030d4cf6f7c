package order_test

import (
	"math/rand"
	"testing"

	"ocd/internal/attr"
	"ocd/internal/obs"
	"ocd/internal/order"
	"ocd/internal/relation"
)

// swapTable is a relation on which A ~ B fails by the one swap of its
// first two rows, which A,C ~ B fails by as well.
func swapTable() *relation.Relation {
	return relation.FromInts("swap", []string{"A", "B", "C"}, [][]int{{0, 1, 0}, {1, 0, 0}, {2, 2, 0}})
}

// TestWitnessedCheckCountsOnce: a check the swap-witness ring answers
// still counts exactly one towards Checks(), and one in
// order.swap_witness.hits, once the Handle flushes.
func TestWitnessedCheckCountsOnce(t *testing.T) {
	c := order.NewChecker(swapTable(), 0)
	reg := obs.NewRegistry()
	c.SetObs(reg)
	h := c.NewHandle(4)
	hits := reg.Counter("order.swap_witness.hits")
	x, y := attr.NewList(0), attr.NewList(1)
	if h.CheckOCD(x, y) {
		t.Fatal("A ~ B holds, want the swap of rows 0 and 1")
	}
	if h.Flush(); hits.Value() != 0 {
		t.Fatalf("the scanning check counted %d witness hits, want 0", hits.Value())
	}
	for i, x := range []attr.List{x, attr.NewList(0, 2)} {
		before := c.Checks()
		if h.CheckOCD(x, y) {
			t.Fatalf("%v ~ %v holds, want the remembered swap", x, y)
		}
		h.Flush()
		if got := c.Checks() - before; got != 1 {
			t.Errorf("witnessed check %v ~ %v counted %d checks, want 1", x, y, got)
		}
		if hits.Value() != int64(i+1) {
			t.Errorf("after witnessed check %d: order.swap_witness.hits = %d, want %d", i+1, hits.Value(), i+1)
		}
	}
}

// TestWarmWitnessesMatchFreshChecker: on 12 random lattice relations,
// every pair of lists of at most three distinct attributes, checked in
// shuffled order on one Handle whose ring stays warm across checks, gets
// the verdict a fresh Checker, with an empty ring, gives. The ring must
// answer some of them.
func TestWarmWitnessesMatchFreshChecker(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	for trial := 0; trial < 12; trial++ {
		r := latticeRelation(rng)
		lists := order.ListsUpTo(r.NumCols(), 3)
		pairs := make([][2]attr.List, 0, len(lists)*len(lists))
		for _, x := range lists {
			for _, y := range lists {
				pairs = append(pairs, [2]attr.List{x, y})
			}
		}
		rng.Shuffle(len(pairs), func(i, j int) { pairs[i], pairs[j] = pairs[j], pairs[i] })
		reg := obs.NewRegistry()
		c := order.NewChecker(r, 0)
		c.SetObs(reg)
		h := c.NewHandle(4)
		for _, p := range pairs {
			if got, want := h.CheckOCD(p[0], p[1]), order.NewChecker(r, 0).CheckOCD(p[0], p[1]); got != want {
				t.Fatalf("trial %d: warm CheckOCD(%v, %v) = %v, a fresh Checker says %v", trial, p[0], p[1], got, want)
			}
		}
		if h.Flush(); reg.Counter("order.swap_witness.hits").Value() == 0 {
			t.Fatalf("trial %d: the ring answered none of %d checks", trial, len(pairs))
		}
	}
}
