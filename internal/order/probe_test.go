package order

import (
	"strconv"
	"testing"

	"ocd/internal/attr"
	"ocd/internal/relation"
)

// probeRelation has 4·probeRows+1000 rows, enough for the prefix probe.
// Its columns, by row i of n:
//
//	0 K     n−i
//	1 Ypre  K with rows 10 and 20 exchanged: a swap inside the prefix only
//	2 Ypast K with rows n−10 and n−20 exchanged: a swap past it only
//	3 Yboth both exchanges
//	4 H     K/2: pairs of rows tie
//	5 F     NULL but on every tenth row, where it is i
//	6 G     2·F: F's order and NULLs
//	7 Yedge K with rows probeRows and probeRows+1 exchanged: a swap on the
//	        first row past the prefix
func probeRelation(t *testing.T) *relation.Relation {
	t.Helper()
	n := 4*probeRows + 1000
	k := func(i int) int { return n - i }
	exchange := func(i int, pairs ...int) int {
		for p := 0; p < len(pairs); p += 2 {
			switch i {
			case pairs[p]:
				return k(pairs[p+1])
			case pairs[p+1]:
				return k(pairs[p])
			}
		}
		return k(i)
	}
	rows := make([][]string, n)
	for i := range rows {
		f, g := "", ""
		if i%10 == 3 {
			f, g = strconv.Itoa(i), strconv.Itoa(2*i)
		}
		rows[i] = []string{
			strconv.Itoa(k(i)),
			strconv.Itoa(exchange(i, 10, 20)),
			strconv.Itoa(exchange(i, n-10, n-20)),
			strconv.Itoa(exchange(i, 10, 20, n-10, n-20)),
			strconv.Itoa(k(i) / 2),
			f, g,
			strconv.Itoa(exchange(i, probeRows, probeRows+1)),
		}
	}
	r, err := relation.FromStrings("probe", []string{"K", "Ypre", "Ypast", "Yboth", "H", "F", "G", "Yedge"}, rows, relation.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestPrefixProbeMatchesAlgorithm2 runs OCD, OD and full OD checks on
// relations long enough for the prefix probe, each on a fresh Handle, and
// requires Algorithm 2's verdicts. A failing OCD check must leave a real
// swap in the ring: the probe's pair where the prefix has a swap, though
// the full scan would have met another first. CheckODFull reports the
// first violations in group order, as it did before the probe.
func TestPrefixProbeMatchesAlgorithm2(t *testing.T) {
	r := probeRelation(t)
	n := int32(r.NumRows())
	c := NewChecker(r, 0)
	const K, Ypre, Ypast, Yboth, H, F, G, Yedge = 0, 1, 2, 3, 4, 5, 6, 7
	type pair struct{ p, q int32 }
	cases := []struct {
		name string
		x, y attr.ID
		// ring is the pair a failing OCD check remembers, when the case
		// pins it; swap is CheckODFull's swap witness, when it pins it.
		ring, swap *pair
	}{
		// In K order, row 20 (Y = n−10) is followed by row 19 (Y = n−19).
		{name: "swap-in-prefix", x: K, y: Ypre, ring: &pair{20, 19}},
		// In K order, row n−10 (Y = 20) is followed by row n−11 (Y = 11).
		{name: "swap-past-prefix", x: K, y: Ypast, ring: &pair{n - 10, n - 11}},
		// The full scan meets the swap past the prefix first, at the
		// lowest K; the probe answers from the prefix.
		{name: "swap-in-both", x: K, y: Yboth, ring: &pair{20, 19}, swap: &pair{n - 10, n - 11}},
		// Only rows probeRows and probeRows+1 swap: the row pass must go
		// on from exactly where the prefix ended.
		{name: "swap-at-prefix-end", x: K, y: Yedge, ring: &pair{probeRows + 1, probeRows}},
		{name: "no-swap", x: K, y: H},
		{name: "split-only", x: H, y: K},
		{name: "null-heavy-valid", x: F, y: G},
		{name: "null-heavy-violated", x: F, y: K},
		{name: "null-heavy-rhs", x: K, y: F},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			x, y := attr.NewList(tc.x), attr.NewList(tc.y)
			split, swap := algorithm2(r, x, y)

			h := c.NewHandle(64)
			if got := h.CheckOCD(x, y); got != !swap {
				t.Fatalf("CheckOCD = %v, Algorithm 2 swap = %v", got, swap)
			}
			if swap {
				if h.w.n != 1 || !h.swapWitnessed(x, y) {
					t.Fatalf("ring after a failing OCD check: %d pairs, witnesses the check: %v", h.w.n, h.swapWitnessed(x, y))
				}
				if tc.ring != nil && !ringHolds(h, r, tc.ring.p, tc.ring.q) {
					t.Fatalf("ring does not hold rows (%d, %d)", tc.ring.p, tc.ring.q)
				}
			}
			if got := c.NewHandle(64).CheckOD(x, y); got != (!split && !swap) {
				t.Fatalf("CheckOD = %v, Algorithm 2 split = %v, swap = %v", got, split, swap)
			}
			full := c.NewHandle(64).check(x, y, scanFull)
			if full.HasSplit != split || full.HasSwap != swap {
				t.Fatalf("CheckODFull split/swap = %v/%v, Algorithm 2 %v/%v", full.HasSplit, full.HasSwap, split, swap)
			}
			if w := full.SwapWitness; swap && (CompareRows(r, w.P, w.Q, x) >= 0 || CompareRows(r, w.P, w.Q, y) <= 0) {
				t.Fatalf("swap witness %+v is not a swap", w)
			}
			if w := full.SplitWitness; split && (CompareRows(r, w.P, w.Q, x) != 0 || CompareRows(r, w.P, w.Q, y) == 0) {
				t.Fatalf("split witness %+v is not a split", w)
			}
			if tc.swap != nil && (full.SwapWitness.P != int(tc.swap.p) || full.SwapWitness.Q != int(tc.swap.q)) {
				t.Fatalf("CheckODFull swap witness %+v, want rows (%d, %d)", full.SwapWitness, tc.swap.p, tc.swap.q)
			}
		})
	}
}

// ringHolds reports whether ring slot 0 of h holds the sign row of rows
// (p, q).
func ringHolds(h *Handle, r *relation.Relation, p, q int32) bool {
	want := make([]signs, r.NumCols())
	signRow(want, 0, r.Codes, p, q)
	for a, s := range want {
		if h.signs[a].lt&1 != s.lt || h.signs[a].gt&1 != s.gt {
			return false
		}
	}
	return true
}
