package order

import (
	"fmt"
	"math/rand"
	"testing"

	"ocd/internal/attr"
	"ocd/internal/relation"
)

// TestSignRowsMatchCompareRows: the sign-row probe answers exactly as a
// probe comparing the remembered pairs with CompareRows, on relations with
// NULLs, ties and reversed twin columns, and on a row slice of one. Every
// sign row's first nonzero sign along a list is CompareRows' answer for
// its pair, and on random list pairs swapWitnessed finds a swap iff some
// pair in the ring's filled slots is ordered strictly opposite on the two
// lists.
func TestSignRowsMatchCompareRows(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	var found, missed int
	for trial := 0; trial < 40; trial++ {
		r := nullTiedRelation(t, rng, 6+rng.Intn(20), 2+rng.Intn(4))
		if trial%2 == 1 {
			r = r.WithReversedTwins()
		}
		if trial%4 == 3 {
			r = r.HeadRows(r.NumRows() - 2) // sparse codes of a row slice
		}
		h := NewChecker(r, 0).NewHandle(0)
		var pairs [][2]int32
		for k := 0; k < 1+rng.Intn(witnessRing); k++ {
			p, q := int32(rng.Intn(r.NumRows())), int32(rng.Intn(r.NumRows()))
			pairs = append(pairs, [2]int32{p, q})
			signRow(h.signs, k, r.Codes, p, q)
		}
		// The slots past n keep stale signs, as after the ring is emptied;
		// the probe must ignore them.
		h.w.n = 1 + rng.Intn(len(pairs))
		lists := listsUpTo(r.NumCols(), 3)
		for k, pq := range pairs {
			for _, x := range lists {
				lt, gt := h.firstSigns(x, 1<<k)
				got := int(gt>>k) - int(lt>>k)
				if want := CompareRows(r, int(pq[0]), int(pq[1]), x); got != want {
					t.Fatalf("trial %d: rows %d, %d on %v: sign row says %d, CompareRows %d", trial, pq[0], pq[1], x, got, want)
				}
			}
		}
		for n := 0; n < 3000; n++ {
			x, y := lists[rng.Intn(len(lists))], lists[rng.Intn(len(lists))]
			want := false
			for _, pq := range pairs[:h.w.n] {
				p, q := int(pq[0]), int(pq[1])
				if cx := CompareRows(r, p, q, x); cx != 0 && CompareRows(r, p, q, y) == -cx {
					want = true
				}
			}
			if got := h.swapWitnessed(x, y); got != want {
				t.Fatalf("trial %d: swapWitnessed(%v, %v) = %v, CompareRows says %v", trial, x, y, got, want)
			}
			if want {
				found++
			} else {
				missed++
			}
		}
	}
	if found == 0 || missed == 0 {
		t.Fatalf("%d witnessed and %d unwitnessed probes, want both", found, missed)
	}
}

// nullTiedRelation draws rows over small domains where about one cell in
// five is NULL, so NULLs and ties are common.
func nullTiedRelation(t *testing.T, rng *rand.Rand, rows, cols int) *relation.Relation {
	t.Helper()
	names := make([]string, cols)
	for j := range names {
		names[j] = fmt.Sprintf("c%d", j)
	}
	data := make([][]string, rows)
	for i := range data {
		data[i] = make([]string, cols)
		for j := range data[i] {
			if rng.Intn(5) > 0 {
				data[i][j] = fmt.Sprint(rng.Intn(4))
			}
		}
	}
	r, err := relation.FromStrings("nulls", names, data, relation.Options{})
	if err != nil {
		t.Fatalf("FromStrings: %v", err)
	}
	return r
}

// listsUpTo returns every list of at most n distinct attributes out of
// cols, the empty list included.
func listsUpTo(cols, n int) []attr.List {
	out := []attr.List{{}}
	for from := 0; from < len(out); from++ {
		if len(out[from]) == n {
			continue
		}
		for a := 0; a < cols; a++ {
			if id := attr.ID(a); !out[from].Contains(id) {
				out = append(out, out[from].Append(id))
			}
		}
	}
	return out
}
