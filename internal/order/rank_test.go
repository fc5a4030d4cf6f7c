package order

import (
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"testing"

	"ocd/internal/attr"
	"ocd/internal/datagen"
	"ocd/internal/relation"
)

// algorithm2 is the paper's Algorithm 2, kept as the oracle for the grouped
// scan: sort the rows by XY with ties in row order, then classify adjacent
// pairs. Sorting by XY puts every split and, at some X-group boundary,
// some swap of X → Y on adjacent rows.
func algorithm2(r *relation.Relation, x, y attr.List) (split, swap bool) {
	idx := referenceSort(r, x.Concat(y))
	for i := 0; i+1 < len(idx); i++ {
		p, q := int(idx[i]), int(idx[i+1])
		cx, cy := CompareRows(r, p, q, x), CompareRows(r, p, q, y)
		if cx == 0 && cy != 0 {
			split = true
		}
		if cx < 0 && cy > 0 {
			swap = true
		}
	}
	return split, swap
}

// referenceSort is generateIndex of Algorithm 2 as a comparison sort:
// rows ascending by x under ⪯, ties in row order.
func referenceSort(r *relation.Relation, x attr.List) []int32 {
	idx := make([]int32, r.NumRows())
	for i := range idx {
		idx[i] = int32(i)
	}
	sort.SliceStable(idx, func(a, b int) bool {
		return CompareRows(r, int(idx[a]), int(idx[b]), x) < 0
	})
	return idx
}

// oracleRelation draws a small relation with heavy ties and NULLs (empty
// strings). Every third one is a row slice of a larger relation with a
// wide domain, so its codes are sparse in the parent's code space.
func oracleRelation(rng *rand.Rand) *relation.Relation {
	cols, rows, domain := 2+rng.Intn(4), rng.Intn(25), 1+rng.Intn(5)
	sliced := rng.Intn(3) == 0
	if sliced {
		rows, domain = 40+rng.Intn(40), 200
	}
	names := make([]string, cols)
	for j := range names {
		names[j] = string(rune('A' + j))
	}
	data := make([][]string, rows)
	for i := range data {
		data[i] = make([]string, cols)
		for j := range data[i] {
			if rng.Intn(6) != 0 {
				data[i][j] = strconv.Itoa(rng.Intn(domain))
			}
		}
	}
	r, err := relation.FromStrings("oracle", names, data, relation.Options{})
	if err != nil {
		panic(err)
	}
	if !sliced {
		return r
	}
	if rng.Intn(2) == 0 {
		return r.HeadRows(rng.Intn(20))
	}
	var pick []int
	for i := 0; i < rows; i++ {
		if rng.Intn(4) == 0 {
			pick = append(pick, i)
		}
	}
	return r.SelectRows(pick)
}

// TestChecksAgreeWithAlgorithm2: on thousands of random small relations —
// NULLs, heavy ties, sparse-coded row slices, cache caps 0, 1 and 64, lists
// of up to four attributes — every check agrees with Algorithm 2 and every
// witness is a genuine violation.
func TestChecksAgreeWithAlgorithm2(t *testing.T) {
	rng := rand.New(rand.NewSource(2019))
	for trial := 0; trial < 2000; trial++ {
		r := oracleRelation(rng)
		c := NewChecker(r, []int{0, 1, 64}[trial%3])
		for k := 0; k < 6; k++ {
			x, y := randomList(rng, r.NumCols(), 4), randomList(rng, r.NumCols(), 4)
			split, swap := algorithm2(r, x, y)
			_, ocdSwap := algorithm2(r, x.Concat(y), y.Concat(x))
			if got := c.CheckOCD(x, y); got != !ocdSwap {
				t.Fatalf("trial %d: CheckOCD(%v,%v) = %v, Algorithm 2 = %v\nrows: %v", trial, x, y, got, !ocdSwap, dump(r))
			}
			if got := c.CheckOD(x, y); got != (!split && !swap) {
				t.Fatalf("trial %d: CheckOD(%v,%v) = %v, Algorithm 2 split %v swap %v\nrows: %v", trial, x, y, got, split, swap, dump(r))
			}
			full := c.CheckODFull(x, y)
			if full.HasSplit != split || full.HasSwap != swap || full.Valid != (!split && !swap) {
				t.Fatalf("trial %d: CheckODFull(%v,%v) = %+v, Algorithm 2 split %v swap %v\nrows: %v", trial, x, y, full, split, swap, dump(r))
			}
			if w := full.SplitWitness; split && (w.Kind != Split || CompareRows(r, w.P, w.Q, x) != 0 || CompareRows(r, w.P, w.Q, y) == 0) {
				t.Fatalf("trial %d: split witness %+v is no split of %v → %v", trial, w, x, y)
			}
			if w := full.SwapWitness; swap && (w.Kind != Swap || CompareRows(r, w.P, w.Q, x) >= 0 || CompareRows(r, w.P, w.Q, y) <= 0) {
				t.Fatalf("trial %d: swap witness %+v is no swap of %v → %v", trial, w, x, y)
			}
		}
	}
}

// TestRadixMatchesComparisonSort: SortedIndex, a counting sort of the rows
// by rank, gives exactly the stable comparison sort's index.
func TestRadixMatchesComparisonSort(t *testing.T) {
	rng := rand.New(rand.NewSource(191))
	for trial := 0; trial < 300; trial++ {
		r := oracleRelation(rng)
		c := NewChecker(r, []int{0, 1, 64}[trial%3])
		for k := 0; k < 3; k++ {
			x := randomList(rng, r.NumCols(), 4)
			if got, want := c.SortedIndex(x), referenceSort(r, x); !slices.Equal(got, want) {
				t.Fatalf("trial %d: SortedIndex(%v) = %v, want %v\nrows: %v", trial, x, got, want, dump(r))
			}
		}
	}
}

func TestRadixWithNulls(t *testing.T) {
	r, err := relation.FromStrings("t", []string{"A", "B"}, [][]string{
		{"", "2"}, {"1", ""}, {"", ""}, {"2", "1"}, {"1", "1"},
	}, relation.Options{})
	if err != nil {
		t.Fatal(err)
	}
	x := attr.NewList(0, 1)
	got := NewChecker(r, 4).SortedIndex(x)
	if want := referenceSort(r, x); !slices.Equal(got, want) {
		t.Fatalf("SortedIndex %v != reference %v", got, want)
	}
	// NULLS FIRST: row 2 (both NULL) must come first.
	if got[0] != 2 {
		t.Errorf("NULL row not first: %v", got)
	}
}

func TestRadixEmptyCases(t *testing.T) {
	empty := relation.FromInts("e", []string{"A", "B"}, nil)
	if got := NewChecker(empty, 4).SortedIndex(attr.NewList(0, 1)); got == nil || len(got) != 0 {
		t.Errorf("empty relation should give an empty index, got %v", got)
	}
	r := relation.FromInts("t", []string{"A"}, [][]int{{3}, {1}})
	if got := NewChecker(r, 4).SortedIndex(attr.List{}); got[0] != 0 || got[1] != 1 {
		t.Error("empty list should keep original order")
	}
}

// TestDeriveStrategiesAgree: composite-key marking and the two counting
// passes number the (prefix, column) pairs identically.
func TestDeriveStrategiesAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(197))
	for trial := 0; trial < 100; trial++ {
		r := randomRelation(rng, 1+rng.Intn(300), 2, 1+rng.Intn(30))
		c := NewChecker(r, 0)
		p, col := c.column(attr.NewList(0)), c.column(attr.NewList(1))
		marked, _ := c.own.derive(p, col)
		// Unused ranks are legal, so an inflated domain forces the
		// counting passes without changing the order.
		p.dom += 4 * r.NumRows() * compositeSlack
		counted, _ := c.own.derive(p, col)
		if marked.dom != counted.dom || !slices.Equal(marked.ranks, counted.ranks) {
			t.Fatalf("trial %d: marked %v (dom %d) != counted %v (dom %d)", trial, marked.ranks, marked.dom, counted.ranks, counted.dom)
		}
	}
}

// TestCheckerEndToEndWithRadix drives checks on a relation large enough
// that derivations take the counting (radix) passes.
func TestCheckerEndToEndWithRadix(t *testing.T) {
	rng := rand.New(rand.NewSource(193))
	nr := 4600
	rows := make([][]int, nr)
	for i := range rows {
		v := rng.Intn(100000)
		rows[i] = []int{v, v / 10, rng.Intn(5)}
	}
	r := relation.FromInts("t", []string{"A", "B", "C"}, rows)
	c := NewChecker(r, 8)
	if !c.CheckOD(attr.NewList(0), attr.NewList(1)) {
		t.Error("A → B (B = A/10) should hold")
	}
	if c.CheckOD(attr.NewList(1), attr.NewList(0)) {
		t.Error("B → A must fail (splits)")
	}
	if !c.CheckOCD(attr.NewList(0), attr.NewList(1)) {
		t.Error("A ~ B should hold")
	}
	if !c.CheckOD(attr.NewList(0, 2), attr.NewList(1)) || c.CheckOD(attr.NewList(1, 2), attr.NewList(0)) {
		t.Error("AC → B must hold and BC → A must fail")
	}
	x := attr.NewList(2, 0)
	if got, want := c.SortedIndex(x), referenceSort(r, x); !slices.Equal(got, want) {
		t.Error("SortedIndex over a counting-pass derivation diverges from the reference sort")
	}
}

// TestRadixOnRowSlices pins the sparse-code case: HeadRows and SelectRows
// keep the parent's code space, so a slice can hold codes far beyond its
// own distinct count; indexes and checks must still match the reference.
func TestRadixOnRowSlices(t *testing.T) {
	rng := rand.New(rand.NewSource(199))
	rows := make([][]int, 10000)
	for i := range rows {
		rows[i] = []int{rng.Intn(1000000), rng.Intn(100)}
	}
	r := relation.FromInts("big", []string{"A", "B"}, rows)
	x := attr.NewList(0, 1)
	for _, s := range []*relation.Relation{r.HeadRows(6000), r.SelectRows([]int{9999, 0, 5000, 42, 4999, 7777})} {
		c := NewChecker(s, 4)
		if got, want := c.SortedIndex(x), referenceSort(s, x); !slices.Equal(got, want) {
			t.Fatalf("%d-row slice: SortedIndex diverges from the reference sort", s.NumRows())
		}
		split, swap := algorithm2(s, attr.NewList(1), attr.NewList(0))
		if res := c.CheckODFull(attr.NewList(1), attr.NewList(0)); res.HasSplit != split || res.HasSwap != swap {
			t.Fatalf("%d-row slice: CheckODFull = %+v, Algorithm 2 split %v swap %v", s.NumRows(), res, split, swap)
		}
	}
}

// TestSlicedRelationChecksMatchFreshEncoding: checks on a 64-row head of a
// 200,000-row LINEITEM answer as on a fresh encoding of the same rows, and
// allocate in proportion to the 64 rows, not to the parent's domains.
func TestSlicedRelationChecksMatchFreshEncoding(t *testing.T) {
	head := datagen.LineItem(200000).HeadRows(64)
	data := make([][]int, head.NumRows())
	for i := range data {
		data[i] = make([]int, head.NumCols())
		for a := range data[i] {
			data[i][a] = int(head.Code(i, attr.ID(a)))
		}
	}
	fresh := relation.FromInts("fresh", head.ColNames, data)

	var pairs [][2]attr.List
	for a := 0; a < head.NumCols(); a++ {
		for b := 0; b < head.NumCols(); b++ {
			if a != b {
				pairs = append(pairs, [2]attr.List{attr.NewList(attr.ID(a)), attr.NewList(attr.ID(b), attr.ID((b+1)%head.NumCols()))})
			}
		}
	}
	want := NewChecker(fresh, 64)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	got := NewChecker(head, 64)
	for _, p := range pairs {
		if got.CheckOCD(p[0], p[1]) != want.CheckOCD(p[0], p[1]) ||
			got.CheckOD(p[0], p[1]) != want.CheckOD(p[0], p[1]) ||
			got.CheckODFull(p[1], p[0]) != want.CheckODFull(p[1], p[0]) {
			t.Fatalf("%v vs %v: sliced and freshly encoded relations disagree", p[0], p[1])
		}
	}
	runtime.ReadMemStats(&after)
	// Both checkers together touch 16 columns and 16 derived lists of 64
	// rows; a single per-check array sized by a parent domain (up to
	// 200,000 codes) would blow the bound many times over.
	if perCheck := float64(after.TotalAlloc-before.TotalAlloc) / float64(3*len(pairs)); perCheck > 1024 {
		t.Errorf("%.0f bytes allocated per check on a 64-row slice, want ≤ 1 KiB", perCheck)
	}
}

// TestODEarlyExitMatchesAlgorithm2: CheckOD's row pass ends at the first
// row whose Y-rank differs from its X-group's first. Splits involving row 0,
// found at row 1, and found only at the last row — each with and without a
// swap elsewhere — agree with Algorithm 2, as do split-free instances whose
// only violation is a swap at the last row.
func TestODEarlyExitMatchesAlgorithm2(t *testing.T) {
	for _, tc := range []struct {
		name string
		rows [][]int // columns A, B; the check is A → B
	}{
		{"row 0 splits with the last row", [][]int{{1, 0}, {2, 5}, {3, 6}, {1, 1}}},
		{"row 0 splits with the last row, swap too", [][]int{{1, 0}, {2, 9}, {3, 8}, {1, 1}}},
		{"row 1 splits with row 0", [][]int{{4, 2}, {4, 3}, {5, 4}, {6, 5}}},
		{"row 1 splits with row 0, swap too", [][]int{{5, 1}, {5, 2}, {1, 3}, {6, 0}}},
		{"last row splits", [][]int{{1, 1}, {2, 2}, {3, 3}, {2, 7}}},
		{"last row splits, swap too", [][]int{{1, 5}, {2, 4}, {3, 6}, {3, 7}}},
		{"last row swaps, no split", [][]int{{1, 1}, {2, 2}, {3, 3}, {4, 0}}},
		{"valid", [][]int{{1, 1}, {2, 2}, {2, 2}, {3, 3}}},
	} {
		r := relation.FromInts("t", []string{"A", "B"}, tc.rows)
		x, y := attr.NewList(0), attr.NewList(1)
		split, swap := algorithm2(r, x, y)
		c := NewChecker(r, 4)
		if got := c.CheckOD(x, y); got != (!split && !swap) {
			t.Errorf("%s: CheckOD = %v, Algorithm 2 split %v swap %v", tc.name, got, split, swap)
		}
		if full := c.CheckODFull(x, y); full.HasSplit != split || full.HasSwap != swap {
			t.Errorf("%s: CheckODFull = %+v, Algorithm 2 split %v swap %v", tc.name, full, split, swap)
		}
		// The same instances through a derived two-attribute LHS.
		r2 := relation.FromInts("t", []string{"A", "Z", "B"}, appendZero(tc.rows))
		xz := attr.NewList(0, 1)
		split, swap = algorithm2(r2, xz, attr.NewList(2))
		if got := NewChecker(r2, 4).CheckOD(xz, attr.NewList(2)); got != (!split && !swap) {
			t.Errorf("%s: CheckOD(AZ → B) = %v, Algorithm 2 split %v swap %v", tc.name, got, split, swap)
		}
	}
}

// appendZero inserts a constant 0 column after each row's first value.
func appendZero(rows [][]int) [][]int {
	out := make([][]int, len(rows))
	for i, row := range rows {
		out[i] = []int{row[0], 0, row[1]}
	}
	return out
}

// TestWarmChecksDoNotAllocate: once the lists' prefixes are cached and
// the scratch has grown, a check allocates nothing; and a warm Handle
// whose cache is full derives every vector into a recycled buffer, so
// checks that evict and re-derive allocate nothing either. The OCD checks
// fail, so each empties its Handle's witness ring first to reach the scan.
func TestWarmChecksDoNotAllocate(t *testing.T) {
	rng := rand.New(rand.NewSource(211))
	c := NewChecker(randomRelation(rng, 3000, 5, 40), 64)
	x, y, col := attr.NewList(0, 1), attr.NewList(2, 3), attr.NewList(4)
	c.CheckODFull(x, y)
	for name, check := range map[string]func(){
		"CheckOCD": func() {
			c.own.w = witnesses{}
			c.CheckOCD(x, y)
		},
		"CheckOD":     func() { c.CheckOD(x, y) },
		"CheckOD/col": func() { c.CheckOD(col, y) },
		"CheckODFull": func() { c.CheckODFull(x, y) },
	} {
		if n := testing.AllocsPerRun(100, check); n != 0 {
			t.Errorf("warm %s: %v allocations per check, want 0", name, n)
		}
	}

	h := c.NewHandle(2)
	lists := []attr.List{attr.NewList(0, 1, 2), attr.NewList(3, 4), attr.NewList(1, 0), attr.NewList(2, 4, 3)}
	k := 0
	churn := func() {
		h.w = witnesses{}
		h.CheckOCD(lists[k%4], lists[(k+1)%4])
		h.CheckOD(lists[(k+2)%4], lists[(k+3)%4])
		k++
	}
	for i := 0; i < 8; i++ {
		churn()
	}
	h.Flush()
	before := c.Sorts()
	if n := testing.AllocsPerRun(100, churn); n != 0 {
		t.Errorf("warm Handle deriving through a full cache: %v allocations per round, want 0", n)
	}
	if h.Flush(); c.Sorts()-before < 100 {
		t.Errorf("only %d derivations in 101 rounds: the cache did not churn", c.Sorts()-before)
	}
}
