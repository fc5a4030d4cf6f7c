package order

import (
	"math/rand"
	"sync"
	"testing"

	"ocd/internal/attr"
	"ocd/internal/relation"
)

// taxTable is Table 1 of the paper (name column omitted; it plays no role in
// the dependencies discussed).
func taxTable() *relation.Relation {
	// income, savings, bracket, tax
	return relation.FromInts("taxinfo", []string{"income", "savings", "bracket", "tax"}, [][]int{
		{35000, 3000, 1, 5250},
		{40000, 4000, 1, 6000},
		{40000, 3800, 1, 6000},
		{55000, 6500, 2, 8500},
		{60000, 6500, 2, 9500},
		{80000, 10000, 3, 14000},
	})
}

// yesTable and noTable reproduce the properties of Tables 5(a) and 5(b): in
// YES the OCD A ~ B (equivalently AB ↔ BA) holds, in NO it does not; in both
// tables neither A → B nor B → A holds, so A ~ B cannot be inferred from
// shorter dependencies (the paper's incompleteness argument against ORDER).
func yesTable() *relation.Relation {
	return relation.FromInts("YES", []string{"A", "B"}, [][]int{
		{1, 1}, {1, 2}, {2, 3}, {3, 3}, {4, 4},
	})
}

func noTable() *relation.Relation {
	return relation.FromInts("NO", []string{"A", "B"}, [][]int{
		{1, 2}, {1, 3}, {2, 1}, {3, 1}, {4, 4},
	})
}

func ids(xs ...int) attr.List {
	l := make(attr.List, len(xs))
	for i, x := range xs {
		l[i] = attr.ID(x)
	}
	return l
}

func TestCompareRows(t *testing.T) {
	r := taxTable()
	// row1 (40000,4000) vs row2 (40000,3800) on [income,savings]
	if got := CompareRows(r, 1, 2, ids(0, 1)); got != 1 {
		t.Errorf("CompareRows = %d, want 1", got)
	}
	if got := CompareRows(r, 1, 2, ids(0)); got != 0 {
		t.Errorf("equal income: CompareRows = %d, want 0", got)
	}
	if got := CompareRows(r, 0, 1, ids(0)); got != -1 {
		t.Errorf("CompareRows = %d, want -1", got)
	}
	if !Leq(r, 0, 1, ids(0)) || Leq(r, 1, 0, ids(0)) {
		t.Error("Leq inconsistent with CompareRows")
	}
	if got := CompareRows(r, 3, 3, ids(0, 1, 2, 3)); got != 0 {
		t.Error("row not ⪯-equal to itself")
	}
}

func TestTaxTableODs(t *testing.T) {
	c := NewChecker(taxTable(), 16)
	income, savings, bracket, tax := ids(0), ids(1), ids(2), ids(3)
	cases := []struct {
		x, y  attr.List
		valid bool
	}{
		{income, tax, true},      // income → tax (paper §1)
		{tax, income, true},      // tax → income
		{income, bracket, true},  // income → bracket
		{bracket, income, false}, // bracket does not order income (split)
		{income, savings, false}, // row1/row2: same... 40000 orders savings? 4000 then 3800 decreasing → swap-ish? equal income differing savings → split
		{savings, income, false},
		{ids(0, 1), savings, true}, // [income,savings] → savings
	}
	for _, cse := range cases {
		if got := c.CheckOD(cse.x, cse.y); got != cse.valid {
			t.Errorf("OD %v → %v = %v, want %v", cse.x, cse.y, got, cse.valid)
		}
	}
	// income ~ savings: the paper's §1 example of order compatibility.
	if !c.CheckOCD(income, savings) {
		t.Error("income ~ savings should hold (paper §1)")
	}
	if !c.OrderEquivalent(income, tax) {
		t.Error("income ↔ tax should hold")
	}
}

func TestYesNoTables(t *testing.T) {
	yes := NewChecker(yesTable(), 16)
	no := NewChecker(noTable(), 16)
	a, b := ids(0), ids(1)
	// In both tables A → B and B → A fail.
	for name, c := range map[string]*Checker{"YES": yes, "NO": no} {
		if c.CheckOD(a, b) {
			t.Errorf("%s: A → B should fail", name)
		}
		if c.CheckOD(b, a) {
			t.Errorf("%s: B → A should fail", name)
		}
	}
	// YES: A ~ B holds (AB ↔ BA); NO: it does not.
	if !yes.CheckOCD(a, b) {
		t.Error("YES: A ~ B should hold")
	}
	if no.CheckOCD(a, b) {
		t.Error("NO: A ~ B should fail")
	}
	// Equivalent formulation through the OD with repeated attributes:
	// AB → B holds on YES (Theorem 3.8: X ~ Y ⇔ XY → Y).
	if !yes.CheckOD(ids(0, 1), b) {
		t.Error("YES: AB → B should hold")
	}
	if no.CheckOD(ids(0, 1), b) {
		t.Error("NO: AB → B should fail")
	}
}

func TestSplitSwapClassification(t *testing.T) {
	// Split only: A has a tie with differing B, no decreasing pair.
	split := relation.FromInts("s", []string{"A", "B"}, [][]int{
		{1, 1}, {1, 2}, {2, 3},
	})
	res := NewChecker(split, 0).CheckODFull(ids(0), ids(1))
	if res.Valid || !res.HasSplit || res.HasSwap {
		t.Errorf("split table: %+v", res)
	}
	if res.SplitWitness.Kind != Split {
		t.Error("split witness kind wrong")
	}

	// Swap only: strictly increasing A with a B decrease.
	swap := relation.FromInts("w", []string{"A", "B"}, [][]int{
		{1, 5}, {2, 3}, {3, 4},
	})
	res = NewChecker(swap, 0).CheckODFull(ids(0), ids(1))
	if res.Valid || res.HasSplit || !res.HasSwap {
		t.Errorf("swap table: %+v", res)
	}
	p, q := res.SwapWitness.P, res.SwapWitness.Q
	if !(swap.Code(p, 0) < swap.Code(q, 0) && swap.Code(p, 1) > swap.Code(q, 1)) {
		t.Errorf("swap witness (%d,%d) is not a swap", p, q)
	}

	// Both kinds present.
	both := relation.FromInts("b", []string{"A", "B"}, [][]int{
		{1, 1}, {1, 2}, {2, 0},
	})
	res = NewChecker(both, 0).CheckODFull(ids(0), ids(1))
	if !res.HasSplit || !res.HasSwap || res.Valid {
		t.Errorf("both table: %+v", res)
	}

	// Valid OD.
	ok := relation.FromInts("v", []string{"A", "B"}, [][]int{
		{1, 1}, {1, 1}, {2, 5},
	})
	res = NewChecker(ok, 0).CheckODFull(ids(0), ids(1))
	if !res.Valid || res.HasSplit || res.HasSwap {
		t.Errorf("valid table: %+v", res)
	}
}

func TestNonAdjacentSwapDetected(t *testing.T) {
	// The swap pair (row0, row2) is separated by a split inside A=2's group
	// once sorted; the boundary-pair argument must still catch it.
	r := relation.FromInts("t", []string{"A", "B"}, [][]int{
		{1, 5}, {2, 9}, {2, 3},
	})
	res := NewChecker(r, 0).CheckODFull(ids(0), ids(1))
	if !res.HasSwap {
		t.Errorf("missed non-adjacent swap: %+v", res)
	}
	if !res.HasSplit {
		t.Errorf("missed split: %+v", res)
	}
}

func TestNullsFirstAndEqual(t *testing.T) {
	r, err := relation.FromStrings("t", []string{"A", "B"}, [][]string{
		{"", "1"},
		{"", "1"},
		{"1", "2"},
		{"2", "3"},
	}, relation.Options{})
	if err != nil {
		t.Fatal(err)
	}
	c := NewChecker(r, 0)
	// NULL==NULL and NULLS FIRST make A → B valid here.
	if !c.CheckOD(ids(0), ids(1)) {
		t.Error("A → B should hold under NULLS FIRST semantics")
	}
	// Two NULLs with differing B values form a split.
	r2, _ := relation.FromStrings("t", []string{"A", "B"}, [][]string{
		{"", "1"}, {"", "2"}, {"1", "3"},
	}, relation.Options{})
	res := NewChecker(r2, 0).CheckODFull(ids(0), ids(1))
	if !res.HasSplit {
		t.Error("NULL=NULL should create a split with differing RHS")
	}
}

func TestEmptyAndSingletonRelations(t *testing.T) {
	empty := relation.FromInts("e", []string{"A", "B"}, nil)
	c := NewChecker(empty, 4)
	if !c.CheckOD(ids(0), ids(1)) || !c.CheckOCD(ids(0), ids(1)) {
		t.Error("every dependency holds vacuously on an empty relation")
	}
	one := relation.FromInts("o", []string{"A", "B"}, [][]int{{5, 9}})
	c = NewChecker(one, 4)
	if !c.CheckOD(ids(0), ids(1)) || !c.CheckOCD(ids(1), ids(0)) {
		t.Error("every dependency holds on a single-row relation")
	}
}

func TestEmptyListSides(t *testing.T) {
	r := taxTable()
	c := NewChecker(r, 4)
	// [] → Y holds iff Y is constant over r; X → [] always holds.
	if !c.CheckOD(ids(0), attr.List{}) {
		t.Error("X → [] must hold")
	}
	if c.CheckOD(attr.List{}, ids(0)) {
		t.Error("[] → income must fail (income varies)")
	}
	constCol := relation.FromInts("c", []string{"A", "K"}, [][]int{{1, 7}, {2, 7}})
	cc := NewChecker(constCol, 4)
	if !cc.CheckOD(attr.List{}, ids(1)) {
		t.Error("[] → K must hold for constant K")
	}
}

func TestSortedIndexDeterministic(t *testing.T) {
	r := taxTable()
	c := NewChecker(r, 0) // no cache: both calls rebuild
	i1 := c.SortedIndex(ids(2))
	i2 := c.SortedIndex(ids(2))
	for i := range i1 {
		if i1[i] != i2[i] {
			t.Fatal("SortedIndex not deterministic")
		}
	}
	// Sorted by bracket: rows 0,1,2 (bracket 1) then 3,4 then 5, original
	// order within ties.
	want := []int32{0, 1, 2, 3, 4, 5}
	for i := range want {
		if i1[i] != want[i] {
			t.Fatalf("SortedIndex = %v", i1)
		}
	}
}

func TestIndexCacheEviction(t *testing.T) {
	r := taxTable()
	c := NewChecker(r, 2)
	c.SortedIndex(ids(0, 1))
	c.SortedIndex(ids(1, 2))
	if c.Sorts() != 2 {
		t.Fatalf("Sorts = %d", c.Sorts())
	}
	c.SortedIndex(ids(0, 1)) // hit
	if c.Sorts() != 2 {
		t.Errorf("cache hit rebuilt index: Sorts = %d", c.Sorts())
	}
	c.SortedIndex(ids(2, 3)) // evicts ids(0, 1)
	c.SortedIndex(ids(0, 1)) // miss again
	if c.Sorts() != 4 {
		t.Errorf("eviction wrong: Sorts = %d", c.Sorts())
	}
}

func TestCheckCounter(t *testing.T) {
	c := NewChecker(taxTable(), 4)
	c.CheckOD(ids(0), ids(3))
	c.CheckOCD(ids(0), ids(1))
	c.CheckODFull(ids(0), ids(2))
	if c.Checks() != 3 {
		t.Errorf("Checks = %d, want 3", c.Checks())
	}
}

// TestConcurrentHandlesCountEveryCheck: Handles on one Checker count
// their checks privately while they check concurrently, beside the
// Checker's own methods; once every Handle has flushed, Checks() is the
// total.
func TestConcurrentHandlesCountEveryCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	c := NewChecker(randomRelation(rng, 500, 6, 7), 4)
	const handles, rounds = 4, 150
	lists := []attr.List{ids(0), ids(1, 2), ids(3), ids(4, 5), ids(2, 0), ids(5, 1, 3)}
	var wg sync.WaitGroup
	for g := 0; g <= handles; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var h *Handle
			if g < handles {
				h = c.NewHandle(2)
			}
			for k := 0; k < rounds; k++ {
				x, y := lists[(g+k)%len(lists)], lists[(g+2*k+1)%len(lists)]
				if h == nil {
					c.CheckOCD(x, y)
					c.CheckODFull(y, x)
					continue
				}
				h.CheckOCD(x, y)
				h.CheckOD(y, x)
				if k%40 == 0 {
					h.Flush()
				}
			}
			if h != nil {
				h.Flush()
			}
		}()
	}
	wg.Wait()
	if got, want := c.Checks(), int64(2*rounds*(handles+1)); got != want {
		t.Errorf("Checks = %d after every Handle flushed, want %d", got, want)
	}
}

func TestIsConstantList(t *testing.T) {
	r := relation.FromInts("t", []string{"A", "K"}, [][]int{{1, 7}, {2, 7}})
	c := NewChecker(r, 0)
	if !c.IsConstantList(attr.List{}) || !c.IsConstantList(ids(1)) {
		t.Error("constant list misdetected")
	}
	if c.IsConstantList(ids(0)) || c.IsConstantList(ids(1, 0)) {
		t.Error("non-constant list reported constant")
	}
}

// bruteOD is the O(m²) reference implementation of Definition 2.2.
func bruteOD(r *relation.Relation, x, y attr.List) bool {
	for p := 0; p < r.NumRows(); p++ {
		for q := 0; q < r.NumRows(); q++ {
			if CompareRows(r, p, q, x) <= 0 && CompareRows(r, p, q, y) > 0 {
				return false
			}
		}
	}
	return true
}

// bruteOCD is the O(m²) reference for Definition 2.4 via XY ↔ YX.
func bruteOCD(r *relation.Relation, x, y attr.List) bool {
	return bruteOD(r, x.Concat(y), y.Concat(x)) && bruteOD(r, y.Concat(x), x.Concat(y))
}

func randomRelation(rng *rand.Rand, rows, cols, domain int) *relation.Relation {
	data := make([][]int, rows)
	for i := range data {
		row := make([]int, cols)
		for j := range row {
			row[j] = rng.Intn(domain)
		}
		data[i] = row
	}
	names := make([]string, cols)
	for i := range names {
		names[i] = string(rune('A' + i))
	}
	return relation.FromInts("rand", names, data)
}

func randomList(rng *rand.Rand, cols, maxLen int) attr.List {
	n := 1 + rng.Intn(maxLen)
	perm := rng.Perm(cols)
	l := make(attr.List, 0, n)
	for _, p := range perm[:min(n, cols)] {
		l = append(l, attr.ID(p))
	}
	return l
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// Property: the index-based OD check agrees with the brute-force definition
// on random instances, including ones dense with ties.
func TestQuickODAgreesWithBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 300; trial++ {
		r := randomRelation(rng, 2+rng.Intn(12), 4, 1+rng.Intn(4))
		c := NewChecker(r, 8)
		x := randomList(rng, 4, 2)
		y := randomList(rng, 4, 2)
		want := bruteOD(r, x, y)
		if got := c.CheckOD(x, y); got != want {
			t.Fatalf("trial %d: CheckOD(%v,%v) = %v, brute = %v\nrows: %v", trial, x, y, got, want, dump(r))
		}
		full := c.CheckODFull(x, y)
		if full.Valid != want {
			t.Fatalf("trial %d: CheckODFull.Valid = %v, brute = %v", trial, full.Valid, want)
		}
	}
}

// Property: CheckOCD agrees with the brute-force OCD definition, and with
// Theorem 4.1 (single check XY → YX suffices).
func TestQuickOCDAgreesWithBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 300; trial++ {
		r := randomRelation(rng, 2+rng.Intn(12), 4, 1+rng.Intn(4))
		c := NewChecker(r, 8)
		x := randomList(rng, 4, 2)
		y := randomList(rng, 4, 2)
		want := bruteOCD(r, x, y)
		if got := c.CheckOCD(x, y); got != want {
			t.Fatalf("trial %d: CheckOCD(%v,%v) = %v, brute = %v\nrows: %v", trial, x, y, got, want, dump(r))
		}
		// Theorem 4.1: single direction XY → YX is equivalent.
		if got := c.CheckOD(x.Concat(y), y.Concat(x)); got != want {
			t.Fatalf("trial %d: Theorem 4.1 violated for (%v,%v)", trial, x, y)
		}
	}
}

// Property: an OD implies both the embedded FD (no splits) and the OCD (no
// swaps) — the decomposition of Section 2.2.
func TestQuickODImpliesFDAndOCD(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 200; trial++ {
		r := randomRelation(rng, 2+rng.Intn(10), 3, 1+rng.Intn(3))
		c := NewChecker(r, 8)
		x := randomList(rng, 3, 2)
		y := randomList(rng, 3, 2)
		if c.CheckOD(x, y) {
			if !c.CheckOCD(x, y) {
				t.Fatalf("OD %v→%v holds but OCD fails", x, y)
			}
			full := c.CheckODFull(x, y)
			if full.HasSplit || full.HasSwap {
				t.Fatalf("OD holds but violations reported: %+v", full)
			}
		}
	}
}

// Property: OD is transitive on instances (AX4 soundness on data).
func TestQuickODTransitive(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 200; trial++ {
		r := randomRelation(rng, 2+rng.Intn(8), 3, 1+rng.Intn(3))
		c := NewChecker(r, 8)
		x, y, z := randomList(rng, 3, 2), randomList(rng, 3, 2), randomList(rng, 3, 2)
		if c.CheckOD(x, y) && c.CheckOD(y, z) && !c.CheckOD(x, z) {
			t.Fatalf("transitivity violated: %v→%v, %v→%v but not %v→%v", x, y, y, z, x, z)
		}
	}
}

func dump(r *relation.Relation) [][]string {
	out := make([][]string, r.NumRows())
	for i := range out {
		out[i] = r.Row(i)
	}
	return out
}

func TestConcurrentChecker(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	r := randomRelation(rng, 200, 6, 5)
	c := NewChecker(r, 8)
	type cand struct{ x, y attr.List }
	cands := make([]cand, 64)
	want := make([]bool, len(cands))
	for i := range cands {
		cands[i] = cand{randomList(rng, 6, 3), randomList(rng, 6, 3)}
		want[i] = bruteOCD(r, cands[i].x, cands[i].y)
	}
	done := make(chan bool)
	for w := 0; w < 8; w++ {
		go func(w int) {
			ok := true
			for i := w; i < len(cands); i += 8 {
				if c.CheckOCD(cands[i].x, cands[i].y) != want[i] {
					ok = false
				}
			}
			done <- ok
		}(w)
	}
	for w := 0; w < 8; w++ {
		if !<-done {
			t.Fatal("concurrent check disagreed with brute force")
		}
	}
}
