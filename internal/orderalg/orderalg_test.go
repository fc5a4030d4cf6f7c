package orderalg

import (
	"math/rand"
	"testing"

	"ocd/internal/attr"
	"ocd/internal/order"
	"ocd/internal/relation"
)

func ids(xs ...int) attr.List {
	l := make(attr.List, len(xs))
	for i, x := range xs {
		l[i] = attr.ID(x)
	}
	return l
}

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

func taxTable() *relation.Relation {
	return relation.FromInts("tax", []string{"income", "savings", "bracket", "tax"}, [][]int{
		{35000, 3000, 1, 5250},
		{40000, 4000, 1, 6000},
		{40000, 3800, 1, 6000},
		{55000, 6500, 2, 8500},
		{60000, 6500, 2, 9500},
		{80000, 10000, 3, 14000},
	})
}

func hasOD(res *Result, x, y attr.List) bool {
	for _, d := range res.ODs {
		if d.X.Equal(x) && d.Y.Equal(y) {
			return true
		}
	}
	return false
}

// TestIncompletenessOnYes reproduces the paper's Section 5.2.1 claim: ORDER
// finds no dependency on either YES or NO, even though AB → BA holds on YES,
// because it never considers candidates with repeated attributes.
func TestIncompletenessOnYes(t *testing.T) {
	for _, r := range []*relation.Relation{yesTable(), noTable()} {
		res := Discover(r, Options{})
		if len(res.ODs) != 0 {
			t.Errorf("%s: ORDER should find nothing, got %v", r.Name, res.ODs)
		}
	}
}

func TestTaxTable(t *testing.T) {
	res := Discover(taxTable(), Options{})
	// The §1 dependencies with disjoint sides must be found.
	for _, want := range []struct{ x, y attr.List }{
		{ids(0), ids(3)}, // income → tax
		{ids(3), ids(0)}, // tax → income
		{ids(0), ids(2)}, // income → bracket
		{ids(1), ids(2)}, // savings → bracket
		{ids(3), ids(2)}, // tax → bracket
	} {
		if !hasOD(res, want.x, want.y) {
			t.Errorf("missing OD %v → %v", want.x, want.y)
		}
	}
	if hasOD(res, ids(2), ids(0)) {
		t.Error("bracket → income must not hold")
	}
}

func TestSoundness(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	for trial := 0; trial < 40; trial++ {
		r := randomRelation(rng, 2+rng.Intn(20), 2+rng.Intn(4), 1+rng.Intn(4))
		res := Discover(r, Options{})
		chk := order.NewChecker(r, 16)
		for _, d := range res.ODs {
			if !chk.CheckOD(d.X, d.Y) {
				t.Fatalf("trial %d: emitted OD %v → %v invalid", trial, d.X, d.Y)
			}
			if !d.X.Disjoint(d.Y) {
				t.Fatalf("trial %d: sides not disjoint: %v → %v", trial, d.X, d.Y)
			}
		}
	}
}

// derivable implements the two inference rules that justify ORDER's pruning:
// (1) X' → Y with X' a prefix of X implies X → Y; (2) X → Y' with Y a prefix
// of Y' implies X → Y. Composition on the RHS (X → Y1 ∧ X → Y2 ⟹ X → Y1∘Y2)
// is also admitted.
func derivable(ods []OD, x, y attr.List) bool {
	base := func(x2, y2 attr.List) bool {
		for _, d := range ods {
			if x2.HasPrefix(d.X) && d.Y.HasPrefix(y2) {
				return true
			}
		}
		return false
	}
	// DP over split points of y.
	var rec func(y2 attr.List) bool
	memo := map[string]bool{}
	rec = func(y2 attr.List) bool {
		if len(y2) == 0 {
			return true
		}
		k := y2.Key()
		if v, ok := memo[k]; ok {
			return v
		}
		memo[k] = false // guard
		for j := 1; j <= len(y2); j++ {
			if base(x, y2[:j]) && rec(y2[j:]) {
				memo[k] = true
				break
			}
		}
		return memo[k]
	}
	return rec(y)
}

// TestCompletenessForDisjointODs: every valid OD with disjoint sides over a
// small random relation must be derivable from ORDER's output.
func TestCompletenessForDisjointODs(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for trial := 0; trial < 30; trial++ {
		r := randomRelation(rng, 2+rng.Intn(15), 3, 1+rng.Intn(3))
		res := Discover(r, Options{})
		chk := order.NewChecker(r, 16)
		// enumerate all disjoint (X, Y) pairs up to total length 3
		lists := allLists(3, 2)
		for _, x := range lists {
			for _, y := range lists {
				if len(x) == 0 || len(y) == 0 || !x.Disjoint(y) {
					continue
				}
				if chk.CheckOD(x, y) && !derivable(res.ODs, x, y) {
					t.Fatalf("trial %d: valid OD %v → %v not derivable from %v",
						trial, x, y, res.ODs)
				}
			}
		}
	}
}

// allLists enumerates all duplicate-free lists over n attributes up to
// maxLen, including the empty list.
func allLists(n, maxLen int) []attr.List {
	out := []attr.List{{}}
	var rec func(cur attr.List)
	rec = func(cur attr.List) {
		if len(cur) == maxLen {
			return
		}
		for a := 0; a < n; a++ {
			if cur.Contains(attr.ID(a)) {
				continue
			}
			nxt := cur.Append(attr.ID(a))
			out = append(out, nxt)
			rec(nxt)
		}
	}
	rec(attr.List{})
	return out
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

func TestMaxCandidatesTruncates(t *testing.T) {
	r := taxTable()
	res := Discover(r, Options{MaxCandidates: 5})
	if !res.Truncated {
		t.Error("expected truncation")
	}
}

func TestStats(t *testing.T) {
	res := Discover(taxTable(), Options{})
	if res.Checks == 0 || res.Candidates == 0 || res.Levels == 0 || res.Elapsed <= 0 {
		t.Errorf("stats not populated: %+v", res)
	}
	if res.Truncated {
		t.Error("small table should not truncate")
	}
}

func TestConstantColumnBehaviour(t *testing.T) {
	// K constant: X → K holds for every X; K → A only when A constant.
	r := relation.FromInts("c", []string{"A", "K"}, [][]int{{1, 7}, {2, 7}})
	res := Discover(r, Options{})
	if !hasOD(res, ids(0), ids(1)) {
		t.Error("A → K missing for constant K")
	}
	if hasOD(res, ids(1), ids(0)) {
		t.Error("K → A must not hold")
	}
}

func TestDeterminism(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	r := randomRelation(rng, 30, 4, 3)
	a := Discover(r, Options{})
	b := Discover(r, Options{})
	if len(a.ODs) != len(b.ODs) {
		t.Fatal("non-deterministic output size")
	}
	for i := range a.ODs {
		if !a.ODs[i].X.Equal(b.ODs[i].X) || !a.ODs[i].Y.Equal(b.ODs[i].Y) {
			t.Fatal("non-deterministic output order")
		}
	}
}
