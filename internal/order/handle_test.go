package order_test

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"path/filepath"
	"testing"

	"ocd/internal/attr"
	"ocd/internal/core"
	"ocd/internal/order"
	"ocd/internal/relation"
)

// TestRecycledBuffersDoNotAlias: discovery through per-worker Handles —
// tiny caches whose evicted buffers are recycled by the next derivation,
// 1 to 8 workers, with and without a budget that spills every level —
// gives byte-identical results with identical Checks and Candidates, and
// every emitted dependency holds under Algorithm 2. A buffer recycled while
// a check still reads it would corrupt a rank vector and show up here.
func TestRecycledBuffersDoNotAlias(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	for trial := 0; trial < 12; trial++ {
		r := latticeRelation(rng)
		var want []byte
		for _, cache := range []int{1, 2, 3} {
			for _, workers := range []int{1, 2, 3, 8} {
				for _, spill := range []bool{false, true} {
					opts := core.Options{Workers: workers, IndexCacheSize: cache}
					if spill {
						opts.MaxMemoryBytes = 1
						opts.SpillDir = filepath.Join(t.TempDir(), "spill")
					}
					res := core.Discover(r, opts)
					if res.Stats.Truncated {
						t.Fatalf("trial %d: run truncated: %+v", trial, res.Stats)
					}
					got := serialize(t, res)
					if want == nil {
						want = got
						verify(t, r, res)
						continue
					}
					if string(got) != string(want) {
						t.Fatalf("trial %d cache=%d workers=%d spill=%v: results differ\nwant %s\ngot  %s",
							trial, cache, workers, spill, want, got)
					}
				}
			}
		}
	}
}

// latticeRelation draws 20–60 rows over 4–6 columns, half of them
// monotone in the row index at different granularities (so many OCDs hold
// and the candidate tree goes deep) and half random over small domains.
func latticeRelation(rng *rand.Rand) *relation.Relation {
	rows, cols := 20+rng.Intn(41), 4+rng.Intn(3)
	names := make([]string, cols)
	block, dom := make([]int, cols), make([]int, cols)
	for j := range names {
		names[j] = fmt.Sprintf("c%d", j)
		block[j], dom[j] = 1+rng.Intn(8), 2+rng.Intn(4)
	}
	data := make([][]int, rows)
	for i := range data {
		data[i] = make([]int, cols)
		for j := range data[i] {
			if j%2 == 0 {
				data[i][j] = i / block[j]
			} else {
				data[i][j] = rng.Intn(dom[j])
			}
		}
	}
	return relation.FromInts("lattice", names, data)
}

// serialize renders the parts of a result that every execution mode must
// reproduce exactly.
func serialize(t *testing.T, res *core.Result) []byte {
	t.Helper()
	b, err := json.Marshal(struct {
		OCDs               []core.OCD
		ODs                []core.OD
		Constants          []attr.ID
		EquivClasses       [][]attr.ID
		Checks, Candidates int64
	}{res.OCDs, res.ODs, res.Constants, res.EquivClasses, res.Stats.Checks, res.Stats.Candidates})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// verify re-checks every emitted dependency with Algorithm 2: an OCD
// X ~ Y is the OD XY → YX (Theorem 4.1), and each equivalence class's
// members order each other.
func verify(t *testing.T, r *relation.Relation, res *core.Result) {
	t.Helper()
	holds := func(x, y attr.List) bool {
		split, swap := order.Algorithm2(r, x, y)
		return !split && !swap
	}
	for _, d := range res.OCDs {
		if !holds(d.X.Concat(d.Y), d.Y.Concat(d.X)) {
			t.Fatalf("emitted OCD %v ~ %v fails Algorithm 2", d.X, d.Y)
		}
	}
	for _, d := range res.ODs {
		if !holds(d.X, d.Y) {
			t.Fatalf("emitted OD %v -> %v fails Algorithm 2", d.X, d.Y)
		}
	}
	for _, class := range res.EquivClasses {
		for _, a := range class[1:] {
			if x, y := attr.Singleton(class[0]), attr.Singleton(a); !holds(x, y) || !holds(y, x) {
				t.Fatalf("equivalence class %v: %v and %v do not order each other", class, class[0], a)
			}
		}
	}
}
