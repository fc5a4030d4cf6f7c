package order_test

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"

	"ocd/internal/attr"
	"ocd/internal/core"
	"ocd/internal/datagen"
	"ocd/internal/obs"
	"ocd/internal/order"
	"ocd/internal/relation"
)

// TestRecycledBuffersDoNotAlias: discovery through per-worker Handles —
// tiny caches whose evicted buffers are recycled by the next derivation,
// 1 to 8 workers — gives byte-identical results with identical Checks and
// Candidates, and every emitted dependency holds under Algorithm 2. A
// buffer recycled while a check still reads it would corrupt a rank vector
// and show up here.
func TestRecycledBuffersDoNotAlias(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	for trial := 0; trial < 12; trial++ {
		r := latticeRelation(rng)
		var want []byte
		for _, cache := range []int{1, 2, 3} {
			for _, workers := range []int{1, 2, 3, 8} {
				res := core.Discover(r, core.Options{Workers: workers, IndexCacheSize: cache})
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
					t.Fatalf("trial %d cache=%d workers=%d: results differ\nwant %s\ngot  %s",
						trial, cache, workers, want, got)
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

// TestCacheMissesCountDerivations: order.index_cache.misses counts dense
// derivations, so on one worker it equals Checker.Sorts. A one-step
// extension over a small pair space is composite keys in scratch, neither
// a hit nor a miss. The workload replays the candidates Algorithm 3
// generates on HEPATITIS (hepatitisExtensions).
func TestCacheMissesCountDerivations(t *testing.T) {
	r, pairs := hepatitisExtensions(t)
	reg := obs.NewRegistry()
	c := order.NewChecker(r, 0)
	c.SetObs(reg)
	h := c.NewHandle(32)
	for _, p := range pairs {
		h.CheckOCD(p[0], p[1])
	}
	h.Flush()
	if misses := reg.Counter("order.index_cache.misses").Value(); misses != c.Sorts() || misses == 0 {
		t.Fatalf("misses = %d, want Checker.Sorts() = %d (> 0)", misses, c.Sorts())
	}
}

// BenchmarkCheckOCDParallel runs the HEPATITIS extension checks on one
// shared Checker, one Handle per goroutine, each goroutine starting at
// its own offset into the workload. An op is one OCD check; with checks
// on separate Handles touching no shared counter, ns/op should fall with
// -cpu as the cores allow.
func BenchmarkCheckOCDParallel(b *testing.B) {
	r, pairs := hepatitisExtensions(b)
	c := order.NewChecker(r, 0)
	var next atomic.Int64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		h := c.NewHandle(32)
		k := int(next.Add(int64(len(pairs)/7))) % len(pairs)
		for pb.Next() {
			h.CheckOCD(pairs[k][0], pairs[k][1])
			k = (k + 1) % len(pairs)
		}
		h.Flush()
	})
}

// hepatitisExtensions returns the HEPATITIS replica and the OCD checks
// Algorithm 3 makes from the first 400 OCDs a one-worker discovery
// reports: every one-step extension of either side.
func hepatitisExtensions(tb testing.TB) (*relation.Relation, [][2]attr.List) {
	tb.Helper()
	r := datagen.Hepatitis()
	res := core.Discover(r, core.Options{Workers: 1})
	if len(res.OCDs) == 0 {
		tb.Fatal("HEPATITIS discovery reported no OCDs")
	}
	var pairs [][2]attr.List
	for _, d := range res.OCDs[:min(len(res.OCDs), 400)] {
		for a := 0; a < r.NumCols(); a++ {
			id := attr.ID(a)
			if d.X.Contains(id) || d.Y.Contains(id) {
				continue
			}
			pairs = append(pairs, [2]attr.List{d.X.Append(id), d.Y}, [2]attr.List{d.X, d.Y.Append(id)})
		}
	}
	return r, pairs
}
