package core

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"ocd/internal/order"
	"ocd/internal/relation"
)

// randomRelation builds a seeded random instance with a constant column
// (0) and an order-equivalent pair (1, 2), so the reduction phase and
// the tree traversal both have work to do.
func seededRelation(t *testing.T, seed int64, rows, cols int) *relation.Relation {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	data := make([][]int, rows)
	for i := range data {
		row := make([]int, cols)
		for j := range row {
			row[j] = rng.Intn(6)
		}
		row[0] = 7          // constant column
		row[2] = row[1] * 2 // order-equivalent to column 1
		data[i] = row
	}
	r, err := relation.FromIntsErr("rand", nil, data)
	if err != nil {
		t.Fatalf("FromIntsErr: %v", err)
	}
	return r
}

func formatDeps(res *Result) []string {
	var out []string
	for _, d := range res.OCDs {
		out = append(out, "OCD "+d.X.String()+" ~ "+d.Y.String())
	}
	for _, d := range res.ODs {
		out = append(out, "OD "+d.X.String()+" -> "+d.Y.String())
	}
	sort.Strings(out)
	return out
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestDiscoverParallelMatchesSequential is the -race regression test
// for the level workers: with any worker count the traversal must
// produce exactly the sequential result.
// Run it under `go test -race` to exercise the shared checker cache,
// the atomic generated counter and the per-worker output buffers.
func TestDiscoverParallelMatchesSequential(t *testing.T) {
	for _, seed := range []int64{1, 42} {
		r := seededRelation(t, seed, 160, 6)
		want := Discover(r, Options{Workers: 1})
		for _, workers := range []int{2, 4, 8} {
			got := Discover(r, Options{Workers: workers})
			if !equalStrings(formatDeps(want), formatDeps(got)) {
				t.Errorf("seed %d workers=%d: results differ\nseq: %v\npar: %v",
					seed, workers, formatDeps(want), formatDeps(got))
			}
			if want.Stats.Checks != got.Stats.Checks {
				t.Errorf("seed %d workers=%d: checks %d != sequential %d",
					seed, workers, got.Stats.Checks, want.Stats.Checks)
			}
			if want.Stats.Candidates != got.Stats.Candidates {
				t.Errorf("seed %d workers=%d: candidates %d != sequential %d",
					seed, workers, got.Stats.Candidates, want.Stats.Candidates)
			}
		}
	}
}

// assertWellFormed checks the structural invariants every Result must
// satisfy, truncated or not: canonical sort order, disjoint normalized
// sides, and soundness of every emitted dependency against a fresh
// checker.
func assertWellFormed(t *testing.T, r *relation.Relation, res *Result) {
	t.Helper()
	chk := order.NewChecker(r, 0)
	for i, d := range res.OCDs {
		if i > 0 {
			prev := res.OCDs[i-1]
			if c := prev.X.Compare(d.X); c > 0 || (c == 0 && prev.Y.Compare(d.Y) > 0) {
				t.Fatalf("OCDs not in canonical order at %d", i)
			}
		}
		if !d.X.Disjoint(d.Y) || !d.X.IsNormalized() || !d.Y.IsNormalized() {
			t.Fatalf("malformed OCD %s ~ %s", d.X, d.Y)
		}
		if !chk.CheckOCD(d.X, d.Y) {
			t.Fatalf("unsound OCD %s ~ %s", d.X, d.Y)
		}
	}
	for _, d := range res.ODs {
		if !chk.CheckOD(d.X, d.Y) {
			t.Fatalf("unsound OD %s -> %s", d.X, d.Y)
		}
	}
}

// correlatedRelation divides the row index by pairwise-coprime block
// sizes: every column is monotone in the row index (no swaps, so every
// pair is a valid OCD) while the differing tie structure produces
// splits (no ODs), so the candidate tree keeps branching and the
// MaxCandidates budget genuinely binds mid-level.
func correlatedRelation(t *testing.T, rows int) *relation.Relation {
	t.Helper()
	divs := []int{2, 3, 5, 7, 11, 13}
	data := make([][]int, rows)
	for i := range data {
		row := make([]int, len(divs))
		for j, d := range divs {
			row[j] = i / d
		}
		data[i] = row
	}
	r, err := relation.FromIntsErr("correlated", nil, data)
	if err != nil {
		t.Fatalf("FromIntsErr: %v", err)
	}
	return r
}

// TestDiscoverMaxCandidatesParallel drives the early-stop path under
// contention: many workers racing to push the generated counter past
// MaxCandidates. The run must be marked truncated and still produce a
// well-formed, sound partial result.
func TestDiscoverMaxCandidatesParallel(t *testing.T) {
	r := correlatedRelation(t, 200)
	res := Discover(r, Options{Workers: 8, MaxCandidates: 40})
	if !res.Stats.Truncated {
		t.Fatalf("expected truncated run with MaxCandidates=40, stats %+v", res.Stats)
	}
	if res.Stats.Candidates == 0 {
		t.Fatal("truncated run should still count the initial candidates")
	}
	assertWellFormed(t, r, res)
}

// TestExecutionModesAgree: the worker count and the checker's cache size
// (disabled, one entry, default) change how rank vectors are derived and
// reused, never the answer — every mode returns the identical Result,
// Stats.Checks included. Every other trial plants a constant column and an
// order-equivalent pair, so the reduction phase, which spreads its checks
// over the level workers, has constants and classes to find.
func TestExecutionModesAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	for trial := 0; trial < 30; trial++ {
		var r *relation.Relation
		planted := trial%2 == 1
		if planted {
			r = seededRelation(t, rng.Int63(), 8+rng.Intn(60), 4+rng.Intn(5))
		} else {
			r = randomRelation(rng, 2+rng.Intn(60), 2+rng.Intn(6), 1+rng.Intn(6))
			if trial%3 == 0 {
				r = r.HeadRows(r.NumRows() / 2) // sparse codes of a row slice
			}
		}
		var want *Result
		for _, workers := range []int{1, 2, 4} {
			for _, cache := range []int{-1, 1, 0} {
				got := Discover(r, Options{Workers: workers, IndexCacheSize: cache})
				got.Stats.Elapsed = 0
				if want == nil {
					want = got
					if planted && (len(want.Constants) == 0 || len(want.EquivClasses) == 0) {
						t.Fatalf("trial %d: planted constant and equivalent columns not found: %+v", trial, want)
					}
					continue
				}
				if !reflect.DeepEqual(want.Constants, got.Constants) || !reflect.DeepEqual(want.EquivClasses, got.EquivClasses) {
					t.Fatalf("trial %d workers=%d cache=%d: reduction differs\nwant %v %v\ngot  %v %v", trial, workers, cache,
						want.Constants, want.EquivClasses, got.Constants, got.EquivClasses)
				}
				if want.Stats.Checks != got.Stats.Checks {
					t.Fatalf("trial %d workers=%d cache=%d: %d checks, want %d", trial, workers, cache, got.Stats.Checks, want.Stats.Checks)
				}
				if !reflect.DeepEqual(want, got) {
					t.Fatalf("trial %d workers=%d cache=%d: result differs\nwant %+v\ngot  %+v", trial, workers, cache, want, got)
				}
			}
		}
	}
}
