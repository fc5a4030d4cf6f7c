package order

import (
	"math/rand"
	"testing"

	"ocd/internal/attr"
	"ocd/internal/relation"
)

func newBenchRel(rows int) *benchEnv {
	rng := rand.New(rand.NewSource(271))
	r := randomRelation(rng, rows, 6, 50)
	return &benchEnv{r: NewChecker(r, 64)}
}

type benchEnv struct {
	r *Checker
}

func BenchmarkCheckOCDSmall(b *testing.B) {
	env := newBenchRel(1_000)
	x, y := attr.NewList(0, 1), attr.NewList(2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		env.r.CheckOCD(x, y)
	}
}

func BenchmarkCheckODFullSmall(b *testing.B) {
	env := newBenchRel(1_000)
	x, y := attr.NewList(0), attr.NewList(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		env.r.CheckODFull(x, y)
	}
}

func BenchmarkSortedIndexUncached(b *testing.B) {
	env := newBenchRel(10_000)
	lists := []attr.List{attr.NewList(0, 1), attr.NewList(2, 3), attr.NewList(4, 5)}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		chk := NewChecker(env.r.Relation(), 0)
		for _, l := range lists {
			chk.SortedIndex(l)
		}
	}
}

func BenchmarkCompareRows(b *testing.B) {
	env := newBenchRel(1_000)
	r := env.r.Relation()
	l := attr.NewList(0, 1, 2, 3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		CompareRows(r, i%1000, (i+1)%1000, l)
	}
}

// BenchmarkCheckOCDExtension checks an X side that extends a cached prefix
// by one attribute, the shape of nearly every check discovery makes. The
// witness ring is emptied before each check, so each one scans.
func BenchmarkCheckOCDExtension(b *testing.B) {
	h, x, y := extensionHandle()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.w = witnesses{}
		h.CheckOCD(x, y)
	}
}

// BenchmarkCheckOCDLong checks OCDs on 200,000 rows, long enough for the
// prefix probe, with the witness ring emptied before each check so that
// each one scans. X is a two-column list whose side is composite keys; the
// failing candidate's Y is independent of X, the valid one's orders X.
func BenchmarkCheckOCDLong(b *testing.B) {
	rng := rand.New(rand.NewSource(331))
	data := make([][]int, 200_000)
	for i := range data {
		a, c := rng.Intn(1000), rng.Intn(100)
		data[i] = []int{a, c, a*100 + c, rng.Intn(50_000)}
	}
	h := NewChecker(relation.FromInts("long", []string{"a", "b", "ab", "r"}, data), 0).NewHandle(64)
	x := attr.NewList(0, 1)
	for _, bc := range []struct {
		name  string
		y     attr.List
		valid bool
	}{{"failing", attr.NewList(3), false}, {"valid", attr.NewList(2), true}} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				h.w = witnesses{}
				if h.CheckOCD(x, bc.y) != bc.valid {
					b.Fatalf("CheckOCD(%v, %v) != %v", x, bc.y, bc.valid)
				}
			}
		})
	}
}
