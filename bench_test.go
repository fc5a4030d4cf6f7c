// Benchmarks regenerating every table and figure of the paper's evaluation
// (Section 5), plus ablations of the design choices called out in DESIGN.md.
//
// Run all of them with:
//
//	go test -bench=. -benchmem
//
// Dataset sizes are scaled down from the paper's (6M-row LINEITEM, 5-hour
// timeout, 12-core Xeon) so the whole suite finishes in minutes on one
// machine; EXPERIMENTS.md records how the measured shapes compare to the
// published ones. cmd/experiments runs the same workloads at adjustable
// scale and prints the paper-style tables.
package ocd

import (
	"sync"
	"testing"
	"time"

	"ocd/internal/approx"
	"ocd/internal/attr"
	"ocd/internal/bidir"
	"ocd/internal/core"
	"ocd/internal/datagen"
	"ocd/internal/entropy"
	"ocd/internal/fastod"
	"ocd/internal/fdtane"
	"ocd/internal/order"
	"ocd/internal/orderalg"
	"ocd/internal/relation"
	"ocd/internal/ucc"
)

// Bench-scale datasets, built once and shared across benchmarks.
var benchData = struct {
	once     sync.Once
	lineitem *relation.Relation // scaled from 6,001,215 rows
	dbtesma  *relation.Relation // scaled from 250,000 rows
	letter   *relation.Relation
	ncvoter  *relation.Relation
	flight   *relation.Relation
	hep      *relation.Relation
	horse    *relation.Relation
}{}

func load() {
	benchData.once.Do(func() {
		benchData.lineitem = datagen.LineItem(20_000)
		benchData.dbtesma = datagen.DBTesma(5_000)
		benchData.letter = datagen.Letter(20_000)
		benchData.ncvoter = datagen.NCVoter1K()
		benchData.flight = datagen.Flight1K()
		benchData.hep = datagen.Hepatitis()
		benchData.horse = datagen.Horse()
	})
}

// guard keeps the blow-up datasets bounded inside benchmarks.
func guard() core.Options {
	return core.Options{Timeout: 10 * time.Second, MaxCandidates: 500_000}
}

// ---------------------------------------------------------------- Table 6

// BenchmarkTable6 measures every Table 6 dataset under every algorithm:
// OCDDISCOVER, ORDER, FASTOD and TANE (the |Fd| column).
func BenchmarkTable6(b *testing.B) {
	load()
	datasets := []struct {
		name string
		rel  *relation.Relation
	}{
		{"DBTESMA", benchData.dbtesma},
		{"HEPATITIS", benchData.hep},
		{"HORSE", benchData.horse},
		{"LETTER", benchData.letter},
		{"LINEITEM", benchData.lineitem},
		{"NCVOTER_1K", benchData.ncvoter},
		{"YES", datagen.Yes()},
		{"NO", datagen.No()},
	}
	for _, d := range datasets {
		b.Run("ocddiscover/"+d.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res := core.Discover(d.rel, guard())
				if res == nil {
					b.Fatal("nil result")
				}
			}
		})
		b.Run("order/"+d.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				orderalg.Discover(d.rel, orderalg.Options{
					Timeout: 10 * time.Second, MaxCandidates: 500_000,
				})
			}
		})
		if d.rel.NumCols() <= 30 {
			b.Run("fastod/"+d.name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					fastod.Discover(d.rel, fastod.Options{Timeout: 10 * time.Second})
				}
			})
			b.Run("tane/"+d.name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					fdtane.DiscoverWithOptions(d.rel, fdtane.Options{Timeout: 10 * time.Second})
				}
			})
		}
	}
}

// BenchmarkTable6_Flight runs the 109-column FLIGHT_1K under a guard of 5 s
// and 200,000 candidates, which truncates it early in the traversal, so it
// times the first levels only. The paper's run timed out; an uncapped run
// on 2 workers now finishes, in 7–8 s with under 0.75 GB of heap on a
// 2-core x86-64 VM (EXPERIMENTS.md, Table 6 claim 2).
func BenchmarkTable6_Flight(b *testing.B) {
	load()
	opts := core.Options{Timeout: 5 * time.Second, MaxCandidates: 200_000}
	for i := 0; i < b.N; i++ {
		core.Discover(benchData.flight, opts)
	}
}

// ---------------------------------------------------------------- Table 7

// BenchmarkTable7_Numbers runs the three algorithms over the NUMBERS
// dataset of the §5.2.2 correctness discussion.
func BenchmarkTable7_Numbers(b *testing.B) {
	r := datagen.Numbers()
	for i := 0; i < b.N; i++ {
		core.Discover(r, core.Options{})
		orderalg.Discover(r, orderalg.Options{})
		fastod.Discover(r, fastod.Options{})
	}
}

// --------------------------------------------------------------- Figure 2

// BenchmarkFig2_RowScalability measures OCDDISCOVER at increasing row
// fractions of LINEITEM and the 20-column NCVOTER sample; the paper's
// expected shape is near-linear in rows.
func BenchmarkFig2_RowScalability(b *testing.B) {
	load()
	nv := datagen.NCVoter(5_000, 94)
	cols := make([]attr.ID, 20)
	for i := range cols {
		cols[i] = attr.ID(i * 4 % 94)
	}
	nv20 := nv.Project(cols)
	for _, base := range []*relation.Relation{benchData.lineitem, nv20} {
		for pct := 25; pct <= 100; pct += 25 {
			sub := base.HeadRows(base.NumRows() * pct / 100)
			b.Run(base.Name+"/"+itoa(pct)+"pct", func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					core.Discover(sub, guard())
				}
			})
		}
	}
}

// ------------------------------------------------------------ Figures 3/4

// BenchmarkFig3_ColumnsHepatitis sweeps column-count prefixes of HEPATITIS.
func BenchmarkFig3_ColumnsHepatitis(b *testing.B) {
	load()
	benchColumns(b, benchData.hep, []int{5, 10, 15, 20})
}

// BenchmarkFig4_ColumnsHorse sweeps column-count prefixes of HORSE.
func BenchmarkFig4_ColumnsHorse(b *testing.B) {
	load()
	benchColumns(b, benchData.horse, []int{5, 10, 20, 29})
}

func benchColumns(b *testing.B, base *relation.Relation, sizes []int) {
	for _, nc := range sizes {
		if nc > base.NumCols() {
			continue
		}
		cols := make([]attr.ID, nc)
		for i := range cols {
			cols[i] = attr.ID(i)
		}
		sub := base.Project(cols)
		b.Run(itoa(nc)+"cols", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				core.Discover(sub, guard())
			}
		})
	}
}

// --------------------------------------------------------------- Figure 5

// BenchmarkFig5_QuasiConstant isolates the Figure 5 observation: adding one
// quasi-constant column (HORSE's near-constant flag h28) to an otherwise
// fixed working set multiplies the work.
func BenchmarkFig5_QuasiConstant(b *testing.B) {
	load()
	horse := benchData.horse
	withoutQC := make([]attr.ID, 0, 12)
	for c := 0; len(withoutQC) < 12; c++ {
		if c != 27 { // h28 is the quasi-constant flag
			withoutQC = append(withoutQC, attr.ID(c))
		}
	}
	withQC := append(append([]attr.ID(nil), withoutQC...), attr.ID(27))
	b.Run("without", func(b *testing.B) {
		sub := horse.Project(withoutQC)
		for i := 0; i < b.N; i++ {
			core.Discover(sub, guard())
		}
	})
	b.Run("with", func(b *testing.B) {
		sub := horse.Project(withQC)
		for i := 0; i < b.N; i++ {
			core.Discover(sub, guard())
		}
	})
}

// ----------------------------------------------------- Figure 6 / Table 8

// BenchmarkFig6_Threads sweeps the worker count on the three Figure 6
// datasets plus HEPATITIS, the lattice-heavy case where per-check cost is
// smallest and level barriers weigh most (see EXPERIMENTS.md).
func BenchmarkFig6_Threads(b *testing.B) {
	load()
	for _, d := range []struct {
		name string
		rel  *relation.Relation
	}{
		{"LETTER", benchData.letter},
		{"LINEITEM", benchData.lineitem},
		{"DBTESMA", benchData.dbtesma},
		{"HEPATITIS", benchData.hep},
	} {
		for _, workers := range []int{1, 2, 4, 8} {
			opts := guard()
			opts.Workers = workers
			b.Run(d.name+"/workers"+itoa(workers), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					core.Discover(d.rel, opts)
				}
			})
		}
	}
}

// --------------------------------------------------------------- Figure 7

// BenchmarkFig7_EntropyOrdered adds FLIGHT columns most-diverse-first; the
// low-entropy tail is where the paper's cliff lives.
func BenchmarkFig7_EntropyOrdered(b *testing.B) {
	load()
	ranked := entropy.Rank(benchData.flight)
	for _, nc := range []int{10, 30, 45, 50} {
		cols := make([]attr.ID, nc)
		for i := 0; i < nc; i++ {
			cols[i] = ranked[i].Col
		}
		sub := benchData.flight.Project(cols)
		b.Run(itoa(nc)+"cols", func(b *testing.B) {
			opts := core.Options{Timeout: 5 * time.Second, MaxCandidates: 100_000}
			for i := 0; i < b.N; i++ {
				core.Discover(sub, opts)
			}
		})
	}
}

// -------------------------------------------------------------- Ablations

// BenchmarkAblation_IndexCache measures the rank-vector cache: from level 3
// on, a candidate's lists extend its parent's, whose vectors are cached.
func BenchmarkAblation_IndexCache(b *testing.B) {
	load()
	for _, cache := range []struct {
		name string
		size int
	}{{"off", -1}, {"on64", 64}} {
		size := cache.size
		if size < 0 {
			size = 1 // effectively off: evicted immediately
		}
		b.Run(cache.name, func(b *testing.B) {
			opts := guard()
			opts.IndexCacheSize = size
			for i := 0; i < b.N; i++ {
				core.Discover(benchData.ncvoter, opts)
			}
		})
	}
}

// BenchmarkAblation_ColumnReduction measures Section 4.1's reduction phase:
// with it disabled, equivalent and constant columns re-enter the lattice.
func BenchmarkAblation_ColumnReduction(b *testing.B) {
	load()
	for _, mode := range []struct {
		name    string
		disable bool
	}{{"on", false}, {"off", true}} {
		b.Run(mode.name, func(b *testing.B) {
			opts := guard()
			opts.DisableColumnReduction = mode.disable
			for i := 0; i < b.N; i++ {
				core.Discover(benchData.ncvoter, opts)
			}
		})
	}
}

// BenchmarkAblation_CheckPrimitives compares the two checking primitives on
// a large relation: the early-exit OCD check versus the exhaustive
// classifying check.
func BenchmarkAblation_CheckPrimitives(b *testing.B) {
	load()
	chk := order.NewChecker(benchData.lineitem, 0)
	x := attr.NewList(4) // quantity
	y := attr.NewList(5) // extendedprice
	b.Run("CheckOCD", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			chk.CheckOCD(x, y)
		}
	})
	b.Run("CheckODFull", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			chk.CheckODFull(x, y)
		}
	})
	b.Run("SortedIndex", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			chk.SortedIndex(x)
		}
	})
}

// BenchmarkQueryOptimizer measures the §1 ORDER BY rewrite on LINEITEM.
func BenchmarkQueryOptimizer(b *testing.B) {
	load()
	tbl := fromRelation(benchData.lineitem)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tbl.SimplifyOrderBy("orderkey", "linenumber", "quantity"); err != nil {
			b.Fatal(err)
		}
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

// ------------------------------------------------------------- Extensions

// BenchmarkExtension_Bidirectional measures the bidirectional variant
// against the unidirectional core on the same relation. Both run core's
// level loop, the bidirectional one over the columns and their reversed
// twins, so its candidate space is larger by the per-attribute polarity
// choices.
func BenchmarkExtension_Bidirectional(b *testing.B) {
	load()
	b.Run("unidirectional", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			core.Discover(benchData.ncvoter, guard())
		}
	})
	b.Run("bidirectional", func(b *testing.B) {
		opts := bidir.Options{Timeout: 10 * time.Second, MaxCandidates: 500_000}
		for i := 0; i < b.N; i++ {
			if _, err := bidir.DiscoverOCDs(benchData.ncvoter, opts); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkExtension_ApproxError measures the O(m log m) approximate-OD
// error computation on LINEITEM.
func BenchmarkExtension_ApproxError(b *testing.B) {
	load()
	c := approx.NewChecker(benchData.lineitem)
	x, y := attr.NewList(0), attr.NewList(10) // orderkey → shipdate
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Error(x, y)
	}
}

// BenchmarkExtension_UCC measures minimal unique-column-combination
// discovery on NCVOTER_1K.
func BenchmarkExtension_UCC(b *testing.B) {
	load()
	for i := 0; i < b.N; i++ {
		ucc.Discover(benchData.ncvoter, ucc.Options{Timeout: 10 * time.Second})
	}
}

// BenchmarkStreamAppend measures the incremental engine behind Stream
// against a fresh discovery. On each of the HEPATITIS and HORSE
// replicas it appends a batch of duplicated existing rows: a duplicate
// kills no dependency, so the append only revalidates the tracked set.
// "append" times Stream.AppendRows, which also re-encodes every row of
// the grown table; "discover" times Table.Discover on the same grown
// table, built outside the timer, and "encode" times building that
// table alone. append and discover report the order checks they spent.
func BenchmarkStreamAppend(b *testing.B) {
	load()
	const batch = 32
	for _, ds := range []struct {
		name string
		rel  *relation.Relation
	}{
		{"HEPATITIS", benchData.hep},
		{"HORSE", benchData.horse},
	} {
		rows := make([][]string, ds.rel.NumRows())
		for i := range rows {
			rows[i] = ds.rel.Row(i)
		}
		dups := rows[:batch]
		grown := append(append([][]string(nil), rows...), dups...)
		opts := Options{Workers: 1}

		b.Run(ds.name+"/append", func(b *testing.B) {
			var checks int64
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				s, err := NewStream(ds.name, ds.rel.ColNames, rows, opts)
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				rep, err := s.AppendRows(dups)
				if err != nil {
					b.Fatal(err)
				}
				if len(rep.DiedOCDs)+len(rep.DiedODs)+len(rep.BrokenConstants)+len(rep.BrokenGroups) != 0 {
					b.Fatalf("duplicated rows falsified a tracked fact: %+v", rep)
				}
				checks += rep.Checks
			}
			b.ReportMetric(float64(checks)/float64(b.N), "checks/op")
		})
		b.Run(ds.name+"/encode", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := NewTable(ds.name, ds.rel.ColNames, grown); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(ds.name+"/discover", func(b *testing.B) {
			t, err := NewTable(ds.name, ds.rel.ColNames, grown)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			var checks int64
			for i := 0; i < b.N; i++ {
				res, err := t.Discover(opts)
				if err != nil {
					b.Fatal(err)
				}
				checks += res.Stats.Checks
			}
			b.ReportMetric(float64(checks)/float64(b.N), "checks/op")
		})
	}
}
