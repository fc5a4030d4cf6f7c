package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"time"

	"ocd/internal/attr"
	"ocd/internal/datagen"
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

func taxTable() *relation.Relation {
	return relation.FromInts("taxinfo", []string{"income", "savings", "bracket", "tax"}, [][]int{
		{35000, 3000, 1, 5250},
		{40000, 4000, 1, 6000},
		{40000, 3800, 1, 6000},
		{55000, 6500, 2, 8500},
		{60000, 6500, 2, 9500},
		{80000, 10000, 3, 14000},
	})
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

// numbersTable is the NUMBERS dataset of Table 7, on which a buggy FASTOD
// reported spurious ODs such as [B] → [A,C].
func numbersTable() *relation.Relation {
	return relation.FromInts("NUMBERS", []string{"A", "B", "C", "D"}, [][]int{
		{1, 3, 1, 1},
		{2, 3, 2, 2},
		{3, 2, 2, 2},
		{3, 1, 2, 3},
		{4, 4, 2, 4},
		{4, 5, 3, 2},
	})
}

func hasOCD(res *Result, x, y attr.List) bool {
	want := attr.NewPair(x, y).UnorderedKey()
	for _, d := range res.OCDs {
		if attr.NewPair(d.X, d.Y).UnorderedKey() == want {
			return true
		}
	}
	return false
}

func hasOD(res *Result, x, y attr.List) bool {
	for _, d := range res.ODs {
		if d.X.Equal(x) && d.Y.Equal(y) {
			return true
		}
	}
	return false
}

func TestDiscoverTaxTable(t *testing.T) {
	res := Discover(taxTable(), Options{Workers: 1})
	// income ↔ tax is an order-equivalence class; tax (3) collapses into
	// income (0).
	if len(res.EquivClasses) != 1 || len(res.EquivClasses[0]) != 2 ||
		res.EquivClasses[0][0] != 0 || res.EquivClasses[0][1] != 3 {
		t.Fatalf("EquivClasses = %v", res.EquivClasses)
	}
	if len(res.Constants) != 0 {
		t.Errorf("Constants = %v", res.Constants)
	}
	// §1's motivating OCD: income ~ savings.
	if !hasOCD(res, ids(0), ids(1)) {
		t.Error("missing income ~ savings")
	}
	// ODs found during traversal: income → bracket, savings → bracket.
	if !hasOD(res, ids(0), ids(2)) {
		t.Error("missing OD income → bracket")
	}
	if !hasOD(res, ids(1), ids(2)) {
		t.Error("missing OD savings → bracket")
	}
	if len(res.ODs) != 2 {
		t.Errorf("ODs = %d, want 2: %v", len(res.ODs), res.ODs)
	}
	if len(res.OCDs) != 7 {
		t.Errorf("OCDs = %d, want 7: %v", len(res.OCDs), res.OCDs)
	}
}

func TestDiscoverYesNo(t *testing.T) {
	yes := Discover(yesTable(), Options{Workers: 1})
	if len(yes.OCDs) != 1 || !hasOCD(yes, ids(0), ids(1)) {
		t.Errorf("YES: OCDs = %v, want exactly A ~ B", yes.OCDs)
	}
	if len(yes.ODs) != 0 {
		t.Errorf("YES: ODs = %v, want none", yes.ODs)
	}
	no := Discover(noTable(), Options{Workers: 1})
	if len(no.OCDs) != 0 || len(no.ODs) != 0 {
		t.Errorf("NO: OCDs = %v ODs = %v, want none", no.OCDs, no.ODs)
	}
	// ORDER's claimed incompleteness: the OD AB → B holds on YES and is
	// recovered from the OCD by Theorem 3.8 in the expansion.
	exp := yes.ExpandedODs(0)
	found := false
	for _, d := range exp {
		if d.X.Equal(ids(0, 1)) && d.Y.Equal(ids(1, 0)) {
			found = true
		}
	}
	if !found {
		t.Errorf("expansion of YES lacks AB → BA: %v", exp)
	}
}

func TestDiscoverNumbersNoSpuriousODs(t *testing.T) {
	r := numbersTable()
	res := Discover(r, Options{Workers: 1})
	// The OD [B] → [A,C] that a buggy FASTOD reported must not be emitted
	// and must not hold on the data.
	chk := order.NewChecker(r, 4)
	if chk.CheckOD(ids(1), ids(0, 2)) {
		t.Fatal("B → AC holds on NUMBERS?! dataset transcription wrong")
	}
	for _, d := range res.ExpandedODs(0) {
		if d.X.Equal(ids(1)) && d.Y.Equal(ids(0, 2)) {
			t.Error("spurious OD B → AC emitted")
		}
		// Every expanded OD must hold on the instance (soundness).
		if !chk.CheckOD(d.X, d.Y) {
			t.Errorf("expanded OD %v → %v does not hold on NUMBERS", d.X, d.Y)
		}
	}
}

func TestConstantColumnHandling(t *testing.T) {
	r := relation.FromInts("c", []string{"A", "K1", "B", "K2"}, [][]int{
		{1, 7, 3, 0}, {2, 7, 2, 0}, {3, 7, 1, 0},
	})
	res := Discover(r, Options{Workers: 1})
	if len(res.Constants) != 2 || res.Constants[0] != 1 || res.Constants[1] != 3 {
		t.Fatalf("Constants = %v", res.Constants)
	}
	// Remaining columns A, B are strictly reversed: no OCD, no OD.
	if len(res.OCDs) != 0 || len(res.ODs) != 0 {
		t.Errorf("OCDs = %v, ODs = %v", res.OCDs, res.ODs)
	}
	// Expansion carries [] → K for each constant.
	exp := res.ExpandedODs(0)
	if len(exp) != 2 {
		t.Errorf("expanded = %v", exp)
	}
}

func TestAllEquivalentColumns(t *testing.T) {
	// Three pairwise order-equivalent columns: one class, no candidates.
	r := relation.FromInts("eq", []string{"A", "B", "C"}, [][]int{
		{1, 10, 100}, {2, 20, 200}, {3, 30, 300},
	})
	res := Discover(r, Options{Workers: 1})
	if len(res.EquivClasses) != 1 || len(res.EquivClasses[0]) != 3 {
		t.Fatalf("EquivClasses = %v", res.EquivClasses)
	}
	if len(res.OCDs) != 0 {
		t.Errorf("OCDs = %v", res.OCDs)
	}
	// Expansion: 3·2 = 6 pairwise ODs.
	if n := res.CountExpandedODs(); n != 6 {
		t.Errorf("CountExpandedODs = %d, want 6", n)
	}
}

func TestParallelMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 25; trial++ {
		r := randomRelation(rng, 3+rng.Intn(30), 2+rng.Intn(5), 1+rng.Intn(4))
		seq := Discover(r, Options{Workers: 1})
		par := Discover(r, Options{Workers: 8})
		if !sameOCDs(seq.OCDs, par.OCDs) {
			t.Fatalf("trial %d: parallel OCDs differ\nseq: %v\npar: %v", trial, seq.OCDs, par.OCDs)
		}
		if !sameODs(seq.ODs, par.ODs) {
			t.Fatalf("trial %d: parallel ODs differ", trial)
		}
		if seq.Stats.Candidates != par.Stats.Candidates {
			t.Fatalf("trial %d: candidate counts differ: %d vs %d", trial, seq.Stats.Candidates, par.Stats.Candidates)
		}
	}
}

func sameOCDs(a, b []OCD) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !a[i].X.Equal(b[i].X) || !a[i].Y.Equal(b[i].Y) {
			return false
		}
	}
	return true
}

func sameODs(a, b []OD) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !a[i].X.Equal(b[i].X) || !a[i].Y.Equal(b[i].Y) {
			return false
		}
	}
	return true
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

// TestSoundness: every emitted dependency holds on the instance.
func TestSoundnessOnRandomData(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	for trial := 0; trial < 40; trial++ {
		r := randomRelation(rng, 2+rng.Intn(25), 2+rng.Intn(5), 1+rng.Intn(5))
		res := Discover(r, Options{Workers: 2})
		chk := order.NewChecker(r, 16)
		for _, d := range res.OCDs {
			if !chk.CheckOCD(d.X, d.Y) {
				t.Fatalf("trial %d: emitted OCD %v ~ %v invalid", trial, d.X, d.Y)
			}
			if !d.X.Disjoint(d.Y) {
				t.Fatalf("trial %d: emitted OCD has repeated attributes", trial)
			}
		}
		for _, d := range res.ODs {
			if !chk.CheckOD(d.X, d.Y) {
				t.Fatalf("trial %d: emitted OD %v → %v invalid", trial, d.X, d.Y)
			}
		}
		for _, c := range res.Constants {
			if !r.IsConstant(c) {
				t.Fatalf("trial %d: column %d reported constant", trial, c)
			}
		}
		for _, class := range res.EquivClasses {
			for i := 1; i < len(class); i++ {
				if !chk.OrderEquivalent(attr.Singleton(class[0]), attr.Singleton(class[i])) {
					t.Fatalf("trial %d: class %v not order equivalent", trial, class)
				}
			}
		}
	}
}

// treeOracle recomputes, by memoized recursion on the candidate-tree
// semantics, the exact set of candidates Algorithm 1 must reach, and which
// of them are valid OCDs. It is an independent (sequential, recursive)
// re-derivation of the traversal contract used to validate the BFS engine.
type treeOracle struct {
	chk     *order.Checker
	reduced []attr.ID
	reached map[string]bool
	valid   map[string]bool // unordered keys of valid reachable OCDs
	ods     map[string]bool // ordered keys of ODs emitted
}

func newTreeOracle(r *relation.Relation) (*treeOracle, *reduction) {
	d := newDiscoverer(r, Options{Workers: 1, IndexCacheSize: 32})
	red := d.columnsReduction()
	o := &treeOracle{
		chk:     d.chk,
		reduced: red.reduced,
		reached: map[string]bool{},
		valid:   map[string]bool{},
		ods:     map[string]bool{},
	}
	for i := 0; i < len(o.reduced); i++ {
		for j := i + 1; j < len(o.reduced); j++ {
			o.visit(attr.NewPair(attr.Singleton(o.reduced[i]), attr.Singleton(o.reduced[j])))
		}
	}
	return o, red
}

func (o *treeOracle) visit(p attr.Pair) {
	k := p.UnorderedKey()
	if o.reached[k] {
		return
	}
	o.reached[k] = true
	if !o.chk.CheckOCD(p.X, p.Y) {
		return
	}
	o.valid[k] = true
	used := p.X.Set().Union(p.Y.Set())
	var free []attr.ID
	for _, a := range o.reduced {
		if !used.Has(a) {
			free = append(free, a)
		}
	}
	if o.chk.CheckOD(p.X, p.Y) {
		o.ods[p.Key()] = true
	} else {
		for _, a := range free {
			o.visit(attr.NewPair(p.X.Append(a), p.Y))
		}
	}
	if o.chk.CheckOD(p.Y, p.X) {
		o.ods[attr.NewPair(p.Y, p.X).Key()] = true
	} else {
		for _, a := range free {
			o.visit(attr.NewPair(p.X, p.Y.Append(a)))
		}
	}
}

// assertMatchesTreeOracle runs Discover on r at the given worker count,
// requires the oracle's OCDs, ODs and number of reached candidates, and
// returns the result. From level 4 on a child can have two parents, so the
// candidate count pins that the level barrier keeps exactly one copy of each.
func assertMatchesTreeOracle(t testing.TB, r *relation.Relation, oracle *treeOracle, workers int) *Result {
	t.Helper()
	res := Discover(r, Options{Workers: workers})
	got := map[string]bool{}
	for _, d := range res.OCDs {
		got[attr.NewPair(d.X, d.Y).UnorderedKey()] = true
	}
	if len(got) != len(oracle.valid) {
		t.Fatalf("workers %d: OCD count %d, oracle %d\ngot %v\noracle %v",
			workers, len(got), len(oracle.valid), got, oracle.valid)
	}
	for k := range oracle.valid {
		if !got[k] {
			t.Fatalf("workers %d: oracle OCD %q missing", workers, k)
		}
	}
	gotOD := map[string]bool{}
	for _, d := range res.ODs {
		gotOD[attr.NewPair(d.X, d.Y).Key()] = true
	}
	if len(gotOD) != len(oracle.ods) {
		t.Fatalf("workers %d: OD sets differ: %v vs %v", workers, gotOD, oracle.ods)
	}
	for k := range oracle.ods {
		if !gotOD[k] {
			t.Fatalf("workers %d: oracle OD %q missing", workers, k)
		}
	}
	if res.Stats.Candidates != int64(len(oracle.reached)) {
		t.Fatalf("workers %d: %d candidates, oracle reached %d", workers, res.Stats.Candidates, len(oracle.reached))
	}
	return res
}

func TestAgainstTreeOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 30; trial++ {
		r := randomRelation(rng, 2+rng.Intn(20), 4+rng.Intn(4), 2+rng.Intn(3))
		oracle, _ := newTreeOracle(r)
		for _, workers := range []int{1, 2, 3} {
			t.Run(fmt.Sprintf("trial%d/workers%d", trial, workers), func(t *testing.T) {
				assertMatchesTreeOracle(t, r, oracle, workers)
			})
		}
	}
}

// FuzzDiscoverMatchesTreeOracle decodes a relation of 1–7 columns, at most
// 16 rows and domains of 2–4 values, and requires Discover at 1 and 2
// workers to reach exactly the tree oracle's candidates, OCDs and ODs. A
// run capped at level 3 must then resume from its snapshot to the fresh
// result, so the frontier goes through the snapshot and back.
func FuzzDiscoverMatchesTreeOracle(f *testing.F) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 8; i++ {
		seed := make([]byte, 2+16*7)
		rng.Read(seed)
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		cols, domain := 1+int(data[0])%7, 2+int(data[1])%3
		cells := data[2:]
		rows := min(16, len(cells)/cols)
		table := make([][]int, rows)
		for i := range table {
			table[i] = make([]int, cols)
			for j := range table[i] {
				table[i][j] = int(cells[i*cols+j]) % domain
			}
		}
		r, err := relation.FromIntsErr("fuzz", nil, table)
		if err != nil {
			t.Skip(err)
		}
		oracle, _ := newTreeOracle(r)
		fresh := assertMatchesTreeOracle(t, r, oracle, 1)
		assertMatchesTreeOracle(t, r, oracle, 2)

		ckpt := filepath.Join(t.TempDir(), "run.ckpt")
		Discover(r, Options{Workers: 2, MaxLevel: 3, CheckpointPath: ckpt})
		resumed, err := DiscoverContext(context.Background(), r, Options{Workers: 1, Resume: loadSnapshot(t, ckpt)})
		if err != nil {
			t.Fatalf("resume: %v", err)
		}
		assertSameDiscovery(t, fresh, resumed)
	})
}

// TestTooWideRelation: attribute ids are 16 bits wide, so a relation of
// 65,536 columns fails at once with a *WidthError, before reduction runs
// a check or a snapshot is written.
func TestTooWideRelation(t *testing.T) {
	const cols = 1 << 16
	table := [][]int{make([]int, cols), make([]int, cols)}
	for j := range table[1] {
		table[1][j] = j % 2
	}
	r, err := relation.FromIntsErr("wide", nil, table)
	if err != nil {
		t.Fatal(err)
	}
	ckpt := filepath.Join(t.TempDir(), "run.ckpt")
	res, err := DiscoverContext(context.Background(), r, Options{Workers: 1, CheckpointPath: ckpt})
	var we *WidthError
	if !errors.As(err, &we) || we.Columns != cols {
		t.Fatalf("err = %v, want a *WidthError for %d columns", err, cols)
	}
	if res == nil || res.Stats.Checks != 0 || len(res.Constants) != 0 || res.Stats.Checkpoints != 0 {
		t.Fatalf("result = %+v, want an empty one", res)
	}
	if _, statErr := os.Stat(ckpt); !os.IsNotExist(statErr) {
		t.Errorf("the refused run left a snapshot (stat err: %v)", statErr)
	}
}

// TestDiscoverAllocsPerCandidate: a level is flat rows of ids, so a child
// costs no allocation of its own. On the HEPATITIS replica at one worker a
// run allocates fewer times than a quarter of its candidates.
func TestDiscoverAllocsPerCandidate(t *testing.T) {
	r := datagen.Hepatitis()
	var res *Result
	allocs := testing.AllocsPerRun(2, func() { res = Discover(r, Options{Workers: 1}) })
	if limit := float64(res.Stats.Candidates) / 4; allocs >= limit {
		t.Errorf("%.0f allocations for %d candidates, want fewer than %.0f", allocs, res.Stats.Candidates, limit)
	}
	t.Logf("%.0f allocations for %d candidates", allocs, res.Stats.Candidates)
}

func TestMaxLevelTruncates(t *testing.T) {
	r := taxTable()
	res := Discover(r, Options{Workers: 1, MaxLevel: 2})
	if !res.Stats.Truncated {
		t.Error("MaxLevel run should be marked truncated")
	}
	// Only level-2 OCDs survive: the three singleton pairs.
	for _, d := range res.OCDs {
		if len(d.X)+len(d.Y) != 2 {
			t.Errorf("OCD beyond level 2: %v ~ %v", d.X, d.Y)
		}
	}
	full := Discover(r, Options{Workers: 1})
	if full.Stats.Truncated {
		t.Error("full run must not be truncated")
	}
	if len(res.OCDs) >= len(full.OCDs) {
		t.Errorf("truncated run found %d OCDs, full %d", len(res.OCDs), len(full.OCDs))
	}
}

func TestTimeoutTruncates(t *testing.T) {
	// Columns i/d for pairwise-coprime d are all order compatible and
	// order no one another, so every candidate is valid and extends on
	// both sides: the tree is huge, and a zero-ish timeout must stop the
	// run promptly and flag truncation.
	divs := []int{2, 3, 5, 7, 11, 13, 17, 19, 23, 29}
	data := make([][]int, 300)
	for i := range data {
		row := make([]int, len(divs))
		for j, d := range divs {
			row[j] = i / d
		}
		data[i] = row
	}
	r := relation.FromInts("qc", nil, data)
	start := time.Now()
	res := Discover(r, Options{Workers: 2, Timeout: time.Millisecond})
	if !res.Stats.Truncated {
		t.Skip("relation too easy; discovery finished within the timeout")
	}
	if time.Since(start) > 5*time.Second {
		t.Error("timeout not honoured")
	}
}

func TestMaxCandidatesTruncates(t *testing.T) {
	r := relation.FromInts("qc", nil, [][]int{
		{0, 0, 1, 1}, {0, 1, 0, 1}, {1, 0, 0, 1}, {1, 1, 1, 0}, {0, 1, 1, 0},
	})
	res := Discover(r, Options{Workers: 1, MaxCandidates: 3})
	if !res.Stats.Truncated {
		t.Error("MaxCandidates run should be truncated")
	}
}

func TestColumnsSubset(t *testing.T) {
	r := taxTable()
	res := Discover(r, Options{Workers: 1, Columns: []attr.ID{0, 1}})
	// Only income and savings considered: the single OCD income ~ savings.
	if len(res.OCDs) != 1 || !hasOCD(res, ids(0), ids(1)) {
		t.Errorf("OCDs = %v", res.OCDs)
	}
	for _, d := range res.OCDs {
		for _, a := range append(d.X.Clone(), d.Y...) {
			if a > 1 {
				t.Errorf("dependency uses excluded column %d", a)
			}
		}
	}
}

func TestDisableColumnReduction(t *testing.T) {
	r := taxTable()
	on := Discover(r, Options{Workers: 1})
	off := Discover(r, Options{Workers: 1, DisableColumnReduction: true})
	if len(off.EquivClasses) != 0 || len(off.Constants) != 0 {
		t.Error("reduction disabled but reduction output non-empty")
	}
	// Without reduction the equivalent column tax stays in the lattice, so
	// at least as many OCDs must be found.
	if len(off.OCDs) < len(on.OCDs) {
		t.Errorf("reduction-off OCDs = %d < reduction-on %d", len(off.OCDs), len(on.OCDs))
	}
	// income ~ tax shows up as an explicit OD pair instead.
	if !hasOD(off, ids(0), ids(3)) || !hasOD(off, ids(3), ids(0)) {
		t.Error("income ↔ tax not found with reduction disabled")
	}
}

func TestStatsPopulated(t *testing.T) {
	res := Discover(taxTable(), Options{Workers: 1})
	if res.Stats.Checks == 0 || res.Stats.Candidates == 0 || res.Stats.Levels == 0 {
		t.Errorf("stats not populated: %+v", res.Stats)
	}
	if res.RelationName != "taxinfo" {
		t.Errorf("RelationName = %q", res.RelationName)
	}
	if res.NumOCDs() != len(res.OCDs) || res.NumODs() != len(res.ODs) {
		t.Error("count accessors inconsistent")
	}
}

func TestSingleAndZeroColumnRelations(t *testing.T) {
	one := relation.FromInts("one", []string{"A"}, [][]int{{1}, {2}})
	res := Discover(one, Options{Workers: 1})
	if len(res.OCDs) != 0 || len(res.ODs) != 0 {
		t.Error("single column should yield nothing")
	}
	empty := relation.FromInts("none", []string{"A", "B"}, nil)
	res = Discover(empty, Options{Workers: 1})
	// On an empty instance every column is constant.
	if len(res.Constants) != 2 {
		t.Errorf("Constants = %v", res.Constants)
	}
}

func TestExpandedCountMatchesMaterialization(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	for trial := 0; trial < 20; trial++ {
		r := randomRelation(rng, 3+rng.Intn(15), 2+rng.Intn(4), 1+rng.Intn(3))
		res := Discover(r, Options{Workers: 1})
		n := res.CountExpandedODs()
		mat := res.ExpandedODs(0)
		if int64(len(mat)) != n {
			t.Fatalf("trial %d: CountExpandedODs = %d but materialized %d", trial, n, len(mat))
		}
	}
}

func TestExpandLimit(t *testing.T) {
	res := Discover(taxTable(), Options{Workers: 1})
	if got := res.ExpandedODs(3); len(got) != 3 {
		t.Errorf("limit ignored: %d", len(got))
	}
}

func TestExpansionSubstitutesEquivalents(t *testing.T) {
	res := Discover(taxTable(), Options{Workers: 1})
	// income(0) ↔ tax(3); traversal found income → bracket, so expansion
	// must also contain tax → bracket by the Replace theorem.
	exp := res.ExpandedODs(0)
	found := false
	for _, d := range exp {
		if d.X.Equal(ids(3)) && d.Y.Equal(ids(2)) {
			found = true
		}
	}
	if !found {
		t.Error("expansion lacks tax → bracket")
	}
	// And all expanded dependencies must hold on the instance.
	chk := order.NewChecker(taxTable(), 16)
	for _, d := range exp {
		if !chk.CheckOD(d.X, d.Y) {
			t.Errorf("expanded OD %v → %v invalid", d.X, d.Y)
		}
	}
}

func TestDeterministicOutputOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	r := randomRelation(rng, 40, 5, 3)
	a := Discover(r, Options{Workers: 7})
	b := Discover(r, Options{Workers: 7})
	if !sameOCDs(a.OCDs, b.OCDs) || !sameODs(a.ODs, b.ODs) {
		t.Error("repeated runs produced different output order")
	}
}
