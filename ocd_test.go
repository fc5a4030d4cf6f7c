package ocd

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"ocd/internal/core"
	"ocd/internal/datagen"
)

func taxCSV() string {
	return `name,income,savings,bracket,tax
T. Green,35000,3000,1,5250
J. Smith,40000,4000,1,6000
J. Doe,40000,3800,1,6000
S. Black,55000,6500,2,8500
W. White,60000,6500,2,9500
M. Darrel,80000,10000,3,14000
`
}

func loadTax(t *testing.T) *Table {
	t.Helper()
	tbl, err := LoadCSV(strings.NewReader(taxCSV()), "taxinfo")
	if err != nil {
		t.Fatal(err)
	}
	return tbl
}

func TestLoadCSVAndSchema(t *testing.T) {
	tbl := loadTax(t)
	if tbl.Name() != "taxinfo" || tbl.NumRows() != 6 || tbl.NumCols() != 5 {
		t.Fatalf("shape: %s %dx%d", tbl.Name(), tbl.NumRows(), tbl.NumCols())
	}
	cols := tbl.Columns()
	if cols[0] != "name" || cols[4] != "tax" {
		t.Errorf("Columns = %v", cols)
	}
	if typ, _ := tbl.ColumnType("income"); typ != "INTEGER" {
		t.Errorf("income type = %s", typ)
	}
	if typ, _ := tbl.ColumnType("name"); typ != "TEXT" {
		t.Errorf("name type = %s", typ)
	}
	if _, err := tbl.ColumnType("nope"); err == nil {
		t.Error("unknown column should error")
	}
}

func TestLoadCSVFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "tax.csv")
	if err := os.WriteFile(path, []byte(taxCSV()), 0o644); err != nil {
		t.Fatal(err)
	}
	tbl, err := LoadCSVFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if tbl.Name() != "tax" || tbl.NumRows() != 6 {
		t.Errorf("file load: %s, %d rows", tbl.Name(), tbl.NumRows())
	}
	if _, err := LoadCSVFile(filepath.Join(dir, "missing.csv")); err == nil {
		t.Error("missing file should error")
	}
}

func TestDiscoverTax(t *testing.T) {
	tbl := loadTax(t)
	res, err := tbl.Discover(Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	// income ↔ tax as an equivalence group
	if len(res.EquivalentGroups) != 1 {
		t.Fatalf("EquivalentGroups = %v", res.EquivalentGroups)
	}
	g := res.EquivalentGroups[0]
	if g[0] != "income" || g[1] != "tax" {
		t.Errorf("group = %v", g)
	}
	// income ~ savings must be among the OCDs
	found := false
	for _, d := range res.OCDs {
		if d.String() == "[income] ~ [savings]" {
			found = true
		}
	}
	if !found {
		t.Errorf("missing [income] ~ [savings]; OCDs = %v", res.OCDs)
	}
	if res.CountODs() <= 0 {
		t.Error("CountODs should be positive")
	}
	if n := int64(len(res.ExpandODs(0))); n != res.CountODs() {
		t.Errorf("ExpandODs (%d) disagrees with CountODs (%d)", n, res.CountODs())
	}
	if !strings.Contains(res.Summary(), "OCDs") {
		t.Error("Summary should mention OCDs")
	}
}

// TestResultListsDoNotAlias: the result's name lists share one backing
// slice, each capacity-limited, so appending to one list leaves every
// other list as it was.
func TestResultListsDoNotAlias(t *testing.T) {
	res, err := loadTax(t).Discover(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.OCDs) < 2 {
		t.Fatalf("want at least two OCDs, got %v", res.OCDs)
	}
	var want []string
	for _, d := range res.OCDs {
		want = append(want, d.String())
	}
	for _, g := range res.EquivalentGroups {
		want = append(want, strings.Join(g, ","))
	}
	for i := range res.OCDs {
		res.OCDs[i].Left = append(res.OCDs[i].Left, "appended")
		res.OCDs[i].Right = append(res.OCDs[i].Right, "appended")
		if i+1 < len(res.OCDs) {
			if got := res.OCDs[i+1].String(); got != want[i+1] {
				t.Fatalf("after appending to OCD %d, OCD %d reads %s, want %s", i, i+1, got, want[i+1])
			}
		}
	}
	for k, g := range res.EquivalentGroups {
		if got := strings.Join(g, ","); got != want[len(res.OCDs)+k] {
			t.Fatalf("group %d reads %s after appends to the OCDs, want %s", k, got, want[len(res.OCDs)+k])
		}
	}
}

func TestDiscoverColumnsSubset(t *testing.T) {
	tbl := loadTax(t)
	res, err := tbl.Discover(Options{Workers: 1, Columns: []string{"income", "savings"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.OCDs) != 1 || res.OCDs[0].String() != "[income] ~ [savings]" {
		t.Errorf("OCDs = %v", res.OCDs)
	}
	if _, err := tbl.Discover(Options{Columns: []string{"bogus"}}); err == nil {
		t.Error("bogus column should error")
	}
}

func TestDiscoverNilTable(t *testing.T) {
	var tbl *Table
	if _, err := tbl.Discover(Options{}); err == nil {
		t.Error("nil table should error")
	}
}

func TestProjectAndHead(t *testing.T) {
	tbl := loadTax(t)
	p, err := tbl.Project("tax", "income")
	if err != nil {
		t.Fatal(err)
	}
	if p.NumCols() != 2 || p.Columns()[0] != "tax" {
		t.Errorf("Project = %v", p.Columns())
	}
	if _, err := tbl.Project("nope"); err == nil {
		t.Error("Project with unknown column should error")
	}
	h := tbl.Head(2)
	if h.NumRows() != 2 {
		t.Errorf("Head rows = %d", h.NumRows())
	}
}

func TestEntropyAPI(t *testing.T) {
	tbl := loadTax(t)
	hName, err := tbl.Entropy("name")
	if err != nil {
		t.Fatal(err)
	}
	hBracket, _ := tbl.Entropy("bracket")
	if hName <= hBracket {
		t.Errorf("name (key) should out-rank bracket: %v vs %v", hName, hBracket)
	}
	top := tbl.TopEntropyColumns(2)
	if len(top) != 2 {
		t.Fatalf("TopEntropyColumns = %v", top)
	}
	if _, err := tbl.Entropy("nope"); err == nil {
		t.Error("unknown column should error")
	}
}

func TestSimplifyOrderBy(t *testing.T) {
	tbl := loadTax(t)
	got, err := tbl.SimplifyOrderBy("income", "bracket", "tax")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0] != "income" {
		t.Errorf("SimplifyOrderBy = %v, want [income]", got)
	}
	if _, err := tbl.SimplifyOrderBy("nope"); err == nil {
		t.Error("unknown column should error")
	}
}

func TestNewTableAndOptions(t *testing.T) {
	tbl, err := NewTable("t", []string{"a", "b"}, [][]string{{"9", "x"}, {"10", "y"}})
	if err != nil {
		t.Fatal(err)
	}
	if typ, _ := tbl.ColumnType("a"); typ != "INTEGER" {
		t.Error("inference should type a as INTEGER")
	}
	forced, err := NewTable("t", []string{"a", "b"}, [][]string{{"9", "x"}, {"10", "y"}}, ForceString())
	if err != nil {
		t.Fatal(err)
	}
	if typ, _ := forced.ColumnType("a"); typ != "TEXT" {
		t.Error("ForceString should type a as TEXT")
	}
}

func TestLoadOptions(t *testing.T) {
	src := "1;N/A\n2;x\n"
	tbl, err := LoadCSV(strings.NewReader(src), "t", Delimiter(';'), NoHeader(), NullTokens("N/A"))
	if err != nil {
		t.Fatal(err)
	}
	if tbl.NumCols() != 2 || tbl.NumRows() != 2 {
		t.Fatalf("shape %dx%d", tbl.NumRows(), tbl.NumCols())
	}
	cols := tbl.Columns()
	if cols[0] != "A" || cols[1] != "B" {
		t.Errorf("NoHeader names = %v", cols)
	}
}

func TestDiscoverWithTimeoutAndLimits(t *testing.T) {
	tbl := fromRelation(datagen.Flight(200, 40))
	res, err := tbl.Discover(Options{Workers: 4, Timeout: 50 * time.Millisecond, MaxCandidates: 2000})
	if err != nil {
		t.Fatal(err)
	}
	_ = res // the run may or may not truncate; it must simply terminate fast
}

func TestDiscoverOnGeneratedDatasets(t *testing.T) {
	for _, tc := range []struct {
		tbl      *Table
		wantOCDs int
	}{
		{fromRelation(datagen.Yes()), 1},
		{fromRelation(datagen.No()), 0},
	} {
		res, err := tc.tbl.Discover(Options{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.OCDs) != tc.wantOCDs {
			t.Errorf("%s: OCDs = %d, want %d", tc.tbl.Name(), len(res.OCDs), tc.wantOCDs)
		}
	}
}

// TestForceStringDiscovery covers the lexicographic mode of §5.2.2: under
// ForceString, numeric columns order as strings ("10" < "9"), changing
// which dependencies hold.
func TestForceStringDiscovery(t *testing.T) {
	rows := [][]string{{"9", "9"}, {"10", "10"}, {"11", "11"}}
	nat, err := NewTable("n", []string{"a", "b"}, rows)
	if err != nil {
		t.Fatal(err)
	}
	lex, err := NewTable("l", []string{"a", "b"}, rows, ForceString())
	if err != nil {
		t.Fatal(err)
	}
	// both orders keep a and b aligned: equivalence group in both modes
	nres, _ := nat.Discover(Options{Workers: 1})
	lres, _ := lex.Discover(Options{Workers: 1})
	if len(nres.EquivalentGroups) != 1 || len(lres.EquivalentGroups) != 1 {
		t.Fatalf("a ↔ b expected in both modes: %v / %v", nres.EquivalentGroups, lres.EquivalentGroups)
	}
	// but a column aligned with natural order only loses its dependency
	rows2 := [][]string{{"9", "1"}, {"10", "2"}, {"11", "3"}}
	nat2, _ := NewTable("n2", []string{"a", "b"}, rows2)
	lex2, _ := NewTable("l2", []string{"a", "b"}, rows2, ForceString())
	nres2, _ := nat2.Discover(Options{Workers: 1})
	lres2, _ := lex2.Discover(Options{Workers: 1})
	if len(nres2.EquivalentGroups) != 1 {
		t.Error("natural order: a ↔ b should hold")
	}
	if len(lres2.EquivalentGroups) != 0 {
		t.Error("lexicographic order: \"10\" < \"9\" must break a ↔ b")
	}
}

// TestSimplifyOrderByRepeatedAttrs covers the paper's multi-column-index
// motivation: an index over (income, savings) can serve ORDER BY savings
// when [income, savings] → [savings] trivially and income ~ savings holds.
func TestSimplifyOrderByRepeatedAttrs(t *testing.T) {
	tbl := loadTax(t)
	// income, savings, income: the duplicate income collapses (AX3)
	got, err := tbl.SimplifyOrderBy("income", "savings", "income")
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(got); i++ {
		if got[i] == got[0] {
			t.Errorf("duplicate column survived: %v", got)
		}
	}
}

// TestMemoryBudgetTruncatesToSubset: a 1-byte budget trips at the first
// level barrier; the run releases its caches, finds the heap still over
// budget and truncates with the typed memory-budget reason. What it did
// report is validated work: every dependency also appears in the
// unconstrained run.
func TestMemoryBudgetTruncatesToSubset(t *testing.T) {
	tbl := loadTax(t)
	want, err := tbl.Discover(Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	got, err := tbl.Discover(Options{Workers: 2, MaxMemoryBytes: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got.Stats.TruncateReason != TruncateMemoryBudget || got.Stats.MemoryReleases < 1 {
		t.Fatalf("truncate reason %q after %d releases, want %q after at least one",
			got.Stats.TruncateReason, got.Stats.MemoryReleases, TruncateMemoryBudget)
	}
	// Column reduction (TAXINFO has one equivalence group) ends before the
	// first barrier, so its output is complete even in a truncated run.
	if len(want.EquivalentGroups) == 0 || fmt.Sprint(got.ConstantColumns, got.EquivalentGroups) != fmt.Sprint(want.ConstantColumns, want.EquivalentGroups) {
		t.Errorf("reduction output %v %v, want %v %v",
			got.ConstantColumns, got.EquivalentGroups, want.ConstantColumns, want.EquivalentGroups)
	}
	baseline := map[string]bool{}
	for _, d := range want.OCDs {
		baseline[d.String()] = true
	}
	for _, d := range want.ODs {
		baseline[d.String()] = true
	}
	for _, d := range got.OCDs {
		if !baseline[d.String()] {
			t.Errorf("budgeted run reports %s, absent from the unconstrained run", d)
		}
	}
	for _, d := range got.ODs {
		if !baseline[d.String()] {
			t.Errorf("budgeted run reports %s, absent from the unconstrained run", d)
		}
	}
}

// TestTruncateReasonsMatchCore requires every core truncate reason to reach
// the Result as the root constant of the same meaning. A core reason past
// the last listed one must have no name, so a new one fails here until it
// is listed.
func TestTruncateReasonsMatchCore(t *testing.T) {
	tbl := loadTax(t)
	want := []TruncateReason{TruncateNone, TruncateTimeout, TruncateCandidateCap, TruncateLevelCap,
		TruncateCancelled, TruncateMemoryBudget, TruncateWorkerPanic}
	for i, w := range want {
		r := core.TruncateReason(i)
		if got := tbl.wrapResult(&core.Result{Stats: core.Stats{Reason: r}}).Stats.TruncateReason; got != w {
			t.Errorf("core reason %d maps to %q, want %q", i, got, w)
		}
	}
	if name := core.TruncateReason(len(want)).String(); name != "" {
		t.Errorf("core reason %q has no root constant", name)
	}
}

// TestResultDocEmptyLists requires a run that finds no dependency to encode
// its OCD and OD lists as [], not null.
func TestResultDocEmptyLists(t *testing.T) {
	tbl, err := NewTable("swap", []string{"a", "b"}, [][]string{{"1", "2"}, {"2", "1"}})
	if err != nil {
		t.Fatal(err)
	}
	res, err := tbl.Discover(Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(NewResultDoc(tbl, res, 0))
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{`"ocds":[]`, `"ods":[]`, `"name":"swap"`, `"levels":1`, `"prunes":1`} {
		if !strings.Contains(string(b), key) {
			t.Errorf("document lacks %s: %s", key, b)
		}
	}
}
