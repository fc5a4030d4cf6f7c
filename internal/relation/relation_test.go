package relation

import (
	"bytes"
	"math/rand"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"
	"testing/quick"

	"ocd/internal/attr"
)

func TestInferKind(t *testing.T) {
	nulls := Options{}.nullSet()
	cases := []struct {
		raw  []string
		want Kind
	}{
		{[]string{"1", "2", "-3"}, KindInt},
		{[]string{"1", "2.5"}, KindFloat},
		{[]string{"1e3", "2"}, KindFloat},
		{[]string{"1", "x"}, KindString},
		{[]string{"", "NULL", "?"}, KindString}, // all NULL → TEXT
		{[]string{"", "7"}, KindInt},            // NULLs ignored for inference
		{[]string{"9223372036854775807"}, KindInt},
		{[]string{"99999999999999999999"}, KindFloat}, // overflows int64
	}
	for _, c := range cases {
		if got := inferKind(c.raw, nulls); got != c.want {
			t.Errorf("inferKind(%v) = %v, want %v", c.raw, got, c.want)
		}
	}
}

func TestRankEncodingPreservesOrder(t *testing.T) {
	r, err := FromStrings("t", []string{"n"}, [][]string{
		{"10"}, {"2"}, {"2"}, {"-5"}, {""},
	}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	codes := r.Col(0)
	// Natural numeric order: NULL < -5 < 2 < 10.
	if !(codes[4] == NullCode && codes[3] < codes[1] && codes[1] < codes[0]) {
		t.Errorf("codes = %v", codes)
	}
	if codes[1] != codes[2] {
		t.Error("equal values got different codes")
	}
	if r.Distinct(0) != 3 {
		t.Errorf("Distinct = %d, want 3", r.Distinct(0))
	}
	if !r.HasNull(0) {
		t.Error("HasNull false")
	}
	if r.DistinctClasses(0) != 4 {
		t.Errorf("DistinctClasses = %d, want 4", r.DistinctClasses(0))
	}
}

func TestLexicographicVsNatural(t *testing.T) {
	rows := [][]string{{"9"}, {"10"}}
	nat, err := FromStrings("t", []string{"v"}, rows, Options{})
	if err != nil {
		t.Fatal(err)
	}
	lex, err := FromStrings("t", []string{"v"}, rows, Options{ForceString: true})
	if err != nil {
		t.Fatal(err)
	}
	if !(nat.Code(0, 0) < nat.Code(1, 0)) {
		t.Error("natural order: 9 should rank below 10")
	}
	if !(lex.Code(0, 0) > lex.Code(1, 0)) {
		t.Error("lexicographic order: \"10\" should rank below \"9\"")
	}
}

func TestNumericSpellingsMerge(t *testing.T) {
	r, err := FromStrings("t", []string{"v"}, [][]string{{"1"}, {"01"}, {"2"}}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Code(0, 0) != r.Code(1, 0) {
		t.Error("1 and 01 should share a code in an INTEGER column")
	}
	if r.Distinct(0) != 2 {
		t.Errorf("Distinct = %d, want 2", r.Distinct(0))
	}
}

func TestFloatSpellingsMerge(t *testing.T) {
	r, err := FromStrings("t", []string{"v"}, [][]string{{"1.50"}, {"1.5"}, {"2.5"}}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Kinds[0] != KindFloat {
		t.Fatalf("kind = %v", r.Kinds[0])
	}
	if r.Code(0, 0) != r.Code(1, 0) {
		t.Error("1.50 and 1.5 should share a code")
	}
}

func TestNullSemantics(t *testing.T) {
	r, err := FromStrings("t", []string{"a"}, [][]string{{"?"}, {"NULL"}, {""}, {"x"}}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// All three NULL spellings share code 0; NULL sorts first (lowest code).
	for i := 0; i < 3; i++ {
		if r.Code(i, 0) != NullCode {
			t.Errorf("row %d: code = %d, want NullCode", i, r.Code(i, 0))
		}
	}
	if r.Code(3, 0) <= NullCode {
		t.Error("non-NULL should rank after NULL")
	}
	if r.Value(0, 0) != "NULL" {
		t.Errorf("Value = %q", r.Value(0, 0))
	}
}

func TestCustomNullTokens(t *testing.T) {
	r, err := FromStrings("t", []string{"a"}, [][]string{{"N/A"}, {"x"}}, Options{NullTokens: []string{"N/A"}})
	if err != nil {
		t.Fatal(err)
	}
	if r.Code(0, 0) != NullCode {
		t.Error("custom NULL token not honoured")
	}
	// "?" is NOT null under custom tokens.
	r2, err := FromStrings("t", []string{"a"}, [][]string{{"?"}, {"x"}}, Options{NullTokens: []string{"N/A"}})
	if err != nil {
		t.Fatal(err)
	}
	if r2.Code(0, 0) == NullCode {
		t.Error("? treated as NULL despite custom token set")
	}
}

func TestConstantColumn(t *testing.T) {
	r := FromInts("t", []string{"A", "B"}, [][]int{{1, 1}, {1, 2}, {1, 3}})
	if !r.IsConstant(0) {
		t.Error("constant column not detected")
	}
	if r.IsConstant(1) {
		t.Error("varying column reported constant")
	}
	// All-NULL column is constant.
	rn, err := FromStrings("t", []string{"A"}, [][]string{{""}, {""}}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !rn.IsConstant(0) {
		t.Error("all-NULL column should be constant")
	}
	// Mixed NULL + one value is NOT constant (two classes).
	rm, _ := FromStrings("t", []string{"A"}, [][]string{{""}, {"x"}}, Options{})
	if rm.IsConstant(0) {
		t.Error("NULL + value column reported constant")
	}
}

func TestEmptyRelationIsConstant(t *testing.T) {
	r := FromInts("t", []string{"A"}, nil)
	if r.NumRows() != 0 || !r.IsConstant(0) {
		t.Error("empty relation should have constant columns")
	}
}

func TestRowMismatchError(t *testing.T) {
	_, err := FromStrings("t", []string{"A", "B"}, [][]string{{"1"}}, Options{})
	if err == nil {
		t.Fatal("expected field-count error")
	}
}

func TestProject(t *testing.T) {
	r := FromInts("t", []string{"A", "B", "C"}, [][]int{{1, 2, 3}, {4, 5, 6}})
	p := r.Project([]attr.ID{2, 0})
	if p.NumCols() != 2 || p.ColName(0) != "C" || p.ColName(1) != "A" {
		t.Fatalf("Project schema wrong: %v", p.ColNames)
	}
	if p.Value(1, 0) != "6" || p.Value(1, 1) != "4" {
		t.Error("Project values wrong")
	}
}

func TestHeadRowsRecounts(t *testing.T) {
	r := FromInts("t", []string{"A"}, [][]int{{1}, {1}, {9}})
	h := r.HeadRows(2)
	if h.NumRows() != 2 {
		t.Fatalf("NumRows = %d", h.NumRows())
	}
	if !h.IsConstant(0) {
		t.Error("head slice should be constant after recount")
	}
	if got := r.HeadRows(100).NumRows(); got != 3 {
		t.Errorf("HeadRows over-length = %d rows", got)
	}
}

func TestSelectRows(t *testing.T) {
	r := FromInts("t", []string{"A", "B"}, [][]int{{1, 10}, {2, 20}, {3, 30}})
	s := r.SelectRows([]int{2, 0})
	if s.NumRows() != 2 || s.Value(0, 0) != "3" || s.Value(1, 1) != "10" {
		t.Error("SelectRows wrong")
	}
}

// TestReversedTwins checks every twin against its column on row slices
// whose codes are sparse: the slices keep their parent's code space.
func TestReversedTwins(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 50; trial++ {
		nc, nr := 1+rng.Intn(4), 2+rng.Intn(20)
		rows := make([][]string, nr)
		for i := range rows {
			rows[i] = make([]string, nc)
			for c := range rows[i] {
				if v := rng.Intn(9); v > 0 {
					rows[i][c] = "v" + strconv.Itoa(v)
				}
			}
		}
		full, err := FromStrings("t", []string{"A", "B", "C", "D"}[:nc], rows, Options{})
		if err != nil {
			t.Fatal(err)
		}
		r := full.HeadRows(1 + rng.Intn(nr))
		if trial%2 == 1 {
			r = full.SelectRows(rng.Perm(nr)[:1+rng.Intn(nr)])
		}
		for a := range attr.ID(nc) {
			if r.Twin(a) != a {
				t.Fatalf("trial %d: Twin(%d) = %d without twins", trial, a, r.Twin(a))
			}
		}
		tw := r.WithReversedTwins()
		if tw.NumCols() != 2*nc || tw.NumRows() != r.NumRows() {
			t.Fatalf("trial %d: twin relation has %d cols, %d rows", trial, tw.NumCols(), tw.NumRows())
		}
		if got := tw.HeadRows(1).Twin(0); got != attr.ID(nc) {
			t.Fatalf("trial %d: a row slice lost its twins: Twin(0) = %d", trial, got)
		}
		for c := range attr.ID(2 * nc) {
			a, b := c%attr.ID(nc), tw.Twin(c)
			if b == c || tw.Twin(b) != c || min(b, c) != a {
				t.Fatalf("trial %d: Twin(%d) = %d, Twin of that = %d", trial, c, b, tw.Twin(b))
			}
			if tw.Distinct(c) != r.Distinct(a) || tw.HasNull(c) != r.HasNull(a) {
				t.Fatalf("trial %d: column %d counts %d/%v, original %d/%v",
					trial, c, tw.Distinct(c), tw.HasNull(c), r.Distinct(a), r.HasNull(a))
			}
			for p := 0; p < r.NumRows(); p++ {
				if tw.Value(p, c) != r.Value(p, a) {
					t.Fatalf("trial %d: row %d column %d shows %q, original %q", trial, p, c, tw.Value(p, c), r.Value(p, a))
				}
				if (tw.Code(p, b) == NullCode) != (tw.Code(p, c) == NullCode) {
					t.Fatalf("trial %d: row %d: NULL code not kept in column %d", trial, p, b)
				}
				for q := 0; q < r.NumRows(); q++ {
					u, v := tw.Code(p, c), tw.Code(q, c)
					if u != NullCode && v != NullCode && (u < v) != (tw.Code(p, b) > tw.Code(q, b)) {
						t.Fatalf("trial %d: rows %d, %d keep their order in columns %d and %d", trial, p, q, c, b)
					}
				}
			}
		}
	}
}

func TestDefaultColNames(t *testing.T) {
	cases := []struct {
		i    int
		want string
	}{{0, "A"}, {25, "Z"}, {26, "AA"}, {27, "AB"}, {51, "AZ"}, {52, "BA"}, {701, "ZZ"}, {702, "AAA"}}
	for _, c := range cases {
		if got := defaultColName(c.i); got != c.want {
			t.Errorf("defaultColName(%d) = %q, want %q", c.i, got, c.want)
		}
	}
}

func TestReadCSV(t *testing.T) {
	src := "a,b,c\n1,x,2.5\n2,y,\n2,x,0.5\n"
	r, err := ReadCSV(strings.NewReader(src), "demo", CSVOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if r.NumRows() != 3 || r.NumCols() != 3 {
		t.Fatalf("shape %dx%d", r.NumRows(), r.NumCols())
	}
	if r.Kinds[0] != KindInt || r.Kinds[1] != KindString || r.Kinds[2] != KindFloat {
		t.Errorf("kinds = %v", r.Kinds)
	}
	if !r.HasNull(2) {
		t.Error("empty field should be NULL")
	}
	if id, ok := r.ColIndex("b"); !ok || id != 1 {
		t.Error("ColIndex failed")
	}
	if _, ok := r.ColIndex("nope"); ok {
		t.Error("ColIndex found a missing column")
	}
}

func TestReadCSVNoHeader(t *testing.T) {
	r, err := ReadCSV(strings.NewReader("1,2\n3,4\n"), "t", CSVOptions{NoHeader: true})
	if err != nil {
		t.Fatal(err)
	}
	if r.NumRows() != 2 || r.ColName(0) != "A" || r.ColName(1) != "B" {
		t.Error("NoHeader parsing wrong")
	}
}

func TestReadCSVErrors(t *testing.T) {
	if _, err := ReadCSV(strings.NewReader(""), "t", CSVOptions{}); err == nil {
		t.Error("empty input should error")
	}
	if _, err := ReadCSV(strings.NewReader("a,b\n1\n"), "t", CSVOptions{}); err == nil {
		t.Error("ragged rows should error")
	}
}

func TestCSVRoundTrip(t *testing.T) {
	src := "a,b\n1,x\n,y\n3,\n"
	r, err := ReadCSV(strings.NewReader(src), "t", CSVOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := r.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	r2, err := ReadCSV(&buf, "t", CSVOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if r2.NumRows() != r.NumRows() {
		t.Fatalf("round trip changed row count")
	}
	for c := 0; c < r.NumCols(); c++ {
		for i := 0; i < r.NumRows(); i++ {
			if r.Value(i, attr.ID(c)) != r2.Value(i, attr.ID(c)) {
				t.Errorf("round trip changed (%d,%d): %q vs %q", i, c, r.Value(i, attr.ID(c)), r2.Value(i, attr.ID(c)))
			}
		}
	}
}

func TestTSVSeparator(t *testing.T) {
	r, err := ReadCSV(strings.NewReader("a\tb\n1\t2\n"), "t", CSVOptions{Comma: '\t'})
	if err != nil {
		t.Fatal(err)
	}
	if r.NumCols() != 2 {
		t.Errorf("NumCols = %d", r.NumCols())
	}
}

// Property: for any random int column, code order agrees with value order.
func TestQuickCodesOrderIso(t *testing.T) {
	f := func(vals []int16) bool {
		if len(vals) == 0 {
			return true
		}
		rows := make([][]int, len(vals))
		for i, v := range vals {
			rows[i] = []int{int(v)}
		}
		r := FromInts("t", nil, rows)
		for i := range vals {
			for j := range vals {
				cv := r.Code(i, 0) < r.Code(j, 0)
				vv := vals[i] < vals[j]
				if cv != vv {
					return false
				}
				if (r.Code(i, 0) == r.Code(j, 0)) != (vals[i] == vals[j]) {
					return false
				}
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 30, Rand: rand.New(rand.NewSource(1))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// Property: distinct count equals the true number of distinct values.
func TestQuickDistinctCount(t *testing.T) {
	f := func(vals []uint8) bool {
		rows := make([][]int, len(vals))
		for i, v := range vals {
			rows[i] = []int{int(v)}
		}
		if len(rows) == 0 {
			return true
		}
		r := FromInts("t", nil, rows)
		uniq := map[uint8]bool{}
		for _, v := range vals {
			uniq[v] = true
		}
		return r.Distinct(0) == len(uniq)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: string columns are ordered byte-lexicographically by code.
func TestQuickStringOrder(t *testing.T) {
	f := func(vals []string) bool {
		rows := make([][]string, 0, len(vals))
		keep := make([]string, 0, len(vals))
		for _, v := range vals {
			if v == "" || v == "NULL" || v == "null" || v == "?" || strings.ContainsAny(v, "\r\n\",") {
				continue
			}
			rows = append(rows, []string{v})
			keep = append(keep, v)
		}
		if len(rows) == 0 {
			return true
		}
		r, err := FromStrings("t", []string{"s"}, rows, Options{})
		if err != nil {
			return false
		}
		idx := make([]int, len(keep))
		for i := range idx {
			idx[i] = i
		}
		sort.Slice(idx, func(a, b int) bool { return r.Code(idx[a], 0) < r.Code(idx[b], 0) })
		for i := 1; i < len(idx); i++ {
			if keep[idx[i-1]] > keep[idx[i]] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestRowAccessor(t *testing.T) {
	r := FromInts("t", []string{"A", "B"}, [][]int{{7, 8}})
	row := r.Row(0)
	if row[0] != "7" || row[1] != "8" {
		t.Errorf("Row = %v", row)
	}
}

func TestLargeIntBoundaries(t *testing.T) {
	big := strconv.FormatInt(1<<62, 10)
	r, err := FromStrings("t", []string{"v"}, [][]string{{big}, {"-1"}}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Kinds[0] != KindInt {
		t.Errorf("kind = %v", r.Kinds[0])
	}
	if !(r.Code(1, 0) < r.Code(0, 0)) {
		t.Error("ordering of large ints wrong")
	}
}

// FuzzReadCSV exercises the CSV→relation→CSV round trip on arbitrary
// inputs; it must never panic, and any successfully parsed relation must
// re-parse to the same shape.
func FuzzReadCSV(f *testing.F) {
	f.Add("a,b\n1,2\n")
	f.Add("a,b\n,x\n3,\n")
	f.Add("x\n\"quoted, comma\"\n")
	f.Add("h\r\n1\r\n2\r\n")
	f.Fuzz(func(t *testing.T, src string) {
		r, err := ReadCSV(strings.NewReader(src), "fuzz", CSVOptions{})
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := r.WriteCSV(&buf); err != nil {
			t.Fatalf("WriteCSV failed on parsed relation: %v", err)
		}
		r2, err := ReadCSV(&buf, "fuzz2", CSVOptions{})
		if err != nil {
			// Columns whose names are NULL tokens or empty can change the
			// header row; only shape errors on re-parse are acceptable.
			return
		}
		if r2.NumRows() != r.NumRows() || r2.NumCols() != r.NumCols() {
			t.Fatalf("round trip changed shape: %dx%d -> %dx%d",
				r.NumRows(), r.NumCols(), r2.NumRows(), r2.NumCols())
		}
	})
}

func TestSampleFraction(t *testing.T) {
	rows := make([][]int, 1000)
	for i := range rows {
		rows[i] = []int{i}
	}
	r := FromInts("t", []string{"A"}, rows)
	s := r.SampleFraction(0.3, 42)
	if s.NumRows() < 200 || s.NumRows() > 400 {
		t.Errorf("30%% sample of 1000 rows gave %d", s.NumRows())
	}
	// determinism
	s2 := r.SampleFraction(0.3, 42)
	if s2.NumRows() != s.NumRows() {
		t.Error("sampling not deterministic")
	}
	// order preserved
	prev := int32(-1)
	for i := 0; i < s.NumRows(); i++ {
		if c := s.Code(i, 0); c <= prev {
			t.Fatal("sample reordered rows")
		} else {
			prev = c
		}
	}
	if r.SampleFraction(1.5, 1).NumRows() != 1000 {
		t.Error("frac ≥ 1 should keep everything")
	}
	if r.SampleFraction(-0.1, 1).NumRows() != 0 {
		t.Error("frac ≤ 0 should keep nothing")
	}
}

// TestRankStringsSharedPrefix: strings that agree on a long prefix, one of
// them the prefix itself, rank in byte order.
func TestRankStringsSharedPrefix(t *testing.T) {
	prefix := strings.Repeat("x", 50_000)
	vals := []string{prefix}
	for i := 0; i < 200; i++ {
		vals = append(vals, prefix+strconv.Itoa(i*7919%1000), prefix+"\xff"+strconv.Itoa(i))
	}
	remap, display := rankStrings(vals)
	want := slices.Clone(vals)
	slices.Sort(want)
	if !slices.Equal(display[1:], want) {
		t.Fatal("display is not in byte order")
	}
	for id, s := range vals {
		if display[remap[id+1]] != s {
			t.Fatalf("value %d ranks as %q", id, display[remap[id+1]][50_000:])
		}
	}
}
