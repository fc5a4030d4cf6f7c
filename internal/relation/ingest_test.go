package relation

import (
	"encoding/csv"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"
)

// referenceReadCSV is the whole-file ingestion the streaming encoder
// replaced, kept as a test oracle: encoding/csv ReadAll, kind inference
// over every cell, then one dictionary and rank pass per column.
func referenceReadCSV(data, name string, opts CSVOptions) (*Relation, error) {
	cr := csv.NewReader(strings.NewReader(data))
	if opts.Comma != 0 {
		cr.Comma = opts.Comma
	}
	cr.FieldsPerRecord = -1
	records, err := cr.ReadAll()
	if err != nil {
		return nil, err
	}
	if len(records) == 0 {
		return nil, errors.New("empty input")
	}
	header, rows := records[0], records[1:]
	if opts.NoHeader {
		header, rows = make([]string, len(records[0])), records
		for i := range header {
			header[i] = defaultColName(i)
		}
	}
	nc := len(header)
	r := &Relation{Name: name, ColNames: header, Kinds: make([]Kind, nc), Codes: make([][]int32, nc),
		display: make([][]string, nc), distinct: make([]int, nc), hasNull: make([]bool, nc), rows: len(rows)}
	nulls := opts.nullSet()
	for c := range header {
		raw := make([]string, len(rows))
		for i, row := range rows {
			if len(row) != nc {
				return nil, fmt.Errorf("row %d has %d fields, want %d", i+1, len(row), nc)
			}
			raw[i] = row[c]
		}
		r.Kinds[c] = KindString
		if !opts.ForceString {
			r.Kinds[c] = inferKind(raw, nulls)
		}
		r.Codes[c], r.display[c], r.distinct[c], r.hasNull[c] = encodeColumn(raw, r.Kinds[c], nulls)
	}
	return r, nil
}

// encodeColumn rank-encodes one column of cells: NULL is 0 and the distinct
// non-NULL values get 1..k in their natural order. kind parses every
// non-NULL cell, as inferKind chose it.
func encodeColumn(raw []string, kind Kind, nulls map[string]bool) (codes []int32, display []string, distinct int, hasNull bool) {
	seen := make(map[string]int32)
	var entries []rankEntry
	for _, s := range raw {
		if nulls[s] {
			hasNull = true
			continue
		}
		if _, ok := seen[s]; ok {
			continue
		}
		e := rankEntry{s: s}
		e.i, _ = strconv.ParseInt(s, 10, 64)
		e.f, _ = strconv.ParseFloat(s, 64)
		seen[s] = int32(len(entries))
		entries = append(entries, e)
	}
	final, display, distinct := rankValues(entries, kind)
	codes = make([]int32, len(raw))
	for i, s := range raw {
		if !nulls[s] {
			codes[i] = final[seen[s]]
		}
	}
	return codes, display, distinct, hasNull
}

// assertSameRelation compares every observable of two relations.
func assertSameRelation(t *testing.T, want, got *Relation) {
	t.Helper()
	if want.Name != got.Name {
		t.Errorf("Name: %q vs %q", want.Name, got.Name)
	}
	if !reflect.DeepEqual(want.ColNames, got.ColNames) {
		t.Errorf("ColNames: %v vs %v", want.ColNames, got.ColNames)
	}
	if !reflect.DeepEqual(want.Kinds, got.Kinds) {
		t.Errorf("Kinds: %v vs %v", want.Kinds, got.Kinds)
	}
	if !reflect.DeepEqual(want.Codes, got.Codes) {
		t.Errorf("Codes differ:\nwant %v\ngot  %v", want.Codes, got.Codes)
	}
	if !reflect.DeepEqual(want.display, got.display) {
		t.Errorf("display differs:\nwant %v\ngot  %v", want.display, got.display)
	}
	if !reflect.DeepEqual(want.distinct, got.distinct) {
		t.Errorf("distinct: %v vs %v", want.distinct, got.distinct)
	}
	if !reflect.DeepEqual(want.hasNull, got.hasNull) {
		t.Errorf("hasNull: %v vs %v", want.hasNull, got.hasNull)
	}
	if want.rows != got.rows {
		t.Errorf("rows: %d vs %d", want.rows, got.rows)
	}
}

// batchCSV returns a header and n data rows whose columns exercise every
// encoding rule: integer respellings ("1"/"01"), float respellings
// ("1.0"/"1.00") and NaN, NULL tokens, strings, and a unique key, so new
// values keep arriving in every batch.
func batchCSV(n int) string {
	var b strings.Builder
	b.WriteString("i,f,s,k\n")
	for r := 0; r < n; r++ {
		i := fmt.Sprintf("%d", r%37)
		if r%2 == 1 {
			i = fmt.Sprintf("%02d", r%37)
		}
		f := fmt.Sprintf("%.1f", float64(r%11)/2)
		switch {
		case r%13 == 0:
			f = "NaN"
		case r%3 == 0:
			f = fmt.Sprintf("%.2f", float64(r%11)/2)
		}
		s := []string{"", "NULL", "?", "null"}[r%4]
		if r%5 != 0 {
			s = fmt.Sprintf("x%d", r%101)
		}
		fmt.Fprintf(&b, "%s,%s,%s,%d\n", i, f, s, n-r)
	}
	return b.String()
}

// TestChunkedMatchesWholeFile checks ReadCSV, which encodes in batches of
// batchRows records, against the whole-file reference: on small inputs
// with every option, and on inputs around the batch boundary.
func TestChunkedMatchesWholeFile(t *testing.T) {
	cases := map[string]struct {
		csv  string
		opts CSVOptions
	}{
		"ints": {csv: "a,b\n3,1\n1,2\n2,3\n3,1\n"},
		"respellings": {
			// "1"/"01" and "1.0"/"1.00" must merge into one code.
			csv: "a,b\n01,1.0\n1,1.00\n2,2.5\n",
		},
		"nulls": {csv: "a,b\n1,\nNULL,2\n?,null\n3,4\n"},
		"nan-floats": {
			csv: "x\nNaN\n1.5\n-2.25\nNaN\n0.0\n",
		},
		"strings":     {csv: "s,t\nfoo,x\nbar,y\nfoo,z\n"},
		"mixed-kinds": {csv: "a,b,c\n1,1.5,zz\n2,x,3\n"},
		"no-header": {
			csv:  "5,foo\n2,bar\n5,baz\n",
			opts: CSVOptions{NoHeader: true},
		},
		"force-string": {
			csv:  "a\n10\n9\n100\n",
			opts: CSVOptions{Options: Options{ForceString: true}},
		},
		"semicolon": {
			csv:  "a;b\n1;2\n3;4\n",
			opts: CSVOptions{Comma: ';'},
		},
		"header-only": {csv: "a,b\n"},
		"custom-nulls": {
			csv:  "a\nNA\n1\n2\n",
			opts: CSVOptions{Options: Options{NullTokens: []string{"NA"}}},
		},
		"batch-no-header": {
			csv:  batchCSV(batchRows + 1),
			opts: CSVOptions{NoHeader: true},
		},
		"batch-semicolon": {
			csv:  strings.ReplaceAll(batchCSV(batchRows+1), ",", ";"),
			opts: CSVOptions{Comma: ';'},
		},
		"batch-force-string": {
			csv:  batchCSV(batchRows + 1),
			opts: CSVOptions{Options: Options{ForceString: true}},
		},
		"batch-custom-nulls": {
			csv:  batchCSV(batchRows + 1),
			opts: CSVOptions{Options: Options{NullTokens: []string{"NaN", "x7"}}},
		},
	}
	for _, n := range []int{batchRows - 1, batchRows, batchRows + 1, 3*batchRows + 7} {
		cases[fmt.Sprintf("rows-%d", n)] = struct {
			csv  string
			opts CSVOptions
		}{csv: batchCSV(n)}
	}
	for name, tc := range cases {
		t.Run(name, func(t *testing.T) {
			want, err := referenceReadCSV(tc.csv, "t", tc.opts)
			if err != nil {
				t.Fatalf("reference: %v", err)
			}
			got, err := ReadCSV(strings.NewReader(tc.csv), "t", tc.opts)
			if err != nil {
				t.Fatalf("ReadCSV: %v", err)
			}
			assertSameRelation(t, want, got)
		})
	}
}

// TestFromStringsMatchesReference feeds the same records to FromStrings,
// which shares ReadCSV's encoder, around the batch boundary.
func TestFromStringsMatchesReference(t *testing.T) {
	for _, n := range []int{batchRows - 1, batchRows, batchRows + 1, 3*batchRows + 7} {
		data := batchCSV(n)
		want, err := referenceReadCSV(data, "t", CSVOptions{})
		if err != nil {
			t.Fatal(err)
		}
		records, err := csv.NewReader(strings.NewReader(data)).ReadAll()
		if err != nil {
			t.Fatal(err)
		}
		got, err := FromStrings("t", records[0], records[1:], Options{})
		if err != nil {
			t.Fatalf("rows %d: %v", n, err)
		}
		assertSameRelation(t, want, got)
	}
}

func TestChunkedEmptyInputErrors(t *testing.T) {
	_, err := ReadCSV(strings.NewReader(""), "t", CSVOptions{})
	if err == nil || !strings.Contains(err.Error(), "empty input") {
		t.Fatalf("err = %v, want empty-input error", err)
	}
}

// withBadRow returns batchCSV(3·batchRows) with data row `row` (1-based)
// replaced by line.
func withBadRow(row int, line string) string {
	lines := strings.Split(batchCSV(3*batchRows), "\n")
	lines[row] = line
	return strings.Join(lines, "\n")
}

// TestChunkedRaggedRowErrorIsOneBased: a ragged row and a bad quote in the
// second batch report their global 1-based data row, and the reference
// rejects the same inputs.
func TestChunkedRaggedRowErrorIsOneBased(t *testing.T) {
	row := batchRows + 5
	cases := map[string]struct{ line, want string }{
		"ragged":    {"5", fmt.Sprintf("row %d has 1 fields, want 4", row)},
		"bad-quote": {`1,2.5,x"y,9`, fmt.Sprintf("row %d: parse error", row)},
	}
	for name, tc := range cases {
		data := withBadRow(row, tc.line)
		_, err := ReadCSV(strings.NewReader(data), "t", CSVOptions{})
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want %q", name, err, tc.want)
		}
		if _, err := referenceReadCSV(data, "t", CSVOptions{}); err == nil {
			t.Errorf("%s: the reference accepts the input", name)
		}
	}
}

// TestChunkedBuilderTracksFirstOccurrence: a value that fails to coerce is
// reported at the global row of its first occurrence, also when that row
// was encoded by a goroutine from a later batch.
func TestChunkedBuilderTracksFirstOccurrence(t *testing.T) {
	e := newEncoder(1, nil, false, 0)
	for r := 1; r <= 3*batchRows; r++ {
		v := strconv.Itoa(r)
		if r == batchRows+3 || r == 2*batchRows {
			v = "x"
		}
		e.add([]string{v})
	}
	e.close()
	_, _, err := e.cols[0].rank(KindInt)
	want := fmt.Sprintf(`row %d: value "x" does not parse as INTEGER`, batchRows+3)
	if err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("err = %v, want %q", err, want)
	}
}

// TestChunkedStopAborts: Stop aborts mid-stream, with the encoder
// goroutines running, and, once parsing is done, during rank encoding.
func TestChunkedStopAborts(t *testing.T) {
	data := batchCSV(3*batchRows + 7) // polled at records 0, 1024, 2048, 3072
	for polls, want := range map[int]string{3: "after 3072 records", 4: "rank-encode column 1"} {
		calls := 0
		opts := CSVOptions{Options: Options{Stop: func() bool {
			calls++
			return calls > polls
		}}}
		_, err := ReadCSV(strings.NewReader(data), "t", opts)
		if !errors.Is(err, ErrStopped) || !strings.Contains(err.Error(), want) {
			t.Errorf("stop after %d polls: err = %v, want ErrStopped %q", polls, err, want)
		}
	}
}

// TestReadCSVLeavesNoGoroutines: whichever way ReadCSV returns, its encoder
// goroutines have exited.
func TestReadCSVLeavesNoGoroutines(t *testing.T) {
	good := batchCSV(3*batchRows + 7)
	stopAfter := func(polls int) CSVOptions {
		return CSVOptions{Options: Options{Stop: func() bool {
			polls--
			return polls < 0
		}}}
	}
	cases := map[string]struct {
		data    string
		opts    CSVOptions
		wantErr bool
	}{
		"success":   {data: good},
		"stop":      {data: good, opts: stopAfter(3), wantErr: true},
		"ragged":    {data: withBadRow(2*batchRows+5, "1,2"), wantErr: true},
		"bad-quote": {data: withBadRow(batchRows+5, `"1,2`), wantErr: true},
	}
	for name, tc := range cases {
		before := runtime.NumGoroutine()
		_, err := ReadCSV(strings.NewReader(tc.data), "t", tc.opts)
		if (err != nil) != tc.wantErr {
			t.Fatalf("%s: err = %v, want error %v", name, err, tc.wantErr)
		}
		deadline := time.Now().Add(5 * time.Second)
		for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		if n := runtime.NumGoroutine(); n > before {
			t.Errorf("%s: %d goroutines after ReadCSV, %d before", name, n, before)
		}
	}
}

// FuzzReadCSVMatchesReference cross-checks ReadCSV against the whole-file
// reference on arbitrary CSV bytes: they must agree on acceptance, and on
// acceptance produce identical relations.
func FuzzReadCSVMatchesReference(f *testing.F) {
	f.Add("a,b\n1,2\n3,4\n")
	f.Add("a,b\n01,x\n1,y\nNULL,?\n")
	f.Add("x\nNaN\n1.0\n1.00\n")
	f.Fuzz(func(t *testing.T, data string) {
		if len(data) > 1<<16 {
			return
		}
		want, werr := referenceReadCSV(data, "f", CSVOptions{})
		got, gerr := ReadCSV(strings.NewReader(data), "f", CSVOptions{})
		if (werr == nil) != (gerr == nil) {
			t.Fatalf("acceptance differs: reference=%v ReadCSV=%v", werr, gerr)
		}
		if werr != nil {
			return
		}
		assertSameRelation(t, want, got)
	})
}
