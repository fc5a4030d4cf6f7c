package relation

import (
	"bytes"
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"reflect"
	"runtime"
	"slices"
	"sort"
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
	final, display, distinct := referenceRankValues(entries, kind)
	codes = make([]int32, len(raw))
	for i, s := range raw {
		if !nulls[s] {
			codes[i] = final[seen[s]]
		}
	}
	return codes, display, distinct, hasNull
}

// referenceRankValues is the comparison-sort ranking the encoder
// replaced, kept so the oracle does not share the code it checks. It
// sorts a column's distinct values in the kind's natural order (spelling
// as tiebreak), then merges distinct numeric values with multiple
// spellings ("1" vs "01", "1.0" vs "1.00") into one code so that equal
// values compare equal. codes[k] is the final code of entries[k]; display
// maps code → representative spelling, with code 0 reserved for NULL.
func referenceRankValues(entries []rankEntry, kind Kind) (codes []int32, display []string, distinct int) {
	ord := make([]int, len(entries))
	for i := range ord {
		ord[i] = i
	}
	switch kind {
	case KindInt:
		sort.Slice(ord, func(a, b int) bool {
			ea, eb := entries[ord[a]], entries[ord[b]]
			if ea.i != eb.i {
				return ea.i < eb.i
			}
			return ea.s < eb.s
		})
	case KindFloat:
		sort.Slice(ord, func(a, b int) bool {
			ea, eb := entries[ord[a]], entries[ord[b]]
			if c := cmpFloat(ea.f, eb.f); c != 0 {
				return c < 0
			}
			return ea.s < eb.s
		})
	default:
		sort.Slice(ord, func(a, b int) bool { return entries[ord[a]].s < entries[ord[b]].s })
	}
	codes = make([]int32, len(entries))
	display = []string{"NULL"}
	var next int32 = 0
	for k, idx := range ord {
		same := false
		if k > 0 {
			prev := entries[ord[k-1]]
			switch kind {
			case KindInt:
				same = entries[idx].i == prev.i
			case KindFloat:
				same = cmpFloat(entries[idx].f, prev.f) == 0
			default:
				same = false // distinct strings are distinct values
			}
		}
		if !same {
			next++
			display = append(display, entries[idx].s)
		}
		codes[idx] = next
	}
	return codes, display, int(next)
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
	e := newEncoder(1, nil, false)
	for r := 1; r <= 3*batchRows; r++ {
		v := strconv.Itoa(r)
		if r == batchRows+3 || r == 2*batchRows {
			v = "x"
		}
		e.addStrings([]string{v})
	}
	e.close()
	_, _, err := e.cols[0].rank(KindInt, e.cols[0].dict.values())
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

// scaleCSV returns a header and n data rows joined by sep, one column per
// encoding path: a sparse unique key, integers with non-canonical
// spellings ("01", "+1", "-0") and a 19-digit one, an integer
// column that turns into floats at row 3,000, a column whose values
// include -1, near-unique strings of several lengths and scripts, and NULL
// tokens among integers.
func scaleCSV(n int, sep string) []string {
	lines := []string{strings.Join([]string{"key", "respelt", "turns", "neg", "text", "holes"}, sep)}
	for r := 1; r <= n; r++ {
		respelt := strconv.Itoa(r % 50)
		switch r % 700 {
		case 1:
			respelt = "01"
		case 2:
			respelt = "+1"
		case 3:
			respelt = "-0"
		case 4:
			respelt = "1234567890123456789"
		}
		if r < 600 {
			respelt = strconv.Itoa(r % 50) // the column starts in integer mode
		}
		turns := strconv.Itoa(r % 97)
		if r >= 3000 {
			turns = fmt.Sprintf("%d.5", r%97)
		}
		text := fmt.Sprintf("t%d", (r*7919)%(n+13))
		if r%3 == 0 {
			text = fmt.Sprintf("é%x", r*r)
		}
		holes := []string{"", "NULL", "?", strconv.Itoa(-r)}[r%4]
		cells := []string{strconv.Itoa(r * 100_003), respelt, turns, strconv.Itoa(r%13 - 1), text, holes}
		lines = append(lines, strings.Join(cells, sep))
	}
	return lines
}

// setCell replaces the text cell of comma-separated line i.
func setCell(lines []string, i int, v string) {
	cells := strings.Split(lines[i], ",")
	cells[4] = v
	lines[i] = strings.Join(cells, ",")
}

// TestReadCSVMatchesReferenceAtScale checks ReadCSV against the whole-file
// reference on inputs past the striping threshold and the read buffer's
// growth, in each of the splitter's situations: plain input, a handoff
// to encoding/csv at the first quote or carriage return, and encoding/csv
// from the start for a multi-byte comma. Bad rows must fail both, with the
// reference's row and line numbers.
func TestReadCSVMatchesReferenceAtScale(t *testing.T) {
	const n = 5000
	join := func(lines []string) string { return strings.Join(lines, "\n") + "\n" }
	edit := func(lines []string, f func(lines []string) []string) string {
		return join(f(slices.Clone(lines)))
	}
	plain := scaleCSV(n, ",")
	cases := map[string]struct {
		csv     string
		opts    CSVOptions
		wantErr bool
	}{
		"plain": {csv: join(plain)},
		"minus-one-is-null": {
			csv:  join(plain),
			opts: CSVOptions{Options: Options{NullTokens: []string{"-1", "", "NULL"}}},
		},
		"force-string": {csv: join(plain), opts: CSVOptions{Options: Options{ForceString: true}}},
		"no-header":    {csv: join(plain[1:]), opts: CSVOptions{NoHeader: true}},
		"quotes-from-row-4000": {csv: edit(plain, func(l []string) []string {
			setCell(l, 4000, `"a ""b"", c"`)
			setCell(l, 4500, "\"two\nlines\"")
			return l
		})},
		"crlf":          {csv: strings.Join(plain, "\r\n") + "\r\n"},
		"crlf-from-row": {csv: join(plain[:2500]) + strings.Join(plain[2500:], "\r\n")},
		"empty-lines": {csv: edit(plain, func(l []string) []string {
			for i := len(l) - 1; i > 0; i -= 333 {
				l = slices.Insert(l, i, "", "")
			}
			return l
		})},
		"no-final-newline": {csv: strings.Join(plain, "\n")},
		"semicolon":        {csv: join(scaleCSV(n, ";")), opts: CSVOptions{Comma: ';'}},
		"tab":              {csv: join(scaleCSV(n, "\t")), opts: CSVOptions{Comma: '\t'}},
		"multibyte-comma":  {csv: join(scaleCSV(n, "¦")), opts: CSVOptions{Comma: '¦'}},
		"ragged": {csv: edit(plain, func(l []string) []string {
			l[2000] += ",7"
			return l
		}), wantErr: true},
		"ragged-after-handoff": {csv: edit(plain, func(l []string) []string {
			setCell(l, 4000, `"x"`)
			l[4001] += ",7"
			return l
		}), wantErr: true},
		"bare-quote-after-handoff": {csv: edit(plain, func(l []string) []string {
			setCell(l, 3000, "\"two\nlines\"")
			setCell(l, 4321, `x"y`)
			return l
		}), wantErr: true},
	}
	for name, tc := range cases {
		t.Run(name, func(t *testing.T) {
			want, werr := referenceReadCSV(tc.csv, "t", tc.opts)
			got, gerr := ReadCSV(strings.NewReader(tc.csv), "t", tc.opts)
			if tc.wantErr {
				if werr == nil || gerr == nil || !strings.Contains(gerr.Error(), werr.Error()) {
					t.Fatalf("errors differ: reference=%v ReadCSV=%v", werr, gerr)
				}
				return
			}
			if werr != nil || gerr != nil {
				t.Fatalf("reference=%v ReadCSV=%v", werr, gerr)
			}
			assertSameRelation(t, want, got)
		})
	}
}

// fuzzCommas are the separators the fuzz targets draw from: the default,
// other one-byte separators the splitter handles, a multi-byte one and two
// that encoding/csv rejects.
var fuzzCommas = []rune{0, ',', ';', '\t', '¦', '"', '\n'}

// FuzzReadCSVMatchesReference cross-checks ReadCSV against the whole-file
// reference on arbitrary CSV bytes and options: they must agree on
// acceptance, and on acceptance produce identical relations. nulls, when
// not empty, is a '|'-separated list of NULL tokens. An accepted input's
// data lines are then tiled past batchRows+1 records, so the encoder
// goroutines, the word scan and their whole-line batches run too, and read once through a
// strings.Reader, whose Len sizes the code slices, and once through a
// reader that tells no size.
func FuzzReadCSVMatchesReference(f *testing.F) {
	f.Add("a,b\n1,2\n3,4\n", "", false, uint8(0))
	f.Add("a,b\n01,x\n1,y\nNULL,?\n", "", false, uint8(0))
	f.Add("x\nNaN\n1.0\n1.00\n", "", false, uint8(0))
	f.Add("a;b\n-1;2\n3;-1\n", "-1|x", false, uint8(2))
	f.Add("a¦b\n10¦9\n\"9\"¦10\r\n", "", true, uint8(4))
	f.Fuzz(func(t *testing.T, data, nulls string, force bool, comma uint8) {
		if len(data) > 1<<16 {
			return
		}
		opts := CSVOptions{Comma: fuzzCommas[int(comma)%len(fuzzCommas)], Options: Options{ForceString: force}}
		if nulls != "" {
			opts.NullTokens = strings.Split(nulls, "|")
		}
		want, werr := referenceReadCSV(data, "f", opts)
		got, gerr := ReadCSV(strings.NewReader(data), "f", opts)
		if (werr == nil) != (gerr == nil) {
			t.Fatalf("acceptance differs: reference=%v ReadCSV=%v", werr, gerr)
		}
		if werr != nil {
			return
		}
		assertSameRelation(t, want, got)

		header, body, _ := strings.Cut(data, "\n")
		if !strings.HasSuffix(body, "\n") {
			body += "\n"
		}
		copies := (batchRows+1)/max(want.NumRows(), 1) + 1
		if copies*len(body) > 1<<20 {
			return
		}
		tiled := header + "\n" + strings.Repeat(body, copies)
		want, werr = referenceReadCSV(tiled, "f", opts)
		for _, src := range []io.Reader{strings.NewReader(tiled), chunkReader{strings.NewReader(tiled), 4093}} {
			got, gerr := ReadCSV(src, "f", opts)
			if (werr == nil) != (gerr == nil) {
				t.Fatalf("tiled %d times: acceptance differs: reference=%v ReadCSV=%v", copies, werr, gerr)
			}
			if werr == nil {
				assertSameRelation(t, want, got)
			}
		}
	})
}

// chunkReader returns at most n bytes per Read.
type chunkReader struct {
	r io.Reader
	n int
}

func (c chunkReader) Read(p []byte) (int, error) { return c.r.Read(p[:min(len(p), c.n)]) }

// FuzzSplitMatchesEncodingCSV requires the splitter, with its handoff to
// encoding/csv, to read the same records as encoding/csv from arbitrary
// bytes arriving in chunks of any size, and to fail where it fails with
// the same error. The line read returns must hold the cells back to back,
// each followed by one byte. The bytes are read twice: as they are, and
// behind batchRows+2 copies of their first line, so that the lines after
// those reach the word scan as parseCSV drives it.
func FuzzSplitMatchesEncodingCSV(f *testing.F) {
	f.Add([]byte("a,b\n1,2\n\n3,4"), uint8(0), uint8(3))
	f.Add([]byte("a,b\n1,\"2\n3\",4\r\n5,6\n"), uint8(1), uint8(255))
	f.Add([]byte("a\tb\n1\t2\nx\"y\t3\n"), uint8(3), uint8(1))
	f.Add([]byte("a¦b\n1¦2\n"), uint8(4), uint8(7))
	f.Add([]byte("a,b\n1,2\n"), uint8(5), uint8(7))
	// For the word scan: a cell too many, a cell too few, an empty line, a
	// '"' and a '\r' mid-stream, a last line without a newline, and a
	// one-column file.
	f.Add([]byte("a,b,c\n1,2,3\n4,5,6,7\n8,9,10\n"), uint8(0), uint8(255))
	f.Add([]byte("a,b,c\n1,2,3\n4,5\n"), uint8(0), uint8(100))
	f.Add([]byte("a;b\n1;2\n\n3;4\n"), uint8(2), uint8(255))
	f.Add([]byte("a,b\n1,2\n\"x\",4\n5,6\n"), uint8(1), uint8(255))
	f.Add([]byte("a,b\n1,2\r\n3,4\n"), uint8(1), uint8(60))
	f.Add([]byte("a,bb\n1,22\n3,44"), uint8(0), uint8(255))
	f.Add([]byte("a\n1\n\n2\n"), uint8(0), uint8(255))
	f.Fuzz(func(t *testing.T, data []byte, comma, chunk uint8) {
		c := fuzzCommas[int(comma)%len(fuzzCommas)]
		splitMatchesEncodingCSV(t, data, c, int(chunk)+1)
		first, _, _ := bytes.Cut(data, []byte("\n"))
		if len(data) > 1<<12 || len(first) > 64 {
			return
		}
		first = append(first, '\n')
		tiled := append(bytes.Repeat(first, batchRows+2), bytes.Repeat(data, 4)...)
		splitMatchesEncodingCSV(t, tiled, c, 1+(int(chunk)*37)%4096)
	})
}

// splitMatchesEncodingCSV reads data, in chunks of chunk bytes, through the
// splitter as parseCSV does: by read up to batchRows+1 records, then into
// a batch by scan wherever it takes lines, and by read where it does not.
// Each record and error must be encoding/csv's.
func splitMatchesEncodingCSV(t *testing.T, data []byte, c rune, chunk int) {
	t.Helper()
	cr := csv.NewReader(bytes.NewReader(data))
	if c != 0 {
		cr.Comma = c
	}
	cr.FieldsPerRecord = -1
	sp := newSplitter(chunkReader{bytes.NewReader(data), chunk}, c, -1)
	var b *batch
	ncols := 0
	for n := 1; ; n++ {
		if b != nil {
			if len(b.ends) == batchRows*ncols {
				b.buf, b.ends = b.buf[:0], b.ends[:0]
			}
			before := len(b.ends)
			// Vary the limit as parseCSV's Stop polls and batch ends do.
			limit := min(batchRows-before/ncols, 1+n%61)
			k := sp.scan(b, ncols, limit)
			if k > limit {
				t.Fatalf("record %d: scan took %d records, limit %d", n, k, limit)
			}
			for e := before; e < before+k*ncols; e += ncols {
				want, werr := cr.Read()
				if werr != nil || len(want) != ncols {
					t.Fatalf("record %d: scan took %q, encoding/csv reads %q, %v", n, batchRecord(b, e, ncols), want, werr)
				}
				if got := batchRecord(b, e, ncols); !slices.Equal(got, want) {
					t.Fatalf("record %d: encoding/csv %q, scan %q", n, want, got)
				}
				n++
			}
			if k > 0 {
				n--
				continue
			}
		}
		want, werr := cr.Read()
		got, line, gerr := sp.read()
		if fmt.Sprint(werr) != fmt.Sprint(gerr) {
			t.Fatalf("record %d: encoding/csv err %v, splitter err %v", n, werr, gerr)
		}
		if werr != nil {
			return
		}
		if len(got) != len(want) {
			t.Fatalf("record %d: encoding/csv %q, splitter %q", n, want, got)
		}
		start := 0
		for i := range want {
			if string(got[i]) != want[i] {
				t.Fatalf("record %d: encoding/csv %q, splitter %q", n, want, got)
			}
			if end := start + len(want[i]); end >= len(line) || string(line[start:end]) != want[i] {
				t.Fatalf("record %d: cell %d is not at %d in line %q", n, i, start, line)
			}
			start += len(want[i]) + 1
		}
		if start != len(line) {
			t.Fatalf("record %d: line %q is not its cells, each followed by one byte", n, line)
		}
		if n == 1 {
			ncols = len(got)
		}
		if n == batchRows+1 && len(got) == ncols {
			b = &batch{ends: make([]int, 0, batchRows*ncols)}
		}
	}
}

// batchRecord returns the record whose first cell is cell e of b.
func batchRecord(b *batch, e, ncols int) []string {
	rec := make([]string, ncols)
	for i := range rec {
		from := 0
		if e+i > 0 {
			from = b.ends[e+i-1] + 1
		}
		rec[i] = string(b.buf[from:b.ends[e+i]])
	}
	return rec
}
