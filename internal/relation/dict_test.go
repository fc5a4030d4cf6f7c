package relation

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime/debug"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// TestDictIDsFirstOccurrence drives one dictionary directly past ten table
// doublings: every value, the empty cell among them, gets its
// first-occurrence number, the NULL tokens read as provisionalNull, and
// values returns the distinct values by id.
func TestDictIDsFirstOccurrence(t *testing.T) {
	nulls := newNullTokens(map[string]bool{"NULL": true, "?": true})
	d := newDict(nulls.list)
	ids := map[string]int32{}
	var vals []string
	for r := 0; r < 30_000; r++ {
		cell := fmt.Sprintf("k%d", (r*7919)%12_000)
		switch r % 97 {
		case 5:
			cell = ""
		case 7:
			cell = "NULL"
		case 11:
			cell = "?"
		}
		want, ok := ids[cell]
		if !ok {
			want = provisionalNull
			if !nulls.tokens[cell] {
				want = int32(len(vals))
				vals = append(vals, cell)
			}
			ids[cell] = want
		}
		if got := d.id([]byte(cell), nulls.list); got != want {
			t.Fatalf("row %d: id(%q) = %d, want %d", r, cell, got, want)
		}
	}
	if len(d.slots) < 16<<10 {
		t.Fatalf("%d slots after %d values: fewer than ten doublings", len(d.slots), len(vals))
	}
	if got := d.values(); !slices.Equal(got, vals) {
		t.Fatalf("values() differs from the first-occurrence order (%d vs %d values)", len(got), len(vals))
	}
	if d.full {
		t.Fatal("full set below maxArena")
	}
}

// dictCaseCSV renders a header and n data rows whose cell in column c is
// cell(r, c), for r from 1.
func dictCaseCSV(header string, n int, cell func(r, c int) string) string {
	var b strings.Builder
	b.WriteString(header + "\n")
	cols := strings.Count(header, ",") + 1
	for r := 1; r <= n; r++ {
		for c := 0; c < cols; c++ {
			if c > 0 {
				b.WriteByte(',')
			}
			b.WriteString(cell(r, c))
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// TestReadCSVDictionaryAndEstimate checks ReadCSV against the whole-file
// reference on inputs aimed at the dictionary and at the row estimate that
// sizes the code slices, each read through a strings.Reader and a
// bytes.Reader (whose Len gives the size), a regular file (whose Stat
// does), and a reader that reports no size.
func TestReadCSVDictionaryAndEstimate(t *testing.T) {
	long := strings.Repeat("w", 200)
	cases := map[string]struct {
		csv  string
		opts CSVOptions
		// high marks an estimate ten times the rows or more: a reader that
		// reports its size must get code slices that large, and one that
		// does not must get doubling.
		high bool
	}{
		"null-first-mid-column": {csv: dictCaseCSV("s,n", 3000, func(r, c int) string {
			if r >= 1500 && r%250 == 0 {
				return []string{"NULL", "NA"}[c]
			}
			return []string{fmt.Sprintf("s%d", r%50), fmt.Sprintf("t%d", r%7)}[c]
		}), opts: CSVOptions{Options: Options{NullTokens: []string{"NULL", "NA"}}}},
		"empty-cell-is-a-value": {csv: dictCaseCSV("s,i", 3000, func(r, c int) string {
			switch {
			case r%9 == 0:
				return ""
			case r%31 == 0:
				return "NULL"
			case c == 0:
				return fmt.Sprintf("e%d", r%40)
			}
			return strconv.Itoa(r % 40)
		}), opts: CSVOptions{Options: Options{NullTokens: []string{"NULL"}}}},
		"leaves-integer-mode-at-2001": {csv: dictCaseCSV("i", 5000, func(r, _ int) string {
			switch {
			case r%17 == 0:
				return "?"
			case r > 2000 && r%2 == 0:
				return fmt.Sprintf("x%d", r%60)
			}
			return strconv.Itoa(r%300 - 20) // later odd rows respell replayed values
		})},
		"ten-table-doublings": {csv: dictCaseCSV("k,v", 30_000, func(r, c int) string {
			return []string{fmt.Sprintf("k%d", (r*7919)%12_000), strconv.Itoa(r % 3)}[c]
		})},
		"short-head-estimate-high": {csv: dictCaseCSV("s,i", 4000, func(r, c int) string {
			if r > batchRows && c == 0 {
				return fmt.Sprintf("%s%d", long, r%900)
			}
			return strconv.Itoa(r % 10)
		}), high: true},
		"long-head-estimate-low": {csv: dictCaseCSV("s,i", 4000, func(r, c int) string {
			if r <= batchRows && c == 0 {
				return fmt.Sprintf("%s%d", long, r%900)
			}
			return strconv.Itoa(r % 10)
		})},
	}
	dir := t.TempDir()
	for name, tc := range cases {
		t.Run(name, func(t *testing.T) {
			want, err := referenceReadCSV(tc.csv, "t", tc.opts)
			if err != nil {
				t.Fatalf("reference: %v", err)
			}
			path := filepath.Join(dir, name+".csv")
			if err := os.WriteFile(path, []byte(tc.csv), 0o644); err != nil {
				t.Fatal(err)
			}
			f, err := os.Open(path)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			readers := map[string]io.Reader{
				"strings.Reader": strings.NewReader(tc.csv),
				"bytes.Reader":   bytes.NewReader([]byte(tc.csv)),
				"os.File":        f,
				"no-size":        chunkReader{strings.NewReader(tc.csv), 1000},
			}
			for rname, src := range readers {
				got, err := ReadCSV(src, "t", tc.opts)
				if err != nil {
					t.Fatalf("%s: %v", rname, err)
				}
				if !t.Run(rname, func(t *testing.T) { assertSameRelation(t, want, got) }) {
					return
				}
				if sized, c := rname != "no-size", cap(got.Codes[0]); tc.high && sized != (c >= 10*got.rows) {
					t.Fatalf("%s: %d rows in code slices of capacity %d", rname, got.rows, c)
				}
			}
		})
	}
}

// TestEstimateRows pins the row estimate: the head's bytes per record
// carried over the whole input plus a tenth, and never more records than
// the rest could hold at one byte per cell.
func TestEstimateRows(t *testing.T) {
	for _, tc := range []struct {
		rows, cols  int
		used, size  int64
		want        int
		description string
	}{
		{1024, 2, 10_240, 102_400, 11_264, "ten times the head, plus a tenth"},
		{1024, 2, 102_400, 102_400, 1025, "nothing past the head"},
		{1024, 16, 16_384, 16_384 + 1_000_000, 1024 + 1_000_000/16 + 1, "capped at one byte per cell"},
	} {
		if got := estimateRows(tc.rows, tc.cols, tc.used, tc.size); got != tc.want {
			t.Errorf("%s: estimateRows(%d, %d, %d, %d) = %d, want %d",
				tc.description, tc.rows, tc.cols, tc.used, tc.size, got, tc.want)
		}
	}
}

// TestInputSize: a regular file has its size less its offset left, and a
// pipe, like any reader without a Len method, tells no size.
func TestInputSize(t *testing.T) {
	const junk, data = "junk\n", "a,b\n1,2\n3,4\n"
	path := filepath.Join(t.TempDir(), "in.csv")
	if err := os.WriteFile(path, []byte(junk+data), 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.Seek(int64(len(junk)), io.SeekStart); err != nil {
		t.Fatal(err)
	}
	if got := inputSize(f); got != int64(len(data)) {
		t.Fatalf("inputSize(file at offset %d) = %d, want %d", len(junk), got, len(data))
	}
	got, err := ReadCSV(f, "t", CSVOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := referenceReadCSV(data, "t", CSVOptions{})
	if err != nil {
		t.Fatal(err)
	}
	assertSameRelation(t, want, got)

	pr, pw, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	defer pr.Close()
	defer pw.Close()
	if got := inputSize(pr); got != -1 {
		t.Fatalf("inputSize(pipe) = %d, want -1", got)
	}
	if got := inputSize(chunkReader{strings.NewReader(data), 1}); got != -1 {
		t.Fatalf("inputSize(reader without Len) = %d, want -1", got)
	}
}

// TestReadCSVAllocsIndependentOfDistinct: reading a near-unique string
// column allocates no more per distinct value. Ten times the rows and
// distinct values may cost only the few extra doublings of the dictionary's
// slices. It keeps the collector off and takes the least of several single
// runs, since a batch made or reused depends on goroutine timing.
func TestReadCSVAllocsIndependentOfDistinct(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	allocs := func(n int) float64 {
		data := dictCaseCSV("s,i", n, func(r, c int) string {
			return []string{fmt.Sprintf("v%d", (r*7919)%(n-n/16)), strconv.Itoa(r % 100)}[c]
		})
		least := math.Inf(1)
		for range 5 {
			least = min(least, testing.AllocsPerRun(1, func() {
				if _, err := ReadCSV(strings.NewReader(data), "t", CSVOptions{}); err != nil {
					t.Fatal(err)
				}
			}))
		}
		return least
	}
	small, large := allocs(10_000), allocs(100_000)
	t.Logf("allocations: %v at 10,000 rows, %v at 100,000", small, large)
	if large > small+32 {
		t.Fatalf("ReadCSV allocates %v times for 10,000 rows, %v for 100,000", small, large)
	}
}
