package relation_test

import (
	"bytes"
	"testing"

	"ocd/internal/datagen"
	"ocd/internal/relation"
)

// lineItemCSV renders the 200,000 × 16 LINEITEM replica that the
// lineitem-rows benchmark workload loads: nine integer columns (three of
// high cardinality), two decimal columns, four low-cardinality strings and
// a near-unique comment.
func lineItemCSV(tb testing.TB) []byte {
	var buf bytes.Buffer
	if err := datagen.LineItem(200_000).WriteCSV(&buf); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// TestReadCSVLineItemMatchesReference: on the benchmark's LINEITEM
// replica, whose columns take the integer, dictionary and radix-sort
// paths and whose unquoted lines the byte-level splitter reads, ReadCSV
// equals the whole-file reference exactly.
func TestReadCSVLineItemMatchesReference(t *testing.T) {
	data := lineItemCSV(t)
	want, err := relation.ReferenceReadCSV(string(data), "LINEITEM", relation.CSVOptions{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := relation.ReadCSV(bytes.NewReader(data), "LINEITEM", relation.CSVOptions{})
	if err != nil {
		t.Fatal(err)
	}
	relation.AssertSameRelation(t, want, got)
}

// BenchmarkReadCSVLineItem times ReadCSV on the LINEITEM replica and
// reports MB/s and allocations per op. Both live in the external test
// package because datagen imports relation.
func BenchmarkReadCSVLineItem(b *testing.B) {
	data := lineItemCSV(b)
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := relation.ReadCSV(bytes.NewReader(data), "LINEITEM", relation.CSVOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}
