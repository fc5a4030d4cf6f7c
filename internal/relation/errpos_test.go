package relation

import (
	"strings"
	"testing"
)

// These tests pin the 1-based row and column positions in relation parse
// errors: a user staring at a million-row CSV needs "row 40321, column 3",
// not a bare "value does not parse".

func TestRaggedRowErrorIsOneBased(t *testing.T) {
	_, err := FromStrings("t", []string{"A", "B"},
		[][]string{{"1", "2"}, {"3", "4"}, {"5"}}, Options{})
	if err == nil || !strings.Contains(err.Error(), "row 3 has 1 fields, want 2") {
		t.Fatalf("err = %v, want 1-based row 3", err)
	}
}

func TestFromIntsRaggedErrorIsOneBased(t *testing.T) {
	_, err := FromIntsErr("t", nil, [][]int{{1, 2}, {3}})
	if err == nil || !strings.Contains(err.Error(), "row 2 has 1 fields, want 2") {
		t.Fatalf("err = %v, want 1-based row 2", err)
	}
}

func TestCSVRaggedRowErrorIsOneBased(t *testing.T) {
	// Narrow data row: the first data row (CSV line 2) is "row 1".
	_, err := ReadCSV(strings.NewReader("a,b\n1,2\n3\n"), "t", CSVOptions{})
	if err == nil || !strings.Contains(err.Error(), "row 2 has 1 fields, want 2") {
		t.Fatalf("narrow: err = %v, want 1-based data row 2", err)
	}
	// Wide data row.
	_, err = ReadCSV(strings.NewReader("a,b\n1,2,3\n"), "t", CSVOptions{})
	if err == nil || !strings.Contains(err.Error(), "row 1 has 3 fields, want 2") {
		t.Fatalf("wide: err = %v, want 1-based data row 1", err)
	}
}

// Numeric coercion errors carry the 1-based row of the offending value.
// Type inference normally downgrades a column before ranking can fail, so
// this exercises the defensive path directly.
func TestCoercionErrorReportsRow(t *testing.T) {
	rank := func(kind Kind, vals ...string) error {
		e := newEncoder(1, nil, true)
		for _, s := range vals {
			e.addStrings([]string{s})
		}
		e.close()
		_, _, err := e.cols[0].rank(kind, e.cols[0].dict.values())
		return err
	}
	err := rank(KindInt, "1", "2", "x")
	if err == nil || !strings.Contains(err.Error(), `row 3: value "x" does not parse as INTEGER`) {
		t.Fatalf("int: err = %v, want row 3", err)
	}
	err = rank(KindFloat, "1.5", "y", "2.5")
	if err == nil || !strings.Contains(err.Error(), `row 2: value "y" does not parse as REAL`) {
		t.Fatalf("float: err = %v, want row 2", err)
	}
	// Duplicates share one dictionary entry; the reported row must still be
	// the first occurrence of the failing value.
	err = rank(KindInt, "1", "x", "x")
	if err == nil || !strings.Contains(err.Error(), "row 2:") {
		t.Fatalf("dedup: err = %v, want first occurrence row 2", err)
	}
}
