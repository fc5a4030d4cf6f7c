package lintutil_test

import (
	"go/parser"
	"go/token"
	"testing"

	"ocd/internal/analysis/lintutil"
)

// parse returns an Allower over src plus a line lookup: line(n) is the
// position of the first token on line n... positions are resolved via
// the file set, so tests express expectations in line numbers.
func newAllower(t *testing.T, src string) (*lintutil.Allower, func(line int) token.Pos) {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "x.go", src, parser.ParseComments)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	a := lintutil.NewAllower(fset, f)
	tf := fset.File(f.Pos())
	return a, func(line int) token.Pos { return tf.LineStart(line) }
}

func TestAllowerSameLine(t *testing.T) {
	src := `package p

func f() {
	panic("x") // lint:allow panic — unreachable
}
`
	a, line := newAllower(t, src)
	if !a.Allows(line(4), "panic") {
		t.Errorf("same-line marker on line 4 should suppress panic")
	}
	if a.Allows(line(4), "errdrop") {
		t.Errorf("marker names panic only; errdrop must not be suppressed")
	}
	if a.Allows(line(3), "panic") {
		t.Errorf("line 3 has no marker on it or above")
	}
}

func TestAllowerLineAbove(t *testing.T) {
	src := `package p

func f() {
	// lint:allow panic — input is validated upstream
	panic("x")
}
`
	a, line := newAllower(t, src)
	if !a.Allows(line(5), "panic") {
		t.Errorf("marker on the line above should suppress line 5")
	}
	if a.Allows(line(6), "panic") {
		t.Errorf("marker must not leak two lines down")
	}
}

func TestAllowerMultiLineGroup(t *testing.T) {
	// The marker sits on the first line of a multi-line justification;
	// the group's last line still counts as "the line above" the
	// offending statement.
	src := `package p

func f() {
	// lint:allow panic — this branch is provably dead:
	// the caller checks the invariant and the relation is
	// validated at load time.
	panic("x")
}
`
	a, line := newAllower(t, src)
	if !a.Allows(line(7), "panic") {
		t.Errorf("multi-line justification group should suppress the statement below it")
	}
}

func TestAllowerMultiCheck(t *testing.T) {
	src := `package p

func f() {
	g() // lint:allow mapdeterminism, errdrop — bounded buffer
	h() // lint:allow obshot,hotloopalloc
}

func g() {}
func h() {}
`
	a, line := newAllower(t, src)
	for _, check := range []string{"mapdeterminism", "errdrop"} {
		if !a.Allows(line(4), check) {
			t.Errorf("comma list with spaces should suppress %s on line 4", check)
		}
	}
	for _, check := range []string{"obshot", "hotloopalloc"} {
		if !a.Allows(line(5), check) {
			t.Errorf("comma list without spaces should suppress %s on line 5", check)
		}
	}
	if a.Allows(line(4), "obshot") {
		t.Errorf("line 4 marker does not name obshot")
	}
}

func TestAllowerDigitsInCheckName(t *testing.T) {
	src := `package p

func f() {
	g() // lint:allow sa1019, mapdeterminism — staticcheck-style name
}

func g() {}
`
	a, line := newAllower(t, src)
	if !a.Allows(line(4), "sa1019") {
		t.Errorf("check names with digits should parse")
	}
	if !a.Allows(line(4), "mapdeterminism") {
		t.Errorf("list after a digit-bearing name should still parse")
	}
}

func TestAllowerNoMarker(t *testing.T) {
	src := `package p

// just a comment mentioning lint:allow in prose? no: it matches by
// design, so keep the word split here — lint : allow.
func f() {}
`
	a, line := newAllower(t, src)
	for l := 1; l <= 5; l++ {
		if a.Allows(line(l), "panic") {
			t.Errorf("line %d: no marker present, nothing may be suppressed", l)
		}
	}
}

func TestExemptPath(t *testing.T) {
	tests := []struct {
		path   string
		exempt bool
	}{
		{"ocd", false},
		{"ocd/internal/order", false},
		{"ocd/internal/relation", false},
		{"ocd/internal/core", false},
		{"ocd/cmd/ocdlint", true},
		{"ocd/cmd/datagen", true},
		{"ocd/examples/quickstart", true},
		{"ocd/internal/datagen", true},
		{"ocd/internal/analysis/mapdeterminism/testdata/src/a", true},
		{"golang.org/x/tools/go/cfg", false}, // not vendored under a third_party segment
		{"example.com/third_party/pkg", true},
	}
	for _, tt := range tests {
		if got := lintutil.ExemptPath(tt.path); got != tt.exempt {
			t.Errorf("ExemptPath(%q) = %v, want %v", tt.path, got, tt.exempt)
		}
	}
}

func TestIsTestFile(t *testing.T) {
	fset := token.NewFileSet()
	for _, tt := range []struct {
		name string
		want bool
	}{
		{"order.go", false},
		{"order_test.go", true},
		{"testutil.go", false},
	} {
		f, err := parser.ParseFile(fset, tt.name, "package p", 0)
		if err != nil {
			t.Fatalf("parse %s: %v", tt.name, err)
		}
		if got := lintutil.IsTestFile(fset, f.Pos()); got != tt.want {
			t.Errorf("IsTestFile(%s) = %v, want %v", tt.name, got, tt.want)
		}
	}
}
