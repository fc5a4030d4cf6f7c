// Package lintutil holds helpers shared by the ocdlint analyzers:
// suppression comments and package-path classification.
//
// A finding is suppressed by a "// lint:allow <check>" comment on the
// offending line or on the line directly above it, e.g.
//
//	panic(err) // lint:allow panic — unreachable: input is validated
//
// One marker may name several checks, comma-separated:
//
//	out = append(out, k) // lint:allow mapdeterminism,errdrop — sorted below
//
// Check names are lower-case identifiers that may contain digits after
// the first letter (e.g. a future "sa1000"-style name).
package lintutil

import (
	"go/ast"
	"go/token"
	"regexp"
	"strings"
)

var allowRe = regexp.MustCompile(`lint:allow\s+([a-z][a-z0-9]*(?:[ \t]*,[ \t]*[a-z][a-z0-9]*)*)`)

// Allower answers suppression queries for one file.
type Allower struct {
	fset *token.FileSet
	// lines[check] holds the line numbers carrying a suppression
	// marker for that check.
	lines map[string]map[int]bool
}

// NewAllower scans the file's comments for suppression markers. The file
// must have been parsed with parser.ParseComments. A marker anywhere in
// a comment group covers the group's last line, so a multi-line
// justification above the offending statement still suppresses it.
func NewAllower(fset *token.FileSet, file *ast.File) *Allower {
	a := &Allower{fset: fset, lines: make(map[string]map[int]bool)}
	mark := func(check string, line int) {
		if a.lines[check] == nil {
			a.lines[check] = make(map[int]bool)
		}
		a.lines[check][line] = true
	}
	for _, cg := range file.Comments {
		for _, c := range cg.List {
			for _, check := range AllowedChecks(c.Text) {
				mark(check, fset.Position(c.Pos()).Line)
				mark(check, fset.Position(cg.End()).Line)
			}
		}
	}
	return a
}

// AllowedChecks returns the check names that the suppression markers
// in one comment's text name, in order of appearance.
func AllowedChecks(comment string) []string {
	var checks []string
	for _, m := range allowRe.FindAllStringSubmatch(comment, -1) {
		for _, check := range strings.Split(m[1], ",") {
			checks = append(checks, strings.TrimSpace(check))
		}
	}
	return checks
}

// Allows reports whether a finding of the given check at pos is
// suppressed: a marker sits on the same line or the line above.
func (a *Allower) Allows(pos token.Pos, check string) bool {
	ls := a.lines[check]
	if ls == nil {
		return false
	}
	line := a.fset.Position(pos).Line
	return ls[line] || ls[line-1]
}

// ExemptPath reports whether the import path is outside the lint gate:
// commands, example programs, test fixtures, the synthetic-data
// generator and vendored third-party code. Library packages (relation,
// order, core, attr, partition, the root package, …) are all subject.
func ExemptPath(path string) bool {
	for _, seg := range strings.Split(path, "/") {
		switch seg {
		case "cmd", "examples", "testdata", "datagen", "third_party":
			return true
		}
	}
	return false
}

// IsTestFile reports whether the file containing pos is a _test.go
// file; the gate exempts tests by design.
func IsTestFile(fset *token.FileSet, pos token.Pos) bool {
	return strings.HasSuffix(fset.File(pos).Name(), "_test.go")
}

// IsHot reports whether the function's doc comment carries the
// lint:hot marker that opts it into the hot-path analyzers
// (hotloopalloc, obshot, ctxflow's loop-poll rule).
func IsHot(fn *ast.FuncDecl) bool {
	return fn.Doc != nil && strings.Contains(fn.Doc.Text(), "lint:hot")
}

// DeclaresSorted reports whether the function declaration's doc
// comment carries the lint:sorted marker: a promise that the function
// places its receiver's (or argument's) elements into a canonical
// order, laundering map-iteration order. mapdeterminism treats a
// dominating call to such a function like a sort.* call.
func DeclaresSorted(fn *ast.FuncDecl) bool {
	return fn.Doc != nil && strings.Contains(fn.Doc.Text(), "lint:sorted")
}
