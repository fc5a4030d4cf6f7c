package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/analysis/multichecker"

	"ocd/internal/analysis/lintutil"
)

// cleanPkg is a small, dependency-light package of the module that the
// full suite reports nothing on; loading it exercises the whole
// driver pipeline (go list -export, gc importer, analyzer passes).
const cleanPkg = "ocd/internal/analysis/lintutil"

func TestJSONOutputCleanTree(t *testing.T) {
	var buf bytes.Buffer
	code := multichecker.Run(&buf, []string{cleanPkg}, analyzers, true)
	if code != 0 {
		t.Fatalf("exit code = %d on a clean package, want 0\noutput:\n%s", code, buf.String())
	}
	var diags []multichecker.JSONDiagnostic
	if err := json.Unmarshal(buf.Bytes(), &diags); err != nil {
		t.Fatalf("-json output is not a valid JSON array: %v\noutput:\n%s", err, buf.String())
	}
	if len(diags) != 0 {
		t.Errorf("expected an empty diagnostics array, got %d entries", len(diags))
	}
}

func TestJSONOutputWithFindings(t *testing.T) {
	// A synthetic analyzer reporting one finding per package pins down
	// the JSON schema and the findings exit code without depending on a
	// deliberately broken fixture package.
	noisy := &analysis.Analyzer{
		Name: "noisy",
		Doc:  "reports the package clause of every file",
		Run: func(pass *analysis.Pass) (interface{}, error) {
			for _, f := range pass.Files {
				pass.Report(analysis.Diagnostic{Pos: f.Package, Message: "package clause here"})
			}
			return nil, nil
		},
	}
	var buf bytes.Buffer
	code := multichecker.Run(&buf, []string{cleanPkg}, []*analysis.Analyzer{noisy}, true)
	if code != 3 {
		t.Fatalf("exit code = %d with findings, want 3", code)
	}
	var diags []multichecker.JSONDiagnostic
	if err := json.Unmarshal(buf.Bytes(), &diags); err != nil {
		t.Fatalf("-json output is not valid JSON: %v\noutput:\n%s", err, buf.String())
	}
	if len(diags) == 0 {
		t.Fatalf("expected diagnostics in JSON output")
	}
	d := diags[0]
	if d.Analyzer != "noisy" || d.Message != "package clause here" {
		t.Errorf("diagnostic fields wrong: %+v", d)
	}
	if d.File == "" || d.Line <= 0 || d.Col <= 0 {
		t.Errorf("position fields must be populated: %+v", d)
	}
	if !strings.HasSuffix(d.Posn, ":"+strconv.Itoa(d.Line)+":"+strconv.Itoa(d.Col)) {
		t.Errorf("posn %q does not match line %d col %d", d.Posn, d.Line, d.Col)
	}
}

func TestTextOutputWithFindings(t *testing.T) {
	noisy := &analysis.Analyzer{
		Name: "noisy",
		Doc:  "reports the package clause of every file",
		Run: func(pass *analysis.Pass) (interface{}, error) {
			for _, f := range pass.Files {
				pass.Report(analysis.Diagnostic{Pos: f.Package, Message: "package clause here"})
			}
			return nil, nil
		},
	}
	var buf bytes.Buffer
	code := multichecker.Run(&buf, []string{cleanPkg}, []*analysis.Analyzer{noisy}, false)
	if code != 3 {
		t.Fatalf("exit code = %d with findings, want 3", code)
	}
	if !strings.Contains(buf.String(), "package clause here (noisy)") {
		t.Errorf("text output missing expected line:\n%s", buf.String())
	}
}

// noisyAnalyzer reports one finding per file with the given name.
func noisyAnalyzer(name, msg string) *analysis.Analyzer {
	return &analysis.Analyzer{
		Name: name,
		Doc:  "test analyzer " + name,
		Run: func(pass *analysis.Pass) (interface{}, error) {
			for _, f := range pass.Files {
				pass.Report(analysis.Diagnostic{Pos: f.Package, Message: msg})
			}
			return nil, nil
		},
	}
}

func TestJSONOutputDeterministicallySorted(t *testing.T) {
	// Two analyzers registered in reverse name order, over two packages
	// given in reverse path order: output must come back sorted by
	// (package, file, line, col, analyzer, message), byte-identical
	// across runs.
	zz := noisyAnalyzer("zzfinder", "finding")
	aa := noisyAnalyzer("aafinder", "finding")
	pkgs := []string{"ocd/internal/analysis/lintutil", "ocd/internal/attr"}

	var first string
	for run := 0; run < 2; run++ {
		var buf bytes.Buffer
		code := multichecker.Run(&buf, pkgs, []*analysis.Analyzer{zz, aa}, true)
		if code != 3 {
			t.Fatalf("exit code = %d with findings, want 3", code)
		}
		if run == 0 {
			first = buf.String()
			continue
		}
		if buf.String() != first {
			t.Fatalf("-json output differs between identical runs:\n--- run 1\n%s\n--- run 2\n%s", first, buf.String())
		}
	}

	var diags []multichecker.JSONDiagnostic
	if err := json.Unmarshal([]byte(first), &diags); err != nil {
		t.Fatalf("bad json: %v", err)
	}
	if len(diags) < 4 {
		t.Fatalf("expected findings from 2 analyzers x 2 packages, got %d", len(diags))
	}
	for i := 1; i < len(diags); i++ {
		a, b := diags[i-1], diags[i]
		ka := a.Package + "\x00" + a.File + "\x00" + pad(a.Line) + pad(a.Col) + a.Analyzer + "\x00" + a.Message
		kb := b.Package + "\x00" + b.File + "\x00" + pad(b.Line) + pad(b.Col) + b.Analyzer + "\x00" + b.Message
		if ka > kb {
			t.Errorf("output not sorted at %d:\n%+v\n%+v", i, a, b)
		}
	}
	for _, d := range diags {
		if strings.HasPrefix(d.File, "/") {
			t.Errorf("file paths must be cwd-relative, got %q", d.File)
		}
	}
}

func pad(n int) string {
	return fmt.Sprintf("%08d\x00", n)
}

func TestFullSuiteHasSixAnalyzers(t *testing.T) {
	var names []string
	for _, a := range analyzers {
		names = append(names, a.Name)
	}
	want := "nopanic,hotloopalloc,obshot,errdrop,mapdeterminism,ctxflow"
	if got := strings.Join(names, ","); got != want {
		t.Fatalf("registered analyzers = %s, want %s", got, want)
	}
}

// TestAllowMarkersNameRegisteredAnalyzers requires every lint:allow
// marker in the module's Go comments (testdata and third_party aside)
// to name a registered analyzer. A marker naming a deleted analyzer
// suppresses nothing yet would hide a future finding on its line.
func TestAllowMarkersNameRegisteredAnalyzers(t *testing.T) {
	known := make(map[string]bool)
	for _, a := range analyzers {
		known[a.Name] = true
	}
	// nopanic's marker name is the builtin's, not the analyzer's.
	delete(known, "nopanic")
	known["panic"] = true

	root := filepath.Join("..", "..")
	fset := token.NewFileSet()
	files := 0
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			switch d.Name() {
			case "testdata", "third_party":
				return filepath.SkipDir
			}
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			return err
		}
		files++
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				for _, check := range lintutil.AllowedChecks(c.Text) {
					if !known[check] {
						t.Errorf("%s: lint:allow %s names no registered analyzer", fset.Position(c.Pos()), check)
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if files < 100 {
		t.Fatalf("scanned %d Go files from %s; the walk missed the module", files, root)
	}
}
