package cfgutil_test

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"testing"

	"golang.org/x/tools/go/analysis"

	"ocd/internal/analysis/cfgutil"
)

// loadPkg type-checks src as a single-file package with the given
// import path and returns everything needed to assemble a Pass.
func loadPkg(t *testing.T, path, src string, imp types.Importer) (*ast.File, *token.FileSet, *types.Info, *types.Package) {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "x.go", src, parser.ParseComments)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	info := &types.Info{
		Uses:       make(map[*ast.Ident]types.Object),
		Defs:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Types:      make(map[ast.Expr]types.TypeAndValue),
	}
	if imp == nil {
		imp = importer.Default()
	}
	conf := types.Config{Importer: imp}
	pkg, err := conf.Check(path, fset, []*ast.File{f}, info)
	if err != nil {
		t.Fatalf("type-check %s: %v", path, err)
	}
	return f, fset, info, pkg
}

func makePass(f *ast.File, fset *token.FileSet, info *types.Info, pkg *types.Package) *analysis.Pass {
	return &analysis.Pass{
		Analyzer:  &analysis.Analyzer{Name: "summarytest", FactTypes: cfgutil.FactTypes},
		Fset:      fset,
		Files:     []*ast.File{f},
		Pkg:       pkg,
		TypesInfo: info,
	}
}

// importerFunc adapts a function to types.Importer so the second
// package of the round-trip test can resolve the first.
type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// TestSummaryRoundTripAcrossPackages drives the whole fact path: one
// FactStore wired to two passes, summaries exported by the dependency
// and imported by a consumer in a different package of the same
// module. Emit reaches a sink through a local helper, so its fact also
// shows the intra-package fixpoint closed before export.
func TestSummaryRoundTripAcrossPackages(t *testing.T) {
	depSrc := `package dep

import "fmt"

// Discard drops its error.
func Discard(err error) {}

// Emit prints its argument through show.
func Emit(xs []string) { show(xs) }

func show(v []string) { fmt.Println(v) }
`
	mSrc := `package m

import "mod/dep"

func Use() {
	dep.Discard(nil)
	dep.Emit(nil)
}
`
	depFile, depFset, depInfo, depPkg := loadPkg(t, "mod/dep", depSrc, nil)
	mFile, mFset, mInfo, mPkg := loadPkg(t, "mod/m", mSrc, importerFunc(func(path string) (*types.Package, error) {
		if path == "mod/dep" {
			return depPkg, nil
		}
		return importer.Default().Import(path)
	}))

	store := analysis.NewFactStore()
	depPass := makePass(depFile, depFset, depInfo, depPkg)
	store.WirePass(depPass)
	cfgutil.ComputeSummaries(depPass)

	mPass := makePass(mFile, mFset, mInfo, mPkg)
	store.WirePass(mPass)
	sum := cfgutil.ComputeSummaries(mPass)

	// Facts flow: the consumer resolves dep's functions by call site.
	var discardFF, emitFF *cfgutil.FuncFact
	ast.Inspect(mFile, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if ff, fn, ok := sum.ForCall(call); ok {
			switch fn.Name() {
			case "Discard":
				discardFF = ff
			case "Emit":
				emitFF = ff
			}
		}
		return true
	})
	if discardFF == nil || discardFF.IgnoredParams&1 == 0 {
		t.Errorf("Discard fact = %+v, want IgnoredParams bit 0", discardFF)
	}
	if emitFF == nil || emitFF.EmitParams&1 == 0 {
		t.Errorf("Emit fact = %+v, want EmitParams bit 0", emitFF)
	}
}
