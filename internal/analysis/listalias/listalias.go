// Package listalias flags append calls on attr.List values whose
// result is bound to a different variable than the list appended to.
//
// attr.List is a slice; candidate pairs share list backing arrays
// across levels of the search tree and across worker goroutines. When
// cap(l) > len(l), append(l, a) writes a into the shared backing array
// before the result is even assigned — so
//
//	left := append(p.X, a)
//
// can corrupt every other candidate holding p.X. The attr package
// provides Append/Concat helpers that always copy; this
// analyzer steers callers to them by reporting any append whose first
// argument is an attr.List (including a slice field of a struct) that
// is not reassigned to the very same expression. Appending to a value
// that cannot alias (the result of a call, e.g. l.Clone()) is fine.
//
// Suppress a deliberate site with // lint:allow listalias.
package listalias

import (
	"go/ast"
	"go/types"

	"golang.org/x/tools/go/analysis"

	"ocd/internal/analysis/lintutil"
)

// Analyzer is the listalias analyzer.
var Analyzer = &analysis.Analyzer{
	Name: "listalias",
	Doc:  "flags append on attr.List values retained under a new name, which aliases the shared backing array (use attr helpers; suppress with // lint:allow listalias)",
	Run:  run,
}

func run(pass *analysis.Pass) (interface{}, error) {
	if lintutil.ExemptPath(pass.Pkg.Path()) {
		return nil, nil
	}
	for _, file := range pass.Files {
		if lintutil.IsTestFile(pass.Fset, file.Pos()) {
			continue
		}
		allow := lintutil.NewAllower(pass.Fset, file)
		report := func(call *ast.CallExpr) {
			if allow.Allows(call.Pos(), "listalias") {
				return
			}
			pass.Reportf(call.Pos(),
				"append result on attr.List %s is retained under a new name and aliases the shared backing array; use the attr Append/Concat helpers (or // lint:allow listalias)",
				types.ExprString(call.Args[0]))
		}
		ast.Inspect(file, func(n ast.Node) bool {
			switch stmt := n.(type) {
			case *ast.AssignStmt:
				if len(stmt.Lhs) != len(stmt.Rhs) {
					return true
				}
				for i, rhs := range stmt.Rhs {
					call := listAppend(pass, rhs)
					if call == nil {
						continue
					}
					if types.ExprString(stmt.Lhs[i]) == types.ExprString(call.Args[0]) {
						continue // l = append(l, …): idiomatic growth
					}
					report(call)
				}
			case *ast.ValueSpec:
				for _, v := range stmt.Values {
					if call := listAppend(pass, v); call != nil {
						report(call)
					}
				}
			case *ast.ReturnStmt:
				for _, v := range stmt.Results {
					if call := listAppend(pass, v); call != nil {
						report(call)
					}
				}
			}
			return true
		})
	}
	return nil, nil
}

// listAppend returns e as a call to the append builtin whose first
// argument is an aliasable attr.List expression, or nil.
func listAppend(pass *analysis.Pass, e ast.Expr) *ast.CallExpr {
	call, ok := e.(*ast.CallExpr)
	if !ok || len(call.Args) == 0 {
		return nil
	}
	id, ok := call.Fun.(*ast.Ident)
	if !ok || id.Name != "append" {
		return nil
	}
	if _, isBuiltin := pass.TypesInfo.Uses[id].(*types.Builtin); !isBuiltin {
		return nil
	}
	if !isAttrList(pass.TypesInfo.TypeOf(call.Args[0])) {
		return nil
	}
	// The result of a function call (l.Clone(), x.Concat(y), make(…))
	// is a fresh value no one else can alias.
	if _, fresh := call.Args[0].(*ast.CallExpr); fresh {
		return nil
	}
	return call
}

// isAttrList reports whether t is the named type List of an attr
// package (matched by package name so fixture packages work too).
func isAttrList(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "List" && obj.Pkg() != nil && obj.Pkg().Name() == "attr"
}
