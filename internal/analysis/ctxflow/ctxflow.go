// Package ctxflow enforces the module's context discipline, the
// plumbing the cancellation layer depends on:
//
//  1. ctx-first — a context.Context parameter must be the function's
//     first parameter (after the receiver), matching the stdlib
//     convention every call site in the tree assumes;
//  2. no-store — context.Context must not be stored in a struct
//     field: a stored context outlives its cancellation scope and
//     resurfaces in goroutines that should have died with it (pass it
//     as a call argument instead);
//  3. hot-poll — inside a function marked `lint:hot`, every outermost
//     loop nest must poll a stop signal somewhere in its body:
//     ctx.Done()/ctx.Err(), a sync/atomic load (the stop-flag
//     pattern), or a call whose name mentions "stop" (c.stopped(),
//     stop.Load(), …). A hot loop that never polls keeps a cancelled
//     discovery run burning a full level fan-out before anyone looks
//     at the flag.
//
// Like every ocdlint finding, these block. Suppress a deliberate site
// with // lint:allow ctxflow.
package ctxflow

import (
	"go/ast"
	"go/types"
	"strings"

	"golang.org/x/tools/go/analysis"

	"ocd/internal/analysis/lintutil"
)

// Analyzer is the ctxflow analyzer.
var Analyzer = &analysis.Analyzer{
	Name: "ctxflow",
	Doc:  "checks context discipline: ctx is the first parameter, never stored in structs, and lint:hot loops poll a stop signal (suppress with // lint:allow ctxflow)",
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
		report := func(pos ast.Node, format string, args ...interface{}) {
			if !allow.Allows(pos.Pos(), "ctxflow") {
				pass.Reportf(pos.Pos(), format, args...)
			}
		}

		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.StructType:
				checkNoStore(pass, report, n)
			case *ast.FuncDecl:
				checkCtxFirst(pass, report, n.Type)
				if lintutil.IsHot(n) && n.Body != nil {
					checkHotLoops(pass, report, n.Body)
				}
			case *ast.FuncLit:
				checkCtxFirst(pass, report, n.Type)
			}
			return true
		})
	}
	return nil, nil
}

// isContextType reports whether t is context.Context.
func isContextType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "context" && obj.Name() == "Context"
}

// checkCtxFirst flags a context.Context parameter that is not the
// first parameter.
func checkCtxFirst(pass *analysis.Pass, report func(ast.Node, string, ...interface{}), ftype *ast.FuncType) {
	if ftype.Params == nil {
		return
	}
	idx := 0
	for _, field := range ftype.Params.List {
		n := len(field.Names)
		if n == 0 {
			n = 1 // unnamed parameter still occupies a position
		}
		if t := pass.TypesInfo.Types[field.Type].Type; t != nil && isContextType(t) {
			if idx > 0 {
				report(field, "context.Context must be the first parameter, found at position %d: call sites across the tree assume the stdlib convention (// lint:allow ctxflow to suppress)", idx+1)
			}
		}
		idx += n
	}
}

// checkNoStore flags struct fields of type context.Context.
func checkNoStore(pass *analysis.Pass, report func(ast.Node, string, ...interface{}), st *ast.StructType) {
	for _, field := range st.Fields.List {
		if t := pass.TypesInfo.Types[field.Type].Type; t != nil && isContextType(t) {
			report(field, "context.Context stored in a struct field: a stored context outlives its cancellation scope; pass it as a function argument instead (// lint:allow ctxflow to suppress)")
		}
	}
}

// checkHotLoops flags each outermost loop nest of a lint:hot function
// that never polls a stop signal. Nested function literals are part of
// the nest they appear in — a poll inside an inline closure still
// guards the loop around it.
func checkHotLoops(pass *analysis.Pass, report func(ast.Node, string, ...interface{}), body *ast.BlockStmt) {
	var visit func(n ast.Node)
	visit = func(n ast.Node) {
		switch n.(type) {
		case *ast.ForStmt, *ast.RangeStmt:
			if !pollsStop(pass.TypesInfo, n) {
				report(n, "hot loop never polls a stop signal: a cancelled run keeps burning until the loop ends; check ctx.Done()/ctx.Err() or an atomic stop flag each iteration or batch (// lint:allow ctxflow to suppress)")
			}
			return // inner loops are covered by the outermost verdict
		}
		children(n, visit)
	}
	children(body, visit)
}

// children invokes visit on each direct child of n.
func children(n ast.Node, visit func(ast.Node)) {
	first := true
	ast.Inspect(n, func(m ast.Node) bool {
		if first {
			first = false
			return true
		}
		if m != nil {
			visit(m)
		}
		return false
	})
}

// pollsStop reports whether the subtree contains a stop-signal poll:
// ctx.Done()/ctx.Err() on a context.Context receiver, any sync/atomic
// load (the stop-flag pattern), or a call whose printed callee mentions
// "stop".
func pollsStop(info *types.Info, n ast.Node) bool {
	found := false
	ast.Inspect(n, func(m ast.Node) bool {
		if found {
			return false
		}
		call, ok := m.(*ast.CallExpr)
		if !ok {
			return true
		}
		if strings.Contains(strings.ToLower(types.ExprString(call.Fun)), "stop") {
			found = true
			return false
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if fn, ok := info.Uses[sel.Sel].(*types.Func); ok && fn.Pkg() != nil {
			switch fn.Pkg().Path() {
			case "context":
				// Interface methods: Done and Err are polls.
				if fn.Name() == "Done" || fn.Name() == "Err" {
					found = true
				}
			case "sync/atomic":
				if strings.HasPrefix(fn.Name(), "Load") || fn.Name() == "Load" {
					found = true
				}
			}
		}
		return !found
	})
	return found
}
