// Package errdrop finds dropped errors from module-local calls with a
// CFG-based must-use dataflow.
//
// The module grew error-returning variants of its constructors
// (relation.FromIntsErr, the CSV reader, depfile parsing) precisely so
// callers can surface bad input instead of crashing mid-traversal; an
// error silently dropped at the call site defeats that. Three shapes
// are reported, for calls to functions defined in this module (stdlib
// and external errors follow their own conventions and are left to
// other tools):
//
//  1. a bare call statement whose last result is an error
//     (`relation.FromIntsErr(rows)` as a statement);
//  2. an error result assigned to the blank identifier
//     (`v, _ := compute()`);
//  3. an error bound to a variable that, on some control-flow path, is
//     neither read (compared, returned, passed on, captured) nor
//     overwritten before the function returns.
//
// Shape 3 is the one an AST pattern cannot see: `err` checked in the
// happy path but leaked by an early return three statements later.
//
// The check is summary-aware: passing an error to a module-local
// function whose summary (cfgutil.FuncFact) says the parameter is
// never read does not count as a use — `discard(err)` launders nothing
// even when discard lives two packages away. Suppress a deliberate site with // lint:allow errdrop.
package errdrop

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/cfg"

	"ocd/internal/analysis/cfgutil"
	"ocd/internal/analysis/lintutil"
)

// Analyzer is the errdrop analyzer.
var Analyzer = &analysis.Analyzer{
	Name:      "errdrop",
	Doc:       "flags module-local error results that are discarded or never checked on some path (suppress with // lint:allow errdrop)",
	FactTypes: cfgutil.FactTypes,
	Run:       run,
}

func run(pass *analysis.Pass) (interface{}, error) {
	if lintutil.ExemptPath(pass.Pkg.Path()) {
		return nil, nil
	}
	sum := cfgutil.ComputeSummaries(pass)
	modPrefix := modulePrefix(pass.Pkg.Path())
	for _, file := range pass.Files {
		if lintutil.IsTestFile(pass.Fset, file.Pos()) {
			continue
		}
		allow := lintutil.NewAllower(pass.Fset, file)
		for _, fb := range cfgutil.Bodies(file) {
			checkFunc(pass, allow, modPrefix, sum, fb)
		}
	}
	return nil, nil
}

// modulePrefix returns the leading path segment identifying this
// module ("ocd" for ocd/internal/order); a call is module-local when
// its package shares that segment.
func modulePrefix(pkgPath string) string {
	if i := strings.IndexByte(pkgPath, '/'); i >= 0 {
		return pkgPath[:i]
	}
	return pkgPath
}

func checkFunc(pass *analysis.Pass, allow *lintutil.Allower, modPrefix string, sum *cfgutil.Summaries, fb cfgutil.FuncBody) {
	info := pass.TypesInfo
	body := fb.Body
	var g *cfg.CFG // built lazily: most functions have no flagged defs
	discarded := discardedArgs(info, sum, body)

	report := func(pos token.Pos, format string, args ...interface{}) {
		if !allow.Allows(pos, "errdrop") {
			pass.Reportf(pos, format, args...)
		}
	}

	cfgutil.WalkNodeSkipFuncLit(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.ExprStmt:
			call, ok := ast.Unparen(n.X).(*ast.CallExpr)
			if !ok {
				return true
			}
			name, ok := moduleErrCall(info, modPrefix, pass.Pkg, call)
			if !ok {
				return true
			}
			report(call.Pos(), "error result of %s is dropped: handle it or assign it (// lint:allow errdrop to suppress)", name)
			return true

		case *ast.AssignStmt:
			// Single multi-value call on the RHS: x, err := f().
			if len(n.Rhs) != 1 {
				// Parallel assignment: each RHS aligns 1:1 with LHS.
				for i, rhs := range n.Rhs {
					call, ok := ast.Unparen(rhs).(*ast.CallExpr)
					if !ok || i >= len(n.Lhs) {
						continue
					}
					name, ok := moduleErrCall(info, modPrefix, pass.Pkg, call)
					if !ok {
						continue
					}
					checkBinding(pass, report, info, &g, body, discarded, n, n.Lhs[i], call.Pos(), name)
				}
				return true
			}
			call, ok := ast.Unparen(n.Rhs[0]).(*ast.CallExpr)
			if !ok {
				return true
			}
			name, ok := moduleErrCall(info, modPrefix, pass.Pkg, call)
			if !ok {
				return true
			}
			// The error is the last result; with n results the last
			// LHS binds it.
			if len(n.Lhs) == 0 {
				return true
			}
			checkBinding(pass, report, info, &g, body, discarded, n, n.Lhs[len(n.Lhs)-1], call.Pos(), name)
		}
		return true
	})
}

// discardedArgs collects the identifiers passed as arguments to
// module-local callees whose summaries prove the parameter is never
// read. Such a pass does not count as a use of the error.
func discardedArgs(info *types.Info, sum *cfgutil.Summaries, body *ast.BlockStmt) map[*ast.Ident]bool {
	var out map[*ast.Ident]bool
	cfgutil.WalkNodeSkipFuncLit(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		ff, fn, ok := sum.ForCall(call)
		if !ok || ff.IgnoredParams == 0 {
			return true
		}
		sig, ok := fn.Type().(*types.Signature)
		if !ok || sig.Variadic() {
			return true // variadic shifts indices; stay conservative
		}
		for j, arg := range call.Args {
			if j >= 32 || j >= sig.Params().Len() {
				break
			}
			if ff.IgnoredParams&(1<<uint(j)) == 0 {
				continue
			}
			if id, ok := ast.Unparen(arg).(*ast.Ident); ok {
				if out == nil {
					out = make(map[*ast.Ident]bool)
				}
				out[id] = true
			}
		}
		return true
	})
	return out
}

// checkBinding inspects the expression lhs that receives an error
// result: blank discards are reported outright; plain variables get
// the must-use dataflow.
func checkBinding(pass *analysis.Pass, report func(token.Pos, string, ...interface{}), info *types.Info, g **cfg.CFG, body *ast.BlockStmt, discarded map[*ast.Ident]bool, assign *ast.AssignStmt, lhs ast.Expr, pos token.Pos, name string) {
	id, ok := ast.Unparen(lhs).(*ast.Ident)
	if !ok {
		return // stored through a selector/index: visible elsewhere, assume used
	}
	if id.Name == "_" {
		report(pos, "error result of %s is discarded (assigned to _): handle it or justify with // lint:allow errdrop", name)
		return
	}
	obj := info.Defs[id]
	if obj == nil {
		obj = info.Uses[id]
	}
	v, ok := obj.(*types.Var)
	if !ok {
		return
	}
	if *g == nil {
		*g = cfgutil.New(body, info)
	}
	if p, bad := uncheckedPath(*g, info, discarded, assign, v); bad {
		where := ""
		if p.IsValid() {
			where = " (path escaping at " + pass.Fset.Position(p).String() + ")"
		}
		report(pos, "error result of %s may be ignored: %s is not checked on every path before being overwritten or going out of scope%s", name, id.Name, where)
	}
}

// moduleErrCall reports whether call invokes a function defined in
// this module whose final result is an error, returning a display
// name.
func moduleErrCall(info *types.Info, modPrefix string, pkg *types.Package, call *ast.CallExpr) (string, bool) {
	var fn *types.Func
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ = info.Uses[fun].(*types.Func)
	case *ast.SelectorExpr:
		fn, _ = info.Uses[fun.Sel].(*types.Func)
	}
	if fn == nil || fn.Pkg() == nil {
		return "", false
	}
	path := fn.Pkg().Path()
	if path != pkg.Path() && path != modPrefix && !strings.HasPrefix(path, modPrefix+"/") {
		return "", false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Results().Len() == 0 {
		return "", false
	}
	last := sig.Results().At(sig.Results().Len() - 1).Type()
	named, ok := last.(*types.Named)
	if !ok || named.Obj().Pkg() != nil || named.Obj().Name() != "error" {
		return "", false
	}
	if fn.Pkg().Path() == pkg.Path() {
		return fn.Name(), true
	}
	return fn.Pkg().Name() + "." + fn.Name(), true
}

// uncheckedPath runs the must-use dataflow: starting at the assignment
// node, is there a control-flow path on which v is redefined or the
// function exits normally before any read of v? It returns the
// position where the bad path escapes (the redefinition, or NoPos for
// a fall-off exit) and whether such a path exists.
func uncheckedPath(g *cfg.CFG, info *types.Info, discarded map[*ast.Ident]bool, assign *ast.AssignStmt, v *types.Var) (token.Pos, bool) {
	// Locate the assign node's block and index.
	var home *cfg.Block
	homeIdx := -1
	for _, b := range g.Blocks {
		if !b.Live {
			continue
		}
		for i, n := range b.Nodes {
			if n == ast.Node(assign) {
				home, homeIdx = b, i
				break
			}
		}
		if home != nil {
			break
		}
	}
	if home == nil {
		return token.NoPos, false // dead code or not found: nothing to prove
	}

	type visit struct {
		b    *cfg.Block
		from int // first node index to scan
	}
	seen := make(map[*cfg.Block]bool)
	stack := []visit{{home, homeIdx + 1}}
	exitOK := exitBlocks(g, info)
	for len(stack) > 0 {
		vis := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		resolved := false
		for i := vis.from; i < len(vis.b.Nodes) && !resolved; i++ {
			switch use := scanNode(info, discarded, vis.b.Nodes[i], v); use {
			case useRead:
				resolved = true // this path checks the error
			case useWrite:
				return vis.b.Nodes[i].Pos(), true // clobbered before any read
			}
		}
		if resolved {
			continue
		}
		if len(vis.b.Succs) == 0 {
			if exitOK[vis.b] {
				return token.NoPos, true // normal exit, error never read
			}
			continue // panic/os.Exit path: not a leak we report
		}
		for _, succ := range vis.b.Succs {
			if !seen[succ] {
				seen[succ] = true
				stack = append(stack, visit{succ, 0})
			}
		}
	}
	return token.NoPos, false
}

func exitBlocks(g *cfg.CFG, info *types.Info) map[*cfg.Block]bool {
	out := make(map[*cfg.Block]bool)
	for _, b := range cfgutil.Exits(g, info) {
		out[b] = true
	}
	return out
}

type useKind int

const (
	useNone useKind = iota
	useRead
	useWrite
)

// scanNode classifies the first relevant appearance of v inside node
// n: a read (any use outside an assignment LHS — comparisons, returns,
// arguments, captures by a closure) or a write (plain reassignment).
// Reads win: `err = wrap(err)` consumes the old value. An ident in the
// discarded set — passed to a callee that provably never reads that
// parameter — is neither: the path continues unresolved past it.
func scanNode(info *types.Info, discarded map[*ast.Ident]bool, n ast.Node, v *types.Var) useKind {
	kind := useNone
	// Writes: idents in assignment LHS positions.
	writes := make(map[*ast.Ident]bool)
	ast.Inspect(n, func(m ast.Node) bool {
		if as, ok := m.(*ast.AssignStmt); ok {
			for _, lhs := range as.Lhs {
				if id, ok := ast.Unparen(lhs).(*ast.Ident); ok {
					writes[id] = true
				}
			}
		}
		return true
	})
	ast.Inspect(n, func(m ast.Node) bool {
		if kind == useRead {
			return false
		}
		id, ok := m.(*ast.Ident)
		if !ok {
			return true
		}
		obj := info.Uses[id]
		if obj == nil {
			obj = info.Defs[id]
		}
		if obj != v {
			return true
		}
		if writes[id] {
			if kind == useNone {
				kind = useWrite
			}
			return true
		}
		if discarded[id] {
			return true // laundered into a never-read parameter
		}
		kind = useRead
		return false
	})
	return kind
}
