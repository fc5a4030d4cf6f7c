// Package mapdeterminism flags code whose observable output depends on
// Go's randomized map-iteration order. The paper pipeline's results —
// discovered dependency sets, partition classes, checkpoint payloads,
// benchmark JSON — are diffed byte-for-byte across runs (the
// resume_chaos differential), so any map-ordered emission is a
// reproducibility bug even when the set of elements is right.
//
// Inside every `for … range m` over a map, the analyzer flags order
// escapes where the iterated key or value (directly, or one hop
// through a local accumulator) reaches:
//
//   - a slice that the function returns — including slices reached
//     through a named result, the method receiver, or a returned
//     variable's fields (`out.Classes = append(out.Classes, …)` with
//     `return out`);
//   - a stream emitter: fmt.Print/Printf/Println/Fprint/Fprintf/
//     Fprintln (Sprint* builds a value and is judged where that value
//     flows), a (*json.Encoder).Encode, or any call into a checkpoint
//     package;
//   - a channel send.
//
// An escape is laundered — and exempt — when a later call re-orders
// the data: any sort.* call, a slices.Sort* call, or a call to a
// function whose doc comment carries the lint:sorted marker (a promise
// that it places its argument's or receiver's elements into a
// canonical order), mentioning the same accumulator. The lint:sorted
// and emit judgments are summary-aware (cfgutil.FuncFact), so both
// work across package boundaries: a helper in another module package
// that sorts — or emits — its argument is honored, and a call whose
// summary marks its results map-ordered (`keys := maputil.Keys(m)`)
// taints the receiving local exactly like an inline range-append.
// Emissions that do not mention the iteration variables (e.g. counting
// elements, or copying into another map, whose JSON encoding sorts
// keys) are order-insensitive and never flagged. Suppress a deliberate
// site with // lint:allow mapdeterminism.
package mapdeterminism

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"golang.org/x/tools/go/analysis"

	"ocd/internal/analysis/cfgutil"
	"ocd/internal/analysis/lintutil"
)

// Analyzer is the mapdeterminism analyzer.
var Analyzer = &analysis.Analyzer{
	Name:      "mapdeterminism",
	Doc:       "flags map-iteration order escaping into returned slices, stream output, checkpoints or channels without a sort (suppress with // lint:allow mapdeterminism)",
	FactTypes: cfgutil.FactTypes,
	Run:       run,
}

func run(pass *analysis.Pass) (interface{}, error) {
	if lintutil.ExemptPath(pass.Pkg.Path()) {
		return nil, nil
	}
	sum := cfgutil.ComputeSummaries(pass)
	sorted := sortedFuncs(pass)
	for _, file := range pass.Files {
		if lintutil.IsTestFile(pass.Fset, file.Pos()) {
			continue
		}
		allow := lintutil.NewAllower(pass.Fset, file)
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkScope(pass, allow, sorted, sum, fd.Body, fd.Recv, fd.Type)
			// Nested literals are separate scopes with their own
			// returns; an accumulator shared with the enclosing
			// function is judged in the literal's scope only.
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if lit, ok := n.(*ast.FuncLit); ok {
					checkScope(pass, allow, sorted, sum, lit.Body, nil, lit.Type)
				}
				return true
			})
		}
	}
	return nil, nil
}

// sortedFuncs indexes the package's lint:sorted function declarations.
func sortedFuncs(pass *analysis.Pass) map[types.Object]bool {
	out := make(map[types.Object]bool)
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && lintutil.DeclaresSorted(fd) {
				if obj := pass.TypesInfo.Defs[fd.Name]; obj != nil {
					out[obj] = true
				}
			}
		}
	}
	return out
}

// escape is one order-dependent append recorded inside a map range, or
// a local receiving a call result the callee's summary marks tainted.
type escape struct {
	pos      token.Pos    // the append call, where the finding anchors
	root     types.Object // accumulator root (local, result, or receiver)
	returned bool         // root is already known to escape to the caller
	rangeEnd token.Pos    // laundering must happen after the loop
	display  string
	via      string // callee name when the taint arrived through a call summary
}

func checkScope(pass *analysis.Pass, allow *lintutil.Allower, sorted map[types.Object]bool, sum *cfgutil.Summaries, body *ast.BlockStmt, recv *ast.FieldList, ftype *ast.FuncType) {
	info := pass.TypesInfo

	// Roots visible to the caller: the receiver, named results, and
	// the root object of every returned expression.
	returned := make(map[types.Object]bool)
	if recv != nil {
		for _, f := range recv.List {
			for _, name := range f.Names {
				if obj := info.Defs[name]; obj != nil {
					returned[obj] = true
				}
			}
		}
	}
	if ftype.Results != nil {
		for _, f := range ftype.Results.List {
			for _, name := range f.Names {
				if obj := info.Defs[name]; obj != nil {
					returned[obj] = true
				}
			}
		}
	}
	cfgutil.WalkNodeSkipFuncLit(body, func(n ast.Node) bool {
		ret, ok := n.(*ast.ReturnStmt)
		if !ok {
			return true
		}
		for _, res := range ret.Results {
			if obj := cfgutil.RootObject(info, res); obj != nil {
				returned[obj] = true
			}
		}
		return true
	})

	report := func(pos token.Pos, format string, args ...interface{}) {
		if !allow.Allows(pos, "mapdeterminism") {
			pass.Reportf(pos, format, args...)
		}
	}

	var escapes []escape
	// processRange scans one map-range body for order escapes; nested
	// map ranges recurse with the accumulated iteration variables so
	// each sink is visited exactly once, under every var that taints it.
	var processRange func(rng *ast.RangeStmt, outer []types.Object)
	processRange = func(rng *ast.RangeStmt, outer []types.Object) {
		iterVars := append(append([]types.Object(nil), outer...), rangeVars(info, rng)...)
		cfgutil.WalkNodeSkipFuncLit(rng.Body, func(m ast.Node) bool {
			switch m := m.(type) {
			case *ast.RangeStmt:
				if isMapType(info, m.X) {
					processRange(m, iterVars)
					return false
				}
			case *ast.SendStmt:
				if mentionsAny(info, m.Value, iterVars) {
					report(m.Pos(), "map-iteration order escapes into a channel send: receivers observe a different order every run; collect and sort before sending (// lint:allow mapdeterminism to suppress)")
				}
			case *ast.CallExpr:
				if what, ok := emitSink(info, m); ok && callMentionsAny(info, m, iterVars) {
					report(m.Pos(), "map-iteration order escapes into %s: output differs between runs; collect the entries, sort, then emit (// lint:allow mapdeterminism to suppress)", what)
				}
				// A summary-emitting callee is the same sink one call
				// away: the helper prints or sends what we pass it.
				if ff, fn, ok := sum.ForCall(m); ok && ff.EmitParams != 0 {
					for j, arg := range m.Args {
						if j >= 32 {
							break
						}
						if ff.EmitParams&(1<<uint(j)) != 0 && mentionsAny(info, arg, iterVars) {
							report(m.Pos(), "map-iteration order escapes into %s, which emits its argument: output differs between runs; collect the entries, sort, then emit (// lint:allow mapdeterminism to suppress)", fn.Name())
							break
						}
					}
				}
			case *ast.AssignStmt:
				for i, rhs := range m.Rhs {
					call, ok := ast.Unparen(rhs).(*ast.CallExpr)
					if !ok || !isAppend(info, call) || !callMentionsAny(info, call, iterVars) {
						continue
					}
					if i >= len(m.Lhs) {
						continue
					}
					root := cfgutil.RootObject(info, m.Lhs[i])
					if root == nil {
						continue
					}
					escapes = append(escapes, escape{
						pos:      call.Pos(),
						root:     root,
						returned: returned[root],
						rangeEnd: rng.End(),
						display:  types.ExprString(m.Lhs[i]),
					})
				}
			}
			return true
		})
	}
	cfgutil.WalkNodeSkipFuncLit(body, func(n ast.Node) bool {
		if rng, ok := n.(*ast.RangeStmt); ok && isMapType(info, rng.X) {
			if len(rangeVars(info, rng)) == 0 {
				return true // `for range m`: pure counting, order-free
			}
			processRange(rng, nil)
			return false
		}
		return true
	})

	// A call whose summary marks a result map-ordered taints the local
	// receiving it: `keys := maputil.Keys(m)` two packages away is the
	// same escape as an inline range-append.
	cfgutil.WalkNodeSkipFuncLit(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Rhs) != 1 {
			return true
		}
		call, ok := ast.Unparen(as.Rhs[0]).(*ast.CallExpr)
		if !ok {
			return true
		}
		ff, fn, ok := sum.ForCall(call)
		if !ok || ff.TaintedReturns == 0 {
			return true
		}
		for i, lhs := range as.Lhs {
			if i >= 32 || ff.TaintedReturns&(1<<uint(i)) == 0 {
				continue
			}
			root := cfgutil.RootObject(info, lhs)
			if root == nil {
				continue
			}
			escapes = append(escapes, escape{
				pos:      call.Pos(),
				root:     root,
				returned: returned[root],
				rangeEnd: as.End(),
				display:  types.ExprString(lhs),
				via:      fn.Name(),
			})
		}
		return true
	})

	for _, esc := range escapes {
		if launderedAfter(info, sorted, sum, body, esc.root, esc.rangeEnd) {
			continue
		}
		lead := esc.display + " is appended in map-iteration order"
		if esc.via != "" {
			lead = esc.display + " receives map-iteration-ordered elements from " + esc.via
		}
		if esc.returned {
			report(esc.pos, "%s and escapes to the caller: element order differs between runs; sort it after the loop or route it through a lint:sorted helper (// lint:allow mapdeterminism to suppress)", lead)
			continue
		}
		// One hop: the accumulator is a plain local — flag only if it
		// later reaches a return, an emitter, a channel, or a returned
		// root.
		if hop := localFlowsOut(info, sum, body, returned, esc); hop != "" {
			report(esc.pos, "%s and later %s without sorting: order differs between runs; sort it after the loop or route it through a lint:sorted helper (// lint:allow mapdeterminism to suppress)", lead, hop)
		}
	}
}

func isMapType(info *types.Info, e ast.Expr) bool {
	t := info.Types[e].Type
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Map)
	return ok
}

// rangeVars returns the objects bound to the range's key and value.
func rangeVars(info *types.Info, rng *ast.RangeStmt) []types.Object {
	var out []types.Object
	for _, e := range []ast.Expr{rng.Key, rng.Value} {
		id, ok := e.(*ast.Ident)
		if !ok || id.Name == "_" {
			continue
		}
		obj := info.Defs[id]
		if obj == nil {
			obj = info.Uses[id] // `k = range m` with an existing var
		}
		if obj != nil {
			out = append(out, obj)
		}
	}
	return out
}

func mentionsObj(info *types.Info, n ast.Node, obj types.Object) bool {
	found := false
	ast.Inspect(n, func(m ast.Node) bool {
		if id, ok := m.(*ast.Ident); ok && info.Uses[id] == obj {
			found = true
		}
		return !found
	})
	return found
}

func mentionsAny(info *types.Info, n ast.Node, objs []types.Object) bool {
	for _, obj := range objs {
		if mentionsObj(info, n, obj) {
			return true
		}
	}
	return false
}

func callMentionsAny(info *types.Info, call *ast.CallExpr, objs []types.Object) bool {
	for _, arg := range call.Args {
		if mentionsAny(info, arg, objs) {
			return true
		}
	}
	return false
}

// emitSink classifies call as a stream emitter whose argument order is
// observable: fmt's printing family (not Sprint*, which builds a value
// judged where it flows), (*json.Encoder).Encode, or any call into a
// checkpoint package.
func emitSink(info *types.Info, call *ast.CallExpr) (string, bool) {
	fn := calleeFunc(info, call)
	if fn == nil || fn.Pkg() == nil {
		return "", false
	}
	switch fn.Pkg().Path() {
	case "fmt":
		switch fn.Name() {
		case "Print", "Printf", "Println", "Fprint", "Fprintf", "Fprintln":
			return "fmt." + fn.Name(), true
		}
	case "encoding/json":
		if fn.Name() == "Encode" {
			return "a JSON encoder", true
		}
	}
	if path := fn.Pkg().Path(); path == "checkpoint" || strings.HasSuffix(path, "/checkpoint") {
		return "checkpoint encoding (" + fn.Name() + ")", true
	}
	return "", false
}

func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := info.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := info.Uses[fun.Sel].(*types.Func)
		return fn
	}
	return nil
}

func isAppend(info *types.Info, call *ast.CallExpr) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return false
	}
	b, ok := info.Uses[id].(*types.Builtin)
	return ok && b.Name() == "append"
}

// launderedAfter reports whether a call after pos re-orders data
// rooted at root: sort.*, slices.Sort*, a same-package lint:sorted
// function, or a module-local callee whose summary promises a sort of
// the matching argument or receiver, with root mentioned there.
func launderedAfter(info *types.Info, sorted map[types.Object]bool, sum *cfgutil.Summaries, body *ast.BlockStmt, root types.Object, pos token.Pos) bool {
	found := false
	cfgutil.WalkNodeSkipFuncLit(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() <= pos || found {
			return !found
		}
		fn := calleeFunc(info, call)
		if fn == nil {
			return true
		}
		launders := false
		if pkg := fn.Pkg(); pkg != nil {
			switch pkg.Path() {
			case "sort":
				launders = true
			case "slices":
				launders = strings.HasPrefix(fn.Name(), "Sort")
			}
		}
		if !launders && !sorted[fn] {
			// Cross-package: the callee's summary carries the promise.
			if ff, _, ok := sum.ForCall(call); ok {
				if ff.SortsRecv {
					if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok && mentionsObj(info, sel.X, root) {
						found = true
						return false
					}
				}
				for j, arg := range call.Args {
					if j >= 32 {
						break
					}
					if ff.SortsParams&(1<<uint(j)) != 0 && mentionsObj(info, arg, root) {
						found = true
						return false
					}
				}
			}
			return true
		}
		if callMentionsAny(info, call, []types.Object{root}) {
			found = true
			return false
		}
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok && mentionsObj(info, sel.X, root) {
			found = true
			return false
		}
		return true
	})
	return found
}

// localFlowsOut reports how a local accumulator escapes after the
// loop: returned, emitted (directly or via a summary-emitting callee),
// sent on a channel, or copied into a root the caller sees. Empty
// string means it stays internal.
func localFlowsOut(info *types.Info, sum *cfgutil.Summaries, body *ast.BlockStmt, returned map[types.Object]bool, esc escape) string {
	hop := ""
	cfgutil.WalkNodeSkipFuncLit(body, func(n ast.Node) bool {
		if hop != "" {
			return false
		}
		switch n := n.(type) {
		case *ast.ReturnStmt:
			for _, res := range n.Results {
				if mentionsObj(info, res, esc.root) {
					hop = "returned"
				}
			}
		case *ast.SendStmt:
			if n.Pos() > esc.rangeEnd && mentionsObj(info, n.Value, esc.root) {
				hop = "sent on a channel"
			}
		case *ast.CallExpr:
			if n.Pos() <= esc.rangeEnd {
				return true
			}
			if what, ok := emitSink(info, n); ok && callMentionsAny(info, n, []types.Object{esc.root}) {
				hop = "emitted via " + what
			}
			if hop == "" {
				if ff, fn, ok := sum.ForCall(n); ok && ff.EmitParams != 0 {
					for j, arg := range n.Args {
						if j >= 32 {
							break
						}
						if ff.EmitParams&(1<<uint(j)) != 0 && mentionsObj(info, arg, esc.root) {
							hop = "passed to " + fn.Name() + ", which emits it"
							break
						}
					}
				}
			}
		case *ast.AssignStmt:
			if n.Pos() <= esc.rangeEnd {
				return true
			}
			for i, rhs := range n.Rhs {
				if i >= len(n.Lhs) || !mentionsObj(info, rhs, esc.root) {
					continue
				}
				if root := cfgutil.RootObject(info, n.Lhs[i]); root != nil && returned[root] {
					hop = "copied into " + types.ExprString(n.Lhs[i])
				}
			}
		}
		return true
	})
	return hop
}
