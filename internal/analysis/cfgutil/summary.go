// Interprocedural fact layer: per-function summaries exported through
// the go/analysis Fact mechanism so analyzers see across function and
// package boundaries.
//
// Each fact-aware analyzer calls ComputeSummaries once per package.
// The summaries of the package's own functions are computed from
// source; summaries of functions in already-analyzed dependency
// packages arrive through pass.ImportObjectFact (the shim drivers run
// packages in dependency order). A bounded fixpoint propagates the
// transitive properties — a parameter that reaches an emit sink two
// calls deep, a map-ordered result forwarded through a return —
// through the intra-package portion of the call graph; the
// cross-package portion is already transitive because dependency
// summaries were closed when their package was analyzed.
//
// The two consumers are errdrop (IgnoredParams) and mapdeterminism
// (the emit, sort and taint fields). "May emit" is over-approximate,
// the conservative direction for mapdeterminism.
package cfgutil

import (
	"go/ast"
	"go/types"
	"strings"

	"golang.org/x/tools/go/analysis"

	"ocd/internal/analysis/lintutil"
)

// DisableSummaries turns ComputeSummaries into a no-op that never
// resolves a callee. Tests flip it to prove a cross-function fixture
// is missed by the purely intra-procedural pass.
var DisableSummaries bool

// FuncFact is the per-function summary exported for package-scope
// functions and methods. Parameter sets are bitmasks over the
// signature's parameter indices (receiver excluded); parameters past
// index 31 are not tracked.
type FuncFact struct {
	// IgnoredParams marks parameters the body never reads; passing a
	// value here does not constitute a use of it.
	IgnoredParams uint32
	// EmitParams marks parameters that (transitively) reach an
	// order-observable sink: fmt printing, a JSON encoder, a
	// checkpoint package, or a channel send.
	EmitParams uint32
	// SortsParams marks parameters the function places into canonical
	// order (a sort.*/slices.Sort* call, or the lint:sorted promise).
	SortsParams uint32
	// SortsRecv is SortsParams for the method receiver.
	SortsRecv bool
	// TaintedReturns marks results whose element order derives from a
	// map iteration in the body.
	TaintedReturns uint32
}

// AFact marks FuncFact as a go/analysis fact type.
func (*FuncFact) AFact() {}

func (f *FuncFact) empty() bool {
	return f.IgnoredParams == 0 && f.EmitParams == 0 && f.SortsParams == 0 &&
		!f.SortsRecv && f.TaintedReturns == 0
}

// FactTypes is the FactTypes list every summary-consuming analyzer
// declares.
var FactTypes = []analysis.Fact{(*FuncFact)(nil)}

// Summaries resolves function summaries for one analyzed package:
// locally computed facts for its own functions, imported facts for
// module-local dependencies.
type Summaries struct {
	pass     *analysis.Pass
	disabled bool
	local    map[*types.Func]*FuncFact
}

// ComputeSummaries summarizes every function declared in the package,
// exports the facts (when the driver supports facts), and returns the
// resolver consumers query during their own walk.
func ComputeSummaries(pass *analysis.Pass) *Summaries {
	s := &Summaries{pass: pass, local: make(map[*types.Func]*FuncFact)}
	if DisableSummaries {
		s.disabled = true
		return s
	}

	type fnEntry struct {
		decl *ast.FuncDecl
		obj  *types.Func
		fact *FuncFact
	}
	var fns []*fnEntry
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			obj, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			e := &fnEntry{decl: fd, obj: obj, fact: summarizeFunc(pass, fd, obj)}
			fns = append(fns, e)
			s.local[obj] = e.fact
		}
	}

	// TaintedReturns is computed only after every local summary exists:
	// its laundering step honors the sort promises (SortsRecv,
	// SortsParams) of the functions the body routes the accumulator
	// through, local or imported.
	for _, e := range fns {
		summarizeTaintedReturns(pass.TypesInfo, e.decl, e.obj.Type().(*types.Signature), e.fact, s.forFunc)
	}

	// Close the transitive properties over the intra-package call
	// graph. Each round can only set bits, so len(fns)+1 rounds bound
	// the longest propagation chain.
	for round := 0; round <= len(fns); round++ {
		changed := false
		for _, e := range fns {
			if propagateCalls(pass, e.decl, e.fact, s.forFunc) {
				changed = true
			}
		}
		if !changed {
			break
		}
	}

	if pass.ExportObjectFact != nil {
		for _, e := range fns {
			if !e.fact.empty() {
				pass.ExportObjectFact(e.obj, e.fact)
			}
		}
	}
	return s
}

// forFunc returns the summary of a module-local function: locally
// computed for this package's functions, imported as a fact otherwise.
func (s *Summaries) forFunc(fn *types.Func) (*FuncFact, bool) {
	if s.disabled || fn == nil {
		return nil, false
	}
	if f, ok := s.local[fn]; ok {
		if f.empty() {
			return nil, false
		}
		return f, true
	}
	if fn.Pkg() == nil || !moduleLocal(s.pass.Pkg.Path(), fn.Pkg().Path()) {
		return nil, false
	}
	if s.pass.ImportObjectFact == nil {
		return nil, false
	}
	var ff FuncFact
	if s.pass.ImportObjectFact(fn, &ff) {
		return &ff, true
	}
	return nil, false
}

// ForCall resolves call to a module-local named function or method and
// returns its summary.
func (s *Summaries) ForCall(call *ast.CallExpr) (*FuncFact, *types.Func, bool) {
	if s.disabled {
		return nil, nil, false
	}
	fn := staticCallee(s.pass.TypesInfo, call)
	if fn == nil {
		return nil, nil, false
	}
	f, ok := s.forFunc(fn)
	return f, fn, ok
}

// staticCallee returns the named function or concrete method a call
// statically resolves to, or nil for builtins, interface methods,
// function values and type conversions.
func staticCallee(info *types.Info, call *ast.CallExpr) *types.Func {
	var fn *types.Func
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ = info.Uses[fun].(*types.Func)
	case *ast.SelectorExpr:
		fn, _ = info.Uses[fun.Sel].(*types.Func)
	}
	if fn == nil {
		return nil
	}
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		if types.IsInterface(sig.Recv().Type()) {
			return nil
		}
	}
	return fn
}

// moduleLocal reports whether calleePath belongs to the same module as
// pkgPath, judged by the leading path segment (the convention errdrop
// established: "ocd" for ocd/internal/order).
func moduleLocal(pkgPath, calleePath string) bool {
	return modulePrefixOf(pkgPath) == modulePrefixOf(calleePath)
}

func modulePrefixOf(path string) string {
	if i := strings.IndexByte(path, '/'); i >= 0 {
		return path[:i]
	}
	return path
}

// summarizeFunc computes the intra-procedural portion of a function's
// summary; propagateCalls later closes the transitive fields.
func summarizeFunc(pass *analysis.Pass, fd *ast.FuncDecl, obj *types.Func) *FuncFact {
	info := pass.TypesInfo
	fact := &FuncFact{}
	sig := obj.Type().(*types.Signature)

	// Parameter objects by index; the bitmask caps at 32 parameters.
	paramIdx := make(map[types.Object]int)
	for i := 0; i < sig.Params().Len() && i < 32; i++ {
		paramIdx[sig.Params().At(i)] = i
	}
	var recvObj types.Object
	if fd.Recv != nil && len(fd.Recv.List) > 0 && len(fd.Recv.List[0].Names) > 0 {
		recvObj = info.Defs[fd.Recv.List[0].Names[0]]
	}

	// IgnoredParams: a parameter with no use anywhere in the body.
	used := make(map[types.Object]bool)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if o := info.Uses[id]; o != nil {
				used[o] = true
			}
		}
		return true
	})
	for o, i := range paramIdx {
		if !used[o] {
			fact.IgnoredParams |= 1 << i
		}
	}

	// Sinks and sorts, anywhere in the body (closures included:
	// "may emit" is the conservative direction).
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SendStmt:
			if i, ok := paramIdx[RootObject(info, n.Value)]; ok {
				fact.EmitParams |= 1 << i
			}
		case *ast.CallExpr:
			if sinkCall(info, n) {
				for _, arg := range n.Args {
					if i, ok := paramIdx[RootObject(info, arg)]; ok {
						fact.EmitParams |= 1 << i
					}
				}
			}
			if sortCall(info, n) && len(n.Args) > 0 {
				root := RootObject(info, n.Args[0])
				if i, ok := paramIdx[root]; ok {
					fact.SortsParams |= 1 << i
				}
				if recvObj != nil && root == recvObj {
					fact.SortsRecv = true
				}
			}
		}
		return true
	})

	// The lint:sorted promise covers every slice-shaped input.
	if lintutil.DeclaresSorted(fd) {
		for o, i := range paramIdx {
			if _, ok := o.Type().Underlying().(*types.Slice); ok {
				fact.SortsParams |= 1 << i
			}
		}
		if recvObj != nil {
			fact.SortsRecv = true
		}
	}
	return fact
}

// propagateCalls folds callee summaries into fact, reporting whether
// anything changed: an argument forwarded to an emitting parameter
// emits, and a tainted result forwarded through a return stays
// tainted.
func propagateCalls(pass *analysis.Pass, fd *ast.FuncDecl, fact *FuncFact, lookup func(*types.Func) (*FuncFact, bool)) bool {
	info := pass.TypesInfo
	sig := info.Defs[fd.Name].(*types.Func).Type().(*types.Signature)
	paramIdx := make(map[types.Object]int)
	for i := 0; i < sig.Params().Len() && i < 32; i++ {
		paramIdx[sig.Params().At(i)] = i
	}

	changed := false
	set := func(dst *uint32, bit uint32) {
		if *dst&bit == 0 {
			*dst |= bit
			changed = true
		}
	}

	taintedLocals := make(map[types.Object]bool)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			fn := staticCallee(info, n)
			if fn == nil {
				return true
			}
			ff, ok := lookup(fn)
			if !ok {
				return true
			}
			for j, arg := range n.Args {
				if j >= 32 {
					break
				}
				if ff.EmitParams&(1<<j) != 0 {
					if p, ok := paramIdx[RootObject(info, arg)]; ok {
						set(&fact.EmitParams, 1<<p)
					}
				}
			}
		case *ast.AssignStmt:
			if len(n.Rhs) == 1 {
				if call, ok := ast.Unparen(n.Rhs[0]).(*ast.CallExpr); ok {
					if fn := staticCallee(info, call); fn != nil {
						if ff, ok := lookup(fn); ok && ff.TaintedReturns != 0 {
							for i, lhs := range n.Lhs {
								if i >= 32 {
									break
								}
								if ff.TaintedReturns&(1<<i) != 0 {
									if root := RootObject(info, lhs); root != nil {
										taintedLocals[root] = true
									}
								}
							}
						}
					}
				}
			}
		}
		return true
	})
	if len(taintedLocals) > 0 {
		collectReturnBits(info, fd.Body, taintedLocals, func(i int) { set(&fact.TaintedReturns, 1<<uint(i)) })
	}
	// A forwarded call result: return g() where g's results are tainted.
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		ret, ok := n.(*ast.ReturnStmt)
		if !ok || len(ret.Results) != 1 {
			return true
		}
		call, ok := ast.Unparen(ret.Results[0]).(*ast.CallExpr)
		if !ok {
			return true
		}
		if fn := staticCallee(info, call); fn != nil {
			if ff, ok := lookup(fn); ok && ff.TaintedReturns != 0 {
				if fact.TaintedReturns|ff.TaintedReturns != fact.TaintedReturns {
					fact.TaintedReturns |= ff.TaintedReturns
					changed = true
				}
			}
		}
		return true
	})
	return changed
}

// collectReturnBits invokes mark(i) for every return statement result
// position i whose expression is rooted at one of the given objects,
// and for named results among them.
func collectReturnBits(info *types.Info, body *ast.BlockStmt, roots map[types.Object]bool, mark func(int)) {
	WalkNodeSkipFuncLit(body, func(n ast.Node) bool {
		ret, ok := n.(*ast.ReturnStmt)
		if !ok {
			return true
		}
		for i, res := range ret.Results {
			if i >= 32 {
				break
			}
			if roots[RootObject(info, res)] {
				mark(i)
			}
		}
		return true
	})
}

// summarizeTaintedReturns finds results whose order derives from a map
// iteration: `for k := range m { acc = append(acc, …k…) }` with acc
// returned (or a named result), unless a later sort launders it — a
// sort.*/slices.Sort* call, or a call to a function whose own summary
// promises to sort the matching argument or receiver.
func summarizeTaintedReturns(info *types.Info, fd *ast.FuncDecl, sig *types.Signature, fact *FuncFact, lookup func(*types.Func) (*FuncFact, bool)) {
	tainted := make(map[types.Object]bool)
	WalkNodeSkipFuncLit(fd.Body, func(n ast.Node) bool {
		rng, ok := n.(*ast.RangeStmt)
		if !ok || !mapTyped(info, rng.X) {
			return true
		}
		var iterObjs []types.Object
		for _, e := range []ast.Expr{rng.Key, rng.Value} {
			if id, ok := e.(*ast.Ident); ok && id.Name != "_" {
				if o := info.Defs[id]; o != nil {
					iterObjs = append(iterObjs, o)
				} else if o := info.Uses[id]; o != nil {
					iterObjs = append(iterObjs, o)
				}
			}
		}
		if len(iterObjs) == 0 {
			return true
		}
		WalkNodeSkipFuncLit(rng.Body, func(m ast.Node) bool {
			as, ok := m.(*ast.AssignStmt)
			if !ok {
				return true
			}
			for i, rhs := range as.Rhs {
				call, ok := ast.Unparen(rhs).(*ast.CallExpr)
				if !ok || i >= len(as.Lhs) {
					continue
				}
				id, ok := ast.Unparen(call.Fun).(*ast.Ident)
				if !ok {
					continue
				}
				if b, ok := info.Uses[id].(*types.Builtin); !ok || b.Name() != "append" {
					continue
				}
				mentions := false
				for _, arg := range call.Args[min(1, len(call.Args)):] {
					for _, o := range iterObjs {
						if mentionsObject(info, arg, o) {
							mentions = true
						}
					}
				}
				if !mentions {
					continue
				}
				if root := RootObject(info, as.Lhs[i]); root != nil {
					tainted[root] = true
				}
			}
			return true
		})
		return true
	})
	if len(tainted) == 0 {
		return
	}
	// A sort on the accumulator after the loop launders the taint.
	for o := range tainted {
		WalkNodeSkipFuncLit(fd.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if sortCall(info, call) && len(call.Args) > 0 && RootObject(info, call.Args[0]) == o {
				delete(tainted, o)
				return false
			}
			if fn := staticCallee(info, call); fn != nil {
				if ff, ok := lookup(fn); ok {
					if ff.SortsRecv {
						if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok && RootObject(info, sel.X) == o {
							delete(tainted, o)
							return false
						}
					}
					for j, arg := range call.Args {
						if j >= 32 {
							break
						}
						if ff.SortsParams&(1<<uint(j)) != 0 && RootObject(info, arg) == o {
							delete(tainted, o)
							return false
						}
					}
				}
			}
			return true
		})
	}
	if len(tainted) == 0 {
		return
	}
	// Named results are returns even without appearing in a
	// ReturnStmt expression list.
	for i := 0; i < sig.Results().Len() && i < 32; i++ {
		if tainted[sig.Results().At(i)] {
			fact.TaintedReturns |= 1 << i
		}
	}
	collectReturnBits(info, fd.Body, tainted, func(i int) { fact.TaintedReturns |= 1 << uint(i) })
}

// sinkCall mirrors mapdeterminism's emit-sink classification: fmt's
// printing family, (*json.Encoder).Encode, and checkpoint packages.
func sinkCall(info *types.Info, call *ast.CallExpr) bool {
	fn := staticCallee(info, call)
	if fn == nil || fn.Pkg() == nil {
		return false
	}
	switch fn.Pkg().Path() {
	case "fmt":
		switch fn.Name() {
		case "Print", "Printf", "Println", "Fprint", "Fprintf", "Fprintln":
			return true
		}
	case "encoding/json":
		return fn.Name() == "Encode"
	}
	path := fn.Pkg().Path()
	return path == "checkpoint" || strings.HasSuffix(path, "/checkpoint")
}

func sortCall(info *types.Info, call *ast.CallExpr) bool {
	fn := staticCallee(info, call)
	if fn == nil || fn.Pkg() == nil {
		return false
	}
	switch fn.Pkg().Path() {
	case "sort":
		return true
	case "slices":
		return strings.HasPrefix(fn.Name(), "Sort")
	}
	return false
}

func mentionsObject(info *types.Info, n ast.Node, obj types.Object) bool {
	found := false
	ast.Inspect(n, func(m ast.Node) bool {
		if id, ok := m.(*ast.Ident); ok && info.Uses[id] == obj {
			found = true
		}
		return !found
	})
	return found
}

func mapTyped(info *types.Info, e ast.Expr) bool {
	t := info.Types[e].Type
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Map)
	return ok
}
