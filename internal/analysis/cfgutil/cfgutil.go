// Package cfgutil holds the control-flow helpers shared by the
// dataflow analyzers (lockbalance, wgcheck, errdrop): CFG
// construction with a standard may-return heuristic, normal-exit
// detection, identification of sync primitive operations, and
// canonical keys for receiver expressions so that two syntactic
// occurrences of `c.mu` are recognised as the same mutex.
//
// The CFG itself comes from the offline golang.org/x/tools/go/cfg
// shim; everything here layers Go type information on top of it.
package cfgutil

import (
	"go/ast"
	"go/types"
	"strconv"

	"golang.org/x/tools/go/cfg"
)

// New builds the CFG of body using NoReturn as the may-return
// heuristic: calls to panic, os.Exit, runtime.Goexit and log.Fatal*
// terminate their block.
func New(body *ast.BlockStmt, info *types.Info) *cfg.CFG {
	return cfg.New(body, func(call *ast.CallExpr) bool {
		return !NoReturn(info, call)
	})
}

// NoReturn reports whether call can be determined to never return:
// the panic builtin, os.Exit, runtime.Goexit, and the log.Fatal
// family.
func NoReturn(info *types.Info, call *ast.CallExpr) bool {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if fun.Name == "panic" {
			// Respect shadowing: only the builtin is no-return.
			if obj := info.Uses[fun]; obj != nil {
				_, isBuiltin := obj.(*types.Builtin)
				return isBuiltin
			}
			return true
		}
	case *ast.SelectorExpr:
		fn, ok := info.Uses[fun.Sel].(*types.Func)
		if !ok || fn.Pkg() == nil {
			return false
		}
		switch fn.Pkg().Path() {
		case "os":
			return fn.Name() == "Exit"
		case "runtime":
			return fn.Name() == "Goexit"
		case "log":
			switch fn.Name() {
			case "Fatal", "Fatalf", "Fatalln":
				return true
			}
		}
	}
	return false
}

// Exits returns the live blocks through which the function can
// terminate normally: blocks with no successors that are not ended by
// a no-return call. Blocks ending in panic/os.Exit are excluded —
// a held lock or missing Done on a dying process is not the bug these
// analyzers hunt.
func Exits(g *cfg.CFG, info *types.Info) []*cfg.Block {
	var exits []*cfg.Block
	for _, b := range g.Blocks {
		if !b.Live || len(b.Succs) > 0 {
			continue
		}
		if n := len(b.Nodes); n > 0 {
			if es, ok := b.Nodes[n-1].(*ast.ExprStmt); ok {
				if call, ok := ast.Unparen(es.X).(*ast.CallExpr); ok && NoReturn(info, call) {
					continue
				}
			}
		}
		exits = append(exits, b)
	}
	return exits
}

// SyncOp classifies a call as an operation on a sync primitive.
type SyncOp struct {
	Recv   ast.Expr // receiver expression, e.g. `c.mu` in c.mu.Lock()
	Key    string   // canonical receiver key, see ExprKey
	Method string   // Lock, Unlock, RLock, RUnlock, Add, Done, Wait
}

// MutexOp identifies call as (*sync.Mutex).Lock/Unlock/TryLock or
// (*sync.RWMutex).Lock/Unlock/RLock/RUnlock/… on a concrete receiver.
func MutexOp(info *types.Info, call *ast.CallExpr) (SyncOp, bool) {
	return syncOp(info, call, "Mutex", "RWMutex")
}

// WaitGroupOp identifies call as (*sync.WaitGroup).Add/Done/Wait.
func WaitGroupOp(info *types.Info, call *ast.CallExpr) (SyncOp, bool) {
	return syncOp(info, call, "WaitGroup")
}

func syncOp(info *types.Info, call *ast.CallExpr, typeNames ...string) (SyncOp, bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return SyncOp{}, false
	}
	fn, ok := info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return SyncOp{}, false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return SyncOp{}, false
	}
	recvType := sig.Recv().Type()
	if ptr, ok := recvType.(*types.Pointer); ok {
		recvType = ptr.Elem()
	}
	named, ok := recvType.(*types.Named)
	if !ok {
		return SyncOp{}, false
	}
	for _, name := range typeNames {
		if named.Obj().Name() == name {
			key, ok := ExprKey(info, sel.X)
			if !ok {
				return SyncOp{}, false
			}
			return SyncOp{Recv: sel.X, Key: key, Method: fn.Name()}, true
		}
	}
	return SyncOp{}, false
}

// ExprKey returns a canonical string for a receiver path such as `mu`,
// `c.mu` or `(*s).wg`, prefixed by the identity of its root object so
// two distinct variables spelled alike never collide. The second
// result is false when the expression is not a plain ident/selector
// path (e.g. `cs[i].mu`), which the analyzers then skip rather than
// risk merging distinct primitives.
func ExprKey(info *types.Info, e ast.Expr) (string, bool) {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		obj := info.Uses[e]
		if obj == nil {
			obj = info.Defs[e]
		}
		if obj == nil {
			return "", false
		}
		return objKey(obj) + "/" + e.Name, true
	case *ast.SelectorExpr:
		base, ok := ExprKey(info, e.X)
		if !ok {
			return "", false
		}
		return base + "." + e.Sel.Name, true
	case *ast.StarExpr:
		return ExprKey(info, e.X)
	case *ast.UnaryExpr:
		return ExprKey(info, e.X)
	}
	return "", false
}

func objKey(obj types.Object) string {
	// Position is a stable per-object identity within one analysis
	// pass; package-level and local objects alike have distinct Pos.
	return obj.Name() + "@" + strconv.Itoa(int(obj.Pos()))
}

// WalkNodeSkipFuncLit walks the subtree of n in source order, calling
// fn for every node, but does not descend into function literals: a
// nested closure has its own control flow and is analyzed separately.
func WalkNodeSkipFuncLit(n ast.Node, fn func(ast.Node) bool) {
	ast.Inspect(n, func(m ast.Node) bool {
		if _, ok := m.(*ast.FuncLit); ok && m != n {
			return false
		}
		return fn(m)
	})
}

// RootObject returns the object of the leftmost identifier of an
// lvalue-shaped path: `c` for `c.mu`, `s` for `(*s).f[i].g`. It is nil
// when the expression does not bottom out in a plain identifier (a
// call result, a composite literal, …).
func RootObject(info *types.Info, e ast.Expr) types.Object {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			if obj := info.Uses[x]; obj != nil {
				return obj
			}
			return info.Defs[x]
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.UnaryExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// FuncBodies returns every function body in file paired with the
// position its diagnostics should anchor to: each FuncDecl body and
// each FuncLit body, outermost first.
type FuncBody struct {
	Body *ast.BlockStmt
	Name string            // declared name, or "func literal"
	Type *ast.FuncType     // signature, for parameter-order checks
	Doc  *ast.CommentGroup // declaration doc comment; nil for literals
}

// Bodies collects the function bodies of file.
func Bodies(file *ast.File) []FuncBody {
	var out []FuncBody
	ast.Inspect(file, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncDecl:
			if n.Body != nil {
				out = append(out, FuncBody{Body: n.Body, Name: n.Name.Name, Type: n.Type, Doc: n.Doc})
			}
		case *ast.FuncLit:
			out = append(out, FuncBody{Body: n.Body, Name: "func literal", Type: n.Type})
		}
		return true
	})
	return out
}
