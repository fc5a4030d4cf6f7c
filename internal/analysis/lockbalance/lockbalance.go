// Package lockbalance checks, with a per-function CFG dataflow, that
// every sync.Mutex/RWMutex acquired in library code is released on
// every control-flow path, and that nothing blocking or expensive runs
// inside the critical section.
//
// Each level worker of the parallel BFS checks through its own
// rank-vector cache (an order.Handle), which takes no lock. The locks
// that remain guard what is shared: the order.Checker's built-in Handle,
// which serves the column reduction and library callers, the handle
// registry the memory-budget release walks, the job server and the
// metrics registry. Two bug classes are reported:
//
//  1. leak — a path from mu.Lock() reaches a return without an
//     Unlock() and without an armed `defer mu.Unlock()`. A leaked
//     mutex deadlocks every later caller, a whole job or level fan-out.
//  2. held — a blocking or expensive operation executes while a mutex
//     may be held: channel send/receive, (*sync.WaitGroup).Wait,
//     time.Sleep, any sort.* call, or the module's rank-vector and
//     sorted-index derivation helpers (derive, SortedIndex). These
//     serialize every caller behind one lock.
//
// It also flags re-locking a mutex that is already held on every
// incoming path (self-deadlock). Suppress a deliberate site with
// // lint:allow lockbalance.
package lockbalance

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/cfg"

	"ocd/internal/analysis/cfgutil"
	"ocd/internal/analysis/lintutil"
)

// Analyzer is the lockbalance analyzer.
var Analyzer = &analysis.Analyzer{
	Name: "lockbalance",
	Doc:  "checks that mutexes are released on every CFG path and that no blocking or expensive call runs while one is held (suppress with // lint:allow lockbalance)",
	Run:  run,
}

// The per-mutex configuration lattice lives in cfgutil (shared with
// sharedwrite's lockset queries); local aliases keep the transfer code
// readable.
const (
	cfgUnlocked      = cfgutil.LockUnlocked
	cfgLocked        = cfgutil.LockLocked
	cfgUnlockedArmed = cfgutil.LockUnlockedArmed
	cfgLockedArmed   = cfgutil.LockLockedArmed

	anyLocked   = cfgutil.LockAnyLocked
	anyUnlocked = cfgutil.LockAnyUnlocked
)

type state = cfgutil.LockState

func run(pass *analysis.Pass) (interface{}, error) {
	if lintutil.ExemptPath(pass.Pkg.Path()) {
		return nil, nil
	}
	for _, file := range pass.Files {
		if lintutil.IsTestFile(pass.Fset, file.Pos()) {
			continue
		}
		allow := lintutil.NewAllower(pass.Fset, file)
		for _, fb := range cfgutil.Bodies(file) {
			checkFunc(pass, allow, fb)
		}
	}
	return nil, nil
}

type funcCheck struct {
	pass  *analysis.Pass
	allow *lintutil.Allower
	info  *types.Info

	// display maps a mutex key to its source spelling, e.g. "c.mu".
	display map[string]string
	// lockSites maps a mutex key to its Lock call positions in source
	// order; leak diagnostics anchor on the first one.
	lockSites map[string][]token.Pos

	reported map[token.Pos]map[string]bool
}

func checkFunc(pass *analysis.Pass, allow *lintutil.Allower, fb cfgutil.FuncBody) {
	// Fast path: skip functions without mutex operations.
	hasOp := false
	cfgutil.WalkNodeSkipFuncLit(fb.Body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if _, ok := cfgutil.MutexOp(pass.TypesInfo, call); ok {
				hasOp = true
			}
		}
		return !hasOp
	})
	if !hasOp {
		return
	}

	fc := &funcCheck{
		pass:      pass,
		allow:     allow,
		info:      pass.TypesInfo,
		display:   make(map[string]string),
		lockSites: make(map[string][]token.Pos),
		reported:  make(map[token.Pos]map[string]bool),
	}
	g := cfgutil.New(fb.Body, pass.TypesInfo)

	// Record every lock site up front so leak reports have an anchor.
	cfgutil.WalkNodeSkipFuncLit(fb.Body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if op, ok := cfgutil.MutexOp(pass.TypesInfo, call); ok {
				key, _ := fc.opKey(op)
				if op.Method == "Lock" || op.Method == "RLock" {
					fc.lockSites[key] = append(fc.lockSites[key], call.Pos())
				}
			}
		}
		return true
	})

	// Fixpoint over block entry states.
	in := make([]state, len(g.Blocks))
	for i := range in {
		in[i] = make(state)
	}
	for k := range fc.lockSites {
		in[0][k] = cfgUnlocked
	}
	work := []*cfg.Block{g.Blocks[0]}
	onWork := make([]bool, len(g.Blocks))
	onWork[0] = true
	for len(work) > 0 {
		b := work[0]
		work = work[1:]
		onWork[b.Index] = false
		out := fc.transferBlock(b, in[b.Index].Clone(), false)
		for _, succ := range b.Succs {
			if in[succ.Index].Join(out) && !onWork[succ.Index] {
				onWork[succ.Index] = true
				work = append(work, succ)
			}
		}
	}

	// Reporting pass: re-run the transfer with diagnostics enabled, in
	// block order so output is deterministic.
	for _, b := range g.Blocks {
		if !b.Live {
			continue
		}
		fc.transferBlock(b, in[b.Index].Clone(), true)
	}

	// Leak check at every normal exit.
	leaked := make(map[string]bool)
	for _, b := range cfgutil.Exits(g, pass.TypesInfo) {
		out := fc.transferBlock(b, in[b.Index].Clone(), false)
		for key, bits := range out {
			if bits&cfgLocked != 0 { // locked with no defer armed on some path
				leaked[key] = true
			}
		}
	}
	var keys []string
	for key := range leaked {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	for _, key := range keys {
		sites := fc.lockSites[key]
		if len(sites) == 0 {
			continue
		}
		lockVerb, unlockVerb := "Lock", "Unlock"
		if strings.HasSuffix(key, "[R]") {
			lockVerb, unlockVerb = "RLock", "RUnlock"
		}
		pos := sites[0]
		if !fc.allow.Allows(pos, "lockbalance") {
			fc.pass.Reportf(pos, "%s.%s() is not released on every path: add an %s before each return or use defer (// lint:allow lockbalance to suppress)",
				fc.display[key], lockVerb, unlockVerb)
		}
	}
}

// opKey returns the state key of a mutex operation; read locks track a
// separate key so RLock pairs with RUnlock.
func (fc *funcCheck) opKey(op cfgutil.SyncOp) (key string, read bool) {
	key = op.Key
	switch op.Method {
	case "RLock", "RUnlock", "TryRLock":
		key += "[R]"
		read = true
	}
	if _, ok := fc.display[key]; !ok {
		fc.display[key] = types.ExprString(op.Recv)
	}
	return key, read
}

// transferBlock applies the effect of every node of b to st and
// returns the resulting state. When report is set, diagnostics are
// emitted for expensive work under a held lock and for double locks.
func (fc *funcCheck) transferBlock(b *cfg.Block, st state, report bool) state {
	for _, n := range b.Nodes {
		fc.transferNode(n, st, report)
	}
	return st
}

func (fc *funcCheck) transferNode(n ast.Node, st state, report bool) {
	switch n := n.(type) {
	case *ast.DeferStmt:
		// `defer mu.Unlock()` arms the deferred release for the rest
		// of the function. Argument expressions evaluate now but a
		// deferred closure body does not: skip the whole subtree.
		if op, ok := cfgutil.MutexOp(fc.info, n.Call); ok {
			if op.Method == "Unlock" || op.Method == "RUnlock" {
				key, _ := fc.opKey(op)
				st.Arm(key)
				return
			}
		}
		return
	}

	cfgutil.WalkNodeSkipFuncLit(n, func(m ast.Node) bool {
		switch m := m.(type) {
		case *ast.DeferStmt:
			// Nested defer inside a statement node (impossible for Go
			// statements, but be safe).
			return false
		case *ast.CallExpr:
			if op, ok := cfgutil.MutexOp(fc.info, m); ok {
				key, _ := fc.opKey(op)
				switch op.Method {
				case "Lock", "RLock":
					if report && st.Get(key)&anyUnlocked == 0 {
						fc.report(m.Pos(), key, "%s.%s() while %s is already held: self-deadlock",
							fc.display[key], op.Method, fc.display[key])
					}
					st.SetLocked(key)
				case "Unlock", "RUnlock":
					st.SetUnlocked(key)
				}
				return false // don't treat the receiver walk as work
			}
			if report {
				if what, ok := fc.expensiveCall(m); ok {
					fc.reportHeld(m.Pos(), st, what)
				}
			}
		case *ast.SendStmt:
			if report {
				fc.reportHeld(m.Pos(), st, "channel send")
			}
		case *ast.UnaryExpr:
			if report && m.Op == token.ARROW {
				fc.reportHeld(m.Pos(), st, "channel receive")
			}
		}
		return true
	})
}

// expensiveCall reports whether call is blocking or expensive work
// that must not run under a checker mutex, returning a description.
func (fc *funcCheck) expensiveCall(call *ast.CallExpr) (string, bool) {
	if op, ok := cfgutil.WaitGroupOp(fc.info, call); ok && op.Method == "Wait" {
		return "sync.WaitGroup.Wait", true
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	fn, ok := fc.info.Uses[sel.Sel].(*types.Func)
	if !ok {
		return "", false
	}
	if pkg := fn.Pkg(); pkg != nil {
		switch pkg.Path() {
		case "sort":
			return "sort." + fn.Name(), true
		case "time":
			if fn.Name() == "Sleep" {
				return "time.Sleep", true
			}
		}
	}
	// Module-local derivation helpers: a rank-vector or sorted-index
	// derivation is O(rows) or more and must never run inside a cache
	// critical section.
	switch fn.Name() {
	case "derive", "SortedIndex":
		if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
			return "rank derivation " + fn.Name(), true
		}
	}
	return "", false
}

// reportHeld reports blocking work at pos for every mutex that may be
// held there.
func (fc *funcCheck) reportHeld(pos token.Pos, st state, what string) {
	var held []string
	for key, bits := range st {
		if bits&anyLocked != 0 {
			held = append(held, key)
		}
	}
	sort.Slice(held, func(i, j int) bool { return fc.display[held[i]] < fc.display[held[j]] })
	for _, key := range held {
		fc.report(pos, key, "%s while %s is held: release the mutex before blocking or expensive work",
			what, fc.display[key])
	}
}

func (fc *funcCheck) report(pos token.Pos, key string, format string, args ...interface{}) {
	if fc.reported[pos] == nil {
		fc.reported[pos] = make(map[string]bool)
	}
	if fc.reported[pos][key] {
		return
	}
	fc.reported[pos][key] = true
	if fc.allow.Allows(pos, "lockbalance") {
		return
	}
	fc.pass.Reportf(pos, format, args...)
}
