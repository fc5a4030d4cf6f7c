package cfgutil_test

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"strings"
	"testing"

	"golang.org/x/tools/go/cfg"

	"ocd/internal/analysis/cfgutil"
)

// load type-checks src and returns the body of the named function with
// the file set and type info.
func load(t *testing.T, src, fn string) (*ast.BlockStmt, *token.FileSet, *types.Info) {
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
	conf := types.Config{Importer: importer.Default()}
	if _, err := conf.Check("p", fset, []*ast.File{f}, info); err != nil {
		t.Fatalf("type-check: %v", err)
	}
	for _, d := range f.Decls {
		if fd, ok := d.(*ast.FuncDecl); ok && fd.Name.Name == fn {
			return fd.Body, fset, info
		}
	}
	t.Fatalf("function %s not found", fn)
	return nil, nil, nil
}

func buildCFG(t *testing.T, src, fn string) (*cfg.CFG, *types.Info) {
	body, _, info := load(t, src, fn)
	return cfgutil.New(body, info), info
}

func liveBlocks(g *cfg.CFG) int {
	n := 0
	for _, b := range g.Blocks {
		if b.Live {
			n++
		}
	}
	return n
}

func TestCFGStraightLine(t *testing.T) {
	g, _ := buildCFG(t, `package p
func f() int {
	x := 1
	x++
	return x
}`, "f")
	if len(g.Blocks) == 0 || !g.Blocks[0].Live {
		t.Fatalf("entry block must exist and be live")
	}
	if got := len(g.Blocks[0].Nodes); got != 3 {
		t.Errorf("straight-line body should be one block of 3 nodes, got %d", got)
	}
	if len(g.Blocks[0].Succs) != 0 {
		t.Errorf("a returning block has no successors")
	}
}

func TestCFGIfElse(t *testing.T) {
	g, _ := buildCFG(t, `package p
func f(b bool) int {
	if b {
		return 1
	} else {
		return 2
	}
}`, "f")
	entry := g.Blocks[0]
	if len(entry.Succs) != 2 {
		t.Fatalf("if dispatch should have 2 successors, got %d", len(entry.Succs))
	}
	kinds := map[cfg.BlockKind]bool{}
	for _, b := range g.Blocks {
		if b.Live {
			kinds[b.Kind] = true
		}
	}
	if !kinds[cfg.KindIfThen] || !kinds[cfg.KindIfElse] {
		t.Errorf("expected live IfThen and IfElse blocks, got %v", kinds)
	}
}

func TestCFGForLoop(t *testing.T) {
	g, _ := buildCFG(t, `package p
func f(n int) int {
	s := 0
	for i := 0; i < n; i++ {
		if i == 3 {
			continue
		}
		if i == 5 {
			break
		}
		s += i
	}
	return s
}`, "f")
	var loop, body, post, done bool
	for _, b := range g.Blocks {
		if !b.Live {
			continue
		}
		switch b.Kind {
		case cfg.KindForLoop:
			loop = true
		case cfg.KindForBody:
			body = true
		case cfg.KindForPost:
			post = true
		case cfg.KindReturn:
			// The done block holds the trailing `return s`, so the
			// builder upgrades its kind from ForDone to Return.
			done = b.Return() != nil
		}
	}
	if !loop || !body || !post || !done {
		t.Errorf("expected ForLoop/ForBody/ForPost/Return live blocks: %v %v %v %v", loop, body, post, done)
	}
}

func TestCFGRangeAndSwitch(t *testing.T) {
	g, _ := buildCFG(t, `package p
func f(xs []int) int {
	s := 0
	for _, x := range xs {
		switch {
		case x > 0:
			s += x
		case x < 0:
			continue
		default:
			s--
		}
	}
	return s
}`, "f")
	var rangeLoop, caseBody int
	for _, b := range g.Blocks {
		if !b.Live {
			continue
		}
		switch b.Kind {
		case cfg.KindRangeLoop:
			rangeLoop++
		case cfg.KindSwitchCaseBody, cfg.KindSwitchNextCase:
			caseBody++
		}
	}
	if rangeLoop != 1 {
		t.Errorf("expected one live range loop head, got %d", rangeLoop)
	}
	if caseBody != 3 {
		t.Errorf("expected three live case bodies, got %d", caseBody)
	}
}

func TestCFGSelect(t *testing.T) {
	g, _ := buildCFG(t, `package p
func f(a, b chan int) int {
	select {
	case v := <-a:
		return v
	case b <- 1:
		return 2
	default:
		return 0
	}
}`, "f")
	cases := 0
	for _, b := range g.Blocks {
		if b.Live && b.Kind == cfg.KindSelectCaseBody {
			cases++
		}
	}
	if cases != 3 {
		t.Errorf("expected 3 live select case bodies, got %d", cases)
	}
}

func TestCFGNoReturnCallTerminatesBlock(t *testing.T) {
	g, info := buildCFG(t, `package p
import "os"
func f(b bool) int {
	if b {
		os.Exit(2)
	}
	return 1
}`, "f")
	// The block containing os.Exit must have no successors and must
	// not count as a normal exit.
	exits := cfgutil.Exits(g, info)
	if len(exits) != 1 {
		t.Fatalf("expected exactly one normal exit (the return), got %d", len(exits))
	}
	if exits[0].Return() == nil {
		t.Errorf("the single normal exit should end in a return statement")
	}
}

func TestCFGGoto(t *testing.T) {
	g, _ := buildCFG(t, `package p
func f(n int) int {
	i := 0
loop:
	i++
	if i < n {
		goto loop
	}
	return i
}`, "f")
	if liveBlocks(g) < 3 {
		t.Errorf("goto loop should produce a label block cycle, got %d live blocks", liveBlocks(g))
	}
	var label *cfg.Block
	for _, b := range g.Blocks {
		if b.Live && b.Kind == cfg.KindLabel {
			label = b
		}
	}
	if label == nil {
		t.Fatalf("expected a live Label block")
	}
}

func TestCFGFormat(t *testing.T) {
	body, fset, info := load(t, `package p
func f(b bool) int {
	if b {
		return 1
	}
	return 0
}`, "f")
	g := cfgutil.New(body, info)
	out := g.Format(fset)
	if !strings.Contains(out, "succs:") || !strings.Contains(out, ".0:") {
		t.Errorf("Format output missing expected structure:\n%s", out)
	}
}

func TestCFGLabeledBreakContinue(t *testing.T) {
	g, _ := buildCFG(t, `package p
func f(rows [][]int) int {
	s := 0
outer:
	for _, row := range rows {
		for _, v := range row {
			if v < 0 {
				continue outer
			}
			if v == 0 {
				break outer
			}
			s += v
		}
	}
	return s
}`, "f")
	// Both range loops must be live, and the labeled jumps must keep
	// the graph connected: the trailing return stays reachable.
	rangeLoops := 0
	var ret *cfg.Block
	for _, b := range g.Blocks {
		if !b.Live {
			continue
		}
		if b.Kind == cfg.KindRangeLoop {
			rangeLoops++
		}
		if b.Return() != nil {
			ret = b
		}
	}
	if rangeLoops != 2 {
		t.Errorf("expected 2 live range loops, got %d", rangeLoops)
	}
	if ret == nil {
		t.Fatalf("labeled break must leave the return block reachable")
	}
	if got := len(ret.Succs); got != 0 {
		t.Errorf("return block has %d successors, want 0", got)
	}
}

func TestBodiesMethodValueClosureUnderGo(t *testing.T) {
	src := `package p
type s struct{ n int }
func (x *s) run() { x.n++ }

// launch spawns workers.
func launch(x *s) {
	go x.run()
	go func() { x.n-- }()
}`
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "x.go", src, parser.ParseComments)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	bodies := cfgutil.Bodies(f)
	// run, launch, and the go literal: the method value spawned by the
	// first go statement is not a separate body.
	if len(bodies) != 3 {
		t.Fatalf("expected 3 bodies (run, launch, literal), got %d", len(bodies))
	}
	byName := map[string]cfgutil.FuncBody{}
	for _, fb := range bodies {
		byName[fb.Name] = fb
	}
	launch, ok := byName["launch"]
	if !ok {
		t.Fatalf("launch body missing: %v", bodies)
	}
	if launch.Doc == nil || !strings.Contains(launch.Doc.Text(), "spawns workers") {
		t.Errorf("FuncBody.Doc must carry the declaration comment, got %v", launch.Doc)
	}
	if launch.Type == nil || launch.Type.Params == nil || len(launch.Type.Params.List) != 1 {
		t.Errorf("FuncBody.Type must carry the signature")
	}
	lit, ok := byName["func literal"]
	if !ok {
		t.Fatalf("literal body missing")
	}
	if lit.Doc != nil {
		t.Errorf("literals have no doc comment")
	}
	// The literal's body must build a CFG on its own (one write node
	// plus the implicit return path).
	info := &types.Info{
		Uses: make(map[*ast.Ident]types.Object),
		Defs: make(map[*ast.Ident]types.Object),
	}
	conf := types.Config{Importer: importer.Default()}
	if _, err := conf.Check("p", fset, []*ast.File{f}, info); err != nil {
		t.Fatalf("type-check: %v", err)
	}
	g := cfgutil.New(lit.Body, info)
	if len(g.Blocks) == 0 || len(g.Blocks[0].Nodes) != 1 {
		t.Errorf("literal CFG should hold the single x.n-- node")
	}
}

func TestRootObject(t *testing.T) {
	src := `package p
type inner struct{ g []int }
type outer struct{ f inner }
func f(s *outer, m map[string][]int, k string) {
	_ = s.f
	_ = (*s).f.g[0]
	_ = m[k]
	_ = len(k)
}`
	body, _, info := load(t, src, "f")
	var roots []string
	ast.Inspect(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		obj := cfgutil.RootObject(info, as.Rhs[0])
		if obj == nil {
			roots = append(roots, "<nil>")
		} else {
			roots = append(roots, obj.Name())
		}
		return false
	})
	want := []string{"s", "s", "m", "<nil>"}
	if strings.Join(roots, ",") != strings.Join(want, ",") {
		t.Errorf("RootObject roots = %v, want %v", roots, want)
	}
}
