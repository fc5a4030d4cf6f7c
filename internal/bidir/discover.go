package bidir

import (
	"sort"
	"time"

	"ocd/internal/attr"
	"ocd/internal/core"
	"ocd/internal/relation"
)

// OCD is a bidirectional order compatibility dependency X ~ Y.
type OCD struct {
	X, Y DList
}

// OD is a bidirectional order dependency X → Y.
type OD struct {
	X, Y DList
}

// EquivMember is one member of a directed order-equivalence class: the
// attribute together with its polarity relative to the class representative
// (Asc = same ordering as the representative, Desc = reversed).
type EquivMember struct {
	ID  attr.ID
	Dir Direction
}

// Options configure bidirectional discovery.
type Options struct {
	// Workers is the number of parallel goroutines (<1 = GOMAXPROCS).
	Workers int
	// Timeout bounds the traversal's wall-clock time (0 = none).
	Timeout time.Duration
	// MaxCandidates bounds the number of generated candidates (0 = none).
	MaxCandidates int64
}

// Result of a bidirectional discovery run.
type Result struct {
	OCDs []OCD
	ODs  []OD
	// Constants are removed constant columns.
	Constants []attr.ID
	// EquivClasses are directed order-equivalence classes of size ≥ 2;
	// the first member is the representative (always Asc).
	EquivClasses [][]EquivMember
	Checks       int64
	Candidates   int64
	Elapsed      time.Duration
	Truncated    bool
}

// DiscoverOCDs runs the bidirectional variant of OCDDISCOVER: after the
// directed column reduction, core's traversal over the reduced columns and
// their reversed twins. There every attribute joins a side with either
// polarity, never both, and candidates are canonical under the global-flip
// symmetry (X ~ Y ⇔ flip(X) ~ flip(Y)).
func DiscoverOCDs(r *relation.Relation, opts Options) *Result {
	start := time.Now()
	res := &Result{}
	chk := NewChecker(r, 64)

	// ---- reduction: constants, then directed equivalence classes ----
	var varying []attr.ID
	for _, a := range r.Attrs() {
		if r.IsConstant(a) {
			res.Constants = append(res.Constants, a)
		} else {
			varying = append(varying, a)
		}
	}
	var checks int64
	reduced, classes := reduceDirected(chk, varying, &checks)
	res.EquivClasses = classes

	// Columns is never nil: a nil slice would mean every column.
	cols := make([]attr.ID, 0, 2*len(reduced))
	cols = append(cols, reduced...)
	for _, a := range reduced {
		cols = append(cols, chk.r.Twin(a))
	}
	cr := core.Discover(chk.r, core.Options{
		Workers:                opts.Workers,
		Timeout:                opts.Timeout,
		MaxCandidates:          opts.MaxCandidates,
		DisableColumnReduction: true,
		Columns:                cols,
	})
	for _, d := range cr.OCDs {
		res.OCDs = append(res.OCDs, OCD{X: chk.directed(d.X), Y: chk.directed(d.Y)})
	}
	for _, d := range cr.ODs {
		res.ODs = append(res.ODs, OD{X: chk.directed(d.X), Y: chk.directed(d.Y)})
	}
	res.Checks = checks + cr.Stats.Checks
	res.Candidates = cr.Stats.Candidates
	res.Truncated = cr.Stats.Truncated
	res.Elapsed = time.Since(start)
	sortResult(res)
	return res
}

// reduceDirected collapses directed order-equivalent columns using a
// union-find with polarity: A joins B's class with parity Desc when
// [A ASC] ↔ [B DESC].
func reduceDirected(chk *Checker, varying []attr.ID, checks *int64) ([]attr.ID, [][]EquivMember) {
	n := len(varying)
	parent := make([]int, n)
	parity := make([]Direction, n)
	for i := range parent {
		parent[i] = i
		parity[i] = Asc
	}
	var find func(i int) (int, Direction)
	find = func(i int) (int, Direction) {
		if parent[i] == i {
			return i, Asc
		}
		root, p := find(parent[i])
		parent[i] = root
		parity[i] = parity[i] * p
		return root, parity[i]
	}
	union := func(i, j int, rel Direction) {
		ri, pi := find(i)
		rj, pj := find(j)
		if ri == rj {
			return
		}
		// attr_i ~ rel * attr_j; roots relate by pi ... rel ... pj
		parent[rj] = ri
		parity[rj] = pi * rel * pj
	}
	equivalent := func(a, b attr.ID, dir Direction) bool {
		*checks += 2
		x := DList{{ID: a, Dir: Asc}}
		y := DList{{ID: b, Dir: dir}}
		return chk.CheckOD(x, y) && chk.CheckOD(y, x)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if ri, _ := find(i); true {
				if rj, _ := find(j); ri == rj {
					continue
				}
			}
			if equivalent(varying[i], varying[j], Asc) {
				union(i, j, Asc)
			} else if equivalent(varying[i], varying[j], Desc) {
				union(i, j, Desc)
			}
		}
	}
	groups := make(map[int][]int)
	for i := 0; i < n; i++ {
		root, _ := find(i)
		groups[root] = append(groups[root], i)
	}
	var reduced []attr.ID
	var classes [][]EquivMember
	roots := make([]int, 0, len(groups))
	for root := range groups {
		roots = append(roots, root)
	}
	sort.Ints(roots)
	for _, root := range roots {
		members := groups[root]
		sort.Ints(members)
		rep := members[0]
		reduced = append(reduced, varying[rep])
		if len(members) > 1 {
			_, repParity := find(rep)
			class := make([]EquivMember, len(members))
			for k, m := range members {
				_, p := find(m)
				class[k] = EquivMember{ID: varying[m], Dir: p * repParity}
			}
			classes = append(classes, class)
		}
	}
	sort.Slice(reduced, func(i, j int) bool { return reduced[i] < reduced[j] })
	return reduced, classes
}

func sortResult(res *Result) {
	sort.Slice(res.OCDs, func(i, j int) bool {
		if a, b := res.OCDs[i].X.Key(), res.OCDs[j].X.Key(); a != b {
			return keyLess(res.OCDs[i].X, res.OCDs[j].X)
		}
		return keyLess(res.OCDs[i].Y, res.OCDs[j].Y)
	})
	sort.Slice(res.ODs, func(i, j int) bool {
		if a, b := res.ODs[i].X.Key(), res.ODs[j].X.Key(); a != b {
			return keyLess(res.ODs[i].X, res.ODs[j].X)
		}
		return keyLess(res.ODs[i].Y, res.ODs[j].Y)
	})
}

// keyLess orders directed lists by length, then key.
func keyLess(a, b DList) bool {
	if len(a) != len(b) {
		return len(a) < len(b)
	}
	return a.Key() < b.Key()
}
