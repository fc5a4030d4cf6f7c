package core

import (
	"sync/atomic"

	"ocd/internal/attr"
	"ocd/internal/faultinject"
	"ocd/internal/tarjan"
)

// reduction is the outcome of the column-reduction phase (Section 4.1).
type reduction struct {
	// reduced is the working attribute set U': one representative per
	// order-equivalence class, constants removed, ascending order.
	reduced []attr.ID
	// constants are the removed constant columns.
	constants []attr.ID
	// classes are the order-equivalence classes of size ≥ 2; the first
	// element is the representative (the smallest attribute id).
	classes [][]attr.ID
	// classOf maps every non-constant attribute to its class slice (also
	// for singleton classes, which are not listed in classes).
	classOf map[attr.ID][]attr.ID
}

// columnsReduction implements the columnsReduction() function of Algorithm 1:
// (a) remove constant columns; (b) collapse order-equivalent columns into a
// representative, using Tarjan's algorithm on the directed graph of valid
// single-attribute ODs.
//
// The n·(n−1) single-attribute OD checks run on the level workers'
// Handles: each worker claims the next outer column from a cursor and
// checks it against every other, so a row's edges are found by one worker,
// in column order, and the graph is the same whatever the worker count.
// A worker flushes its Handle's counts once per row.
// A hard stop abandons the remaining rows on every worker. The partial
// output stays sound: constants are detected first (cheap), and an SCC
// built from a subset of the verified edges can only be finer than the
// true classes, never merge inequivalent columns. A panic on any worker
// is re-raised on the caller's goroutine by d.parallel.
func (d *discoverer) columnsReduction() *reduction {
	red := &reduction{classOf: make(map[attr.ID][]attr.ID)}

	var varying []attr.ID
	for _, a := range d.universe {
		if d.r.IsConstant(a) {
			red.constants = append(red.constants, a)
		} else {
			varying = append(varying, a)
		}
	}

	// Directed graph over the varying columns: edge i → j iff the OD
	// [A_i] → [A_j] holds. Order-equivalence classes are its SCCs.
	n := len(varying)
	adj := make([][]int, n)
	var cursor atomic.Int64
	d.parallel(func(w int) {
		h := d.handles[w]
		for !d.hardStop.Load() {
			i := int(cursor.Add(1) - 1)
			if i >= n {
				return
			}
			faultinject.Point("core.reduction.row")
			for j := 0; j < n; j++ {
				if i != j && h.CheckOD(attr.Singleton(varying[i]), attr.Singleton(varying[j])) {
					adj[i] = append(adj[i], j)
				}
			}
			h.Flush()
		}
	})
	comps := tarjan.SCC(n, adj)

	for _, comp := range comps {
		class := make([]attr.ID, len(comp))
		for k, v := range comp {
			class[k] = varying[v]
		}
		sortIDs(class) // representative = smallest attribute id
		for _, a := range class {
			red.classOf[a] = class
		}
		red.reduced = append(red.reduced, class[0])
		if len(class) > 1 {
			red.classes = append(red.classes, class)
		}
	}
	sortIDs(red.reduced)
	sortClasses(red.classes)
	return red
}

func sortIDs(ids []attr.ID) {
	for i := 1; i < len(ids); i++ {
		j := i
		for j > 0 && ids[j-1] > ids[j] {
			ids[j-1], ids[j] = ids[j], ids[j-1]
			j--
		}
	}
}

func sortClasses(cs [][]attr.ID) {
	for i := 1; i < len(cs); i++ {
		j := i
		for j > 0 && cs[j-1][0] > cs[j][0] {
			cs[j-1], cs[j] = cs[j], cs[j-1]
			j--
		}
	}
}
