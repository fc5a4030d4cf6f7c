// Package orderalg implements the ORDER baseline of Langer and Naumann
// ("Efficient order dependency detection", VLDB Journal 2016), the first
// order-dependency discovery algorithm, which the paper compares against in
// Table 6.
//
// ORDER traverses a lattice of OD candidates X → Y whose sides are *disjoint*
// attribute lists, level-wise and bottom-up, starting from all ordered pairs
// of single attributes. Pruning follows the split/swap dichotomy:
//
//   - a valid candidate is emitted; only its right-hand side is extended
//     (left-hand extensions XZ → Y are implied by X → Y);
//   - a candidate falsified by a swap is a leaf: the swap pair persists
//     under every extension of either side;
//   - a candidate falsified only by splits extends the left-hand side only:
//     extra LHS attributes can break the ties, while any RHS extension
//     inherits the split.
//
// Because both sides must stay disjoint, ORDER cannot represent ODs with
// repeated attributes such as [A,B] → [B]; the paper shows (YES dataset,
// Table 5) that such dependencies are not always inferable, making ORDER
// incomplete — OCDDISCOVER's motivating observation.
package orderalg

import (
	"sort"
	"time"

	"ocd/internal/attr"
	"ocd/internal/order"
	"ocd/internal/relation"
)

// OD is an order dependency X → Y with disjoint sides.
type OD struct {
	X, Y attr.List
}

// Format renders the OD using the naming function.
func (d OD) Format(names func(attr.ID) string) string {
	return d.X.Format(names) + " -> " + d.Y.Format(names)
}

// Options configure a run of ORDER.
type Options struct {
	// Timeout bounds wall-clock time (0 = none); on expiry the run stops
	// at a level boundary and marks the result truncated.
	Timeout time.Duration
	// MaxCandidates bounds the total number of generated candidates
	// (0 = none).
	MaxCandidates int64
	// IndexCacheSize bounds the rank-vector cache (0 = default 64).
	IndexCacheSize int
}

// Result is the output of a run.
type Result struct {
	ODs        []OD
	Checks     int64
	Candidates int64
	Levels     int
	Elapsed    time.Duration
	Truncated  bool
}

// Discover runs ORDER over the relation and returns all discovered ODs with
// disjoint sides.
func Discover(r *relation.Relation, opts Options) *Result {
	cacheSize := opts.IndexCacheSize
	if cacheSize == 0 {
		cacheSize = 64
	}
	chk := order.NewChecker(r, cacheSize)
	res := &Result{}
	start := time.Now()
	var deadline time.Time
	if opts.Timeout > 0 {
		deadline = start.Add(opts.Timeout)
	}
	expired := func() bool { return !deadline.IsZero() && time.Now().After(deadline) }

	n := r.NumCols()
	var level []attr.Pair
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j {
				level = append(level, attr.NewPair(
					attr.Singleton(attr.ID(i)), attr.Singleton(attr.ID(j))))
			}
		}
	}
	res.Candidates = int64(len(level))

	for len(level) > 0 {
		if expired() {
			res.Truncated = true
			break
		}
		seen := make(map[string]struct{})
		var next []attr.Pair
		for _, p := range level {
			if expired() {
				res.Truncated = true
				break
			}
			full := chk.CheckODFull(p.X, p.Y)
			free := func() []attr.ID {
				used := p.X.Set().Union(p.Y.Set())
				var f []attr.ID
				for a := 0; a < n; a++ {
					if !used.Has(attr.ID(a)) {
						f = append(f, attr.ID(a))
					}
				}
				return f
			}
			push := func(c attr.Pair) {
				k := c.Key()
				if _, dup := seen[k]; !dup {
					seen[k] = struct{}{}
					next = append(next, c)
				}
			}
			switch {
			case full.Valid:
				res.ODs = append(res.ODs, OD{X: p.X, Y: p.Y})
				for _, a := range free() {
					push(attr.NewPair(p.X, p.Y.Append(a)))
				}
			case full.HasSwap:
				// leaf: the swap persists under every extension
			default: // splits only
				for _, a := range free() {
					push(attr.NewPair(p.X.Append(a), p.Y))
				}
			}
		}
		res.Levels++
		res.Candidates += int64(len(next))
		if opts.MaxCandidates > 0 && res.Candidates > opts.MaxCandidates {
			res.Truncated = true
			break
		}
		level = next
	}

	res.Checks = chk.Checks()
	res.Elapsed = time.Since(start)
	sort.Slice(res.ODs, func(i, j int) bool {
		a, b := res.ODs[i], res.ODs[j]
		if c := a.X.Compare(b.X); c != 0 {
			return c < 0
		}
		return a.Y.Compare(b.Y) < 0
	})
	return res
}
