// Package order implements the lexicographic order operator ⪯ over attribute
// lists (Definition 2.1) and the validity checks for order dependencies and
// order compatibility dependencies (Section 4.3 of the paper).
//
// A violating pair of rows is classified as a *split* (equal LHS, differing
// RHS — a functional-dependency violation) or a *swap* (strictly increasing
// LHS, strictly decreasing RHS — an order-compatibility violation); an OD
// holds iff the instance contains neither (Theorem 3.9).
//
// Algorithm 2 of the paper finds them by sorting the rows and scanning
// adjacent pairs; the Checker needs no sort. The rank vector of a list L
// holds, per row, a rank of the row's L-tuple under ⪯, so rows compare on
// L as their ranks do; ranks no row has are allowed. A column's vector is
// its rank codes. Discovery checks one-step extensions of valid parents
// (Algorithm 3), so a check side is usually L∘a: when its pair space
// dom(L)·dom(a) is at most 2·rows+1024, its vector is the composite key
// rank(L)·dom(a)+code(a), written in one pass into the Handle's scratch and
// never cached. L itself, SortedIndex lists and larger pair spaces get a
// dense vector, derived from the prefix's vector in one O(rows + domain)
// pass and cached (rank.go), so the caches hold the prefixes that sibling
// candidates share. A check of X against Y makes one pass over the rows
// collecting each X-rank group's minimum and maximum Y-rank, and one pass
// over the non-empty groups in rank order:
//
//   - a split is a group whose minimum differs from its maximum;
//   - a swap is a group whose minimum is below the running maximum of the
//     earlier groups: a row q with an earlier row p, p_X ≺ q_X, p_Y ≻ q_Y.
//     Conversely every swap (p, q) puts q's group minimum below that
//     running maximum.
//
// These are exactly the adjacent-pair findings of Algorithm 2, which sorts
// by XY so that each X-group lies in Y order. The OCD X ~ Y is the OD
// XY → YX (Theorem 4.1), which no split violates and which (p, q) swaps
// iff p_X ≺ q_X and p_Y ≻ q_Y (for p_X = q_X the XY order puts p_Y ≺ q_Y,
// and YX cannot decrease): the swap-only grouped scan, without building XY.
//
// Most OCD checks of a discovery fail (124,485 of 128,890 on HEPATITIS),
// and candidates that extend the same lists often fail on the same rows.
// So each Handle keeps a ring of the row pairs that falsified its 16 most
// recent failing OCD checks (witness.go), each stored as its sign row: per
// column, the sign of the pair's code difference, one bit per pair in two
// masks per column. An OCD check reads every pair's first nonzero sign
// along X and along Y at once, which is how each pair compares on each
// list; a pair ordered strictly opposite on the two is a swap, and the
// check fails without touching the relation, resolving a side or
// scanning. Otherwise the scan runs, and when it finds a swap at
// group g, one more pass over the two sides' rank vectors finds a row of g
// at g's minimum Y-rank and a row of an earlier group at the running
// maximum: that pair's sign row replaces the ring's oldest.
//
// On at least 4·probeRows rows, an OCD or OD scan first makes its row pass
// over the first probeRows rows and one group pass over what they filled:
// a swap there is a swap of the whole relation, so it ends the check (an
// OCD remembers it from the prefix's rows), and otherwise the row pass
// goes on from the prefix's end with the groups it has. So a check that
// fails within the prefix reads a fraction of the rows, and one that does
// not pays one more group pass. A valid OCD or OD, and every CheckODFull,
// pays the full scan.
package order

import (
	"hash/maphash"
	"sync"
	"sync/atomic"

	"ocd/internal/attr"
	"ocd/internal/faultinject"
	"ocd/internal/obs"
	"ocd/internal/relation"
)

// stopCheckMask throttles cooperative-stop polling inside row scans: the
// atomic flag is loaded once per (mask+1) iterations, so the hot path costs
// a local counter increment and the occasional load.
const stopCheckMask = 1023

// CompareRows compares tuples at row positions i and j on the attribute list
// X under the ⪯ operator of Definition 2.1, returning -1, 0 or 1. NULLs sort
// first and compare equal to each other (rank encoding guarantees both).
func CompareRows(r *relation.Relation, i, j int, x attr.List) int {
	for _, a := range x {
		ci, cj := r.Code(i, a), r.Code(j, a)
		if ci < cj {
			return -1
		}
		if ci > cj {
			return 1
		}
	}
	return 0
}

// Leq reports p_X ⪯ q_X for row positions p, q.
func Leq(r *relation.Relation, p, q int, x attr.List) bool {
	return CompareRows(r, p, q, x) <= 0
}

// ViolationKind classifies why an OD fails on an instance.
type ViolationKind int

const (
	// Split: two tuples agree on the LHS but differ on the RHS; the
	// embedded functional dependency is violated.
	Split ViolationKind = iota
	// Swap: the LHS strictly increases while the RHS strictly decreases;
	// order compatibility is violated.
	Swap
)

// String names the violation kind.
func (k ViolationKind) String() string {
	if k == Split {
		return "split"
	}
	return "swap"
}

// Violation is a witness pair of row positions falsifying an OD.
type Violation struct {
	Kind ViolationKind
	P, Q int
}

// ODResult reports the outcome of a full OD check.
type ODResult struct {
	// Valid is true when the OD holds: no split and no swap.
	Valid bool
	// HasSplit / HasSwap report which violation kinds occur anywhere in
	// the instance (both may be true). They drive the pruning rules of the
	// discovery algorithms.
	HasSplit bool
	HasSwap  bool
	// SplitWitness / SwapWitness are example violating pairs, valid only
	// when the corresponding Has flag is set.
	SplitWitness Violation
	SwapWitness  Violation
}

// Checker performs order checks against a fixed relation. It holds what
// every check reads: the relation's column rank vectors and the stop flag,
// and the totals its Handles flush. What a check mutates — the cache of
// derived rank vectors, scratch arrays, recycled buffers, the check and
// derivation counts — lives in a Handle, one per goroutine: the paper's
// multi-threaded tree traversal (Section 4.2.2) gives each worker its own,
// so no check writes memory another worker reads. The Checker's own
// methods run on a built-in Handle behind a mutex, so a Checker is safe
// for concurrent use.
type Checker struct {
	r *relation.Relation

	// cols[a] is column a's rank vector, resolved on first use; the extra
	// last slot holds the empty list's all-zero vector.
	cols []atomic.Pointer[rankVec]

	// seed hashes the cache keys of every Handle.
	seed maphash.Seed

	checks atomic.Int64
	sorts  atomic.Int64

	// stop, when non-nil and true, aborts checks cooperatively: rank
	// derivations and scans bail mid-row, aborted checks report invalid,
	// and nothing partial is ever cached. Armed by the discovery engine's
	// context watcher.
	stop *atomic.Bool

	// Pre-resolved instrumentation handles; nil (no-op) until SetObs.
	obsHits, obsMisses, obsWitnessHits *obs.Counter

	// mu serializes the Checker's own methods on own and guards handles,
	// every Handle made on this Checker (own included).
	mu      sync.Mutex
	own     *Handle
	handles []*Handle
}

// NewChecker returns a Checker over r whose built-in Handle caches at most
// cacheCap rank vectors of multi-attribute lists (0 disables caching).
func NewChecker(r *relation.Relation, cacheCap int) *Checker {
	c := &Checker{
		r:    r,
		cols: make([]atomic.Pointer[rankVec], r.NumCols()+1),
		seed: maphash.MakeSeed(),
	}
	c.own = c.NewHandle(cacheCap)
	return c
}

// Relation returns the relation the checker operates on.
func (c *Checker) Relation() *relation.Relation { return c.r }

// SetStopFlag arms cooperative cancellation: once *stop is true, in-flight
// and future checks abort quickly and conservatively report the candidate
// invalid (callers observing the flag must discard, not trust, aborted
// answers). Not safe to call concurrently with checks.
func (c *Checker) SetStopFlag(stop *atomic.Bool) { c.stop = stop }

// stopped reports whether a cooperative stop has been requested.
func (c *Checker) stopped() bool { return c.stop != nil && c.stop.Load() }

// Checks returns the number of candidate checks performed, the "#checks"
// statistic of Table 6, as of each Handle's last Flush. The Checker's own
// methods flush before they return.
func (c *Checker) Checks() int64 { return c.checks.Load() }

// Sorts returns how many dense rank vectors were derived, as of each
// Handle's last Flush. Composite-key sides are not derivations.
func (c *Checker) Sorts() int64 { return c.sorts.Load() }

// SortedIndex returns row positions sorted ascending by list x under ⪯,
// ties in row order (generateIndex in Algorithm 2): one counting sort of
// the rows by x's rank vector. Do not mutate the result. A nil return means
// the build was aborted by the stop flag.
func (c *Checker) SortedIndex(x attr.List) []int32 {
	c.mu.Lock()
	defer c.mu.Unlock()
	h := c.own
	defer h.Flush()
	defer h.release()
	rv, ok := h.ranks(x)
	if !ok {
		return nil
	}
	idx := make([]int32, len(rv.ranks))
	if !h.countSort(idx, nil, rv) {
		return nil
	}
	return idx
}

// CheckOCD reports whether the order compatibility dependency X ~ Y holds:
// by Theorem 4.1 the OD XY → YX, whose only possible violations are swaps
// between X-groups (see the package comment).
func (c *Checker) CheckOCD(x, y attr.List) bool {
	return c.check(x, y, scanOCD).Valid
}

// CheckOD reports whether the order dependency X → Y holds, stopping at the
// first violation of either kind.
func (c *Checker) CheckOD(x, y attr.List) bool {
	return c.check(x, y, scanOD).Valid
}

// CheckODFull checks X → Y over the whole instance, classifying violations
// so callers learn whether splits and/or swaps exist, with a witness pair
// for each kind found.
func (c *Checker) CheckODFull(x, y attr.List) ODResult {
	return c.check(x, y, scanFull)
}

// check runs one check on the built-in Handle.
func (c *Checker) check(x, y attr.List, mode scanMode) ODResult {
	c.mu.Lock()
	defer c.mu.Unlock()
	defer c.own.Flush()
	return c.own.check(x, y, mode)
}

// CheckOCD is Checker.CheckOCD on this Handle's cache.
func (h *Handle) CheckOCD(x, y attr.List) bool {
	return h.check(x, y, scanOCD).Valid
}

// CheckOD is Checker.CheckOD on this Handle's cache.
func (h *Handle) CheckOD(x, y attr.List) bool {
	return h.check(x, y, scanOD).Valid
}

// check runs one candidate check: exactly one count towards Checks(),
// published by the next Flush, then the grouped scan. An OCD check first
// probes the ring of recent swap witnesses, and a witnessed swap answers
// it without the scan. An aborted check conservatively reports both
// violation kinds so no pruning rule treats the candidate as verified.
func (h *Handle) check(x, y attr.List, mode scanMode) ODResult {
	h.checks++
	faultinject.Point("order.checker.check")
	if mode == scanOCD && h.swapWitnessed(x, y) {
		h.witnessHits++
		return ODResult{HasSwap: true}
	}
	res, ok := h.scan(x, y, mode)
	h.release()
	if !ok {
		return ODResult{HasSplit: true, HasSwap: true}
	}
	res.Valid = !res.HasSplit && !res.HasSwap
	return res
}

// OrderEquivalent reports whether X ↔ Y (both X → Y and Y → X hold).
func (c *Checker) OrderEquivalent(x, y attr.List) bool {
	return c.CheckOD(x, y) && c.CheckOD(y, x)
}

// IsConstantList reports whether every attribute in x is constant; the empty
// list is trivially constant.
func (c *Checker) IsConstantList(x attr.List) bool {
	for _, a := range x {
		if !c.r.IsConstant(a) {
			return false
		}
	}
	return true
}
