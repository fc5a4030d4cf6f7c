package order

import "ocd/internal/attr"

// witnessRing is how many recent swap witnesses a Handle remembers. On
// HEPATITIS, rings of 1, 2, 4, 8, 16 and 32 pairs reject 54%, 64%, 68%,
// 95%, 99.0% and 99.7% of the failing OCD checks (EXPERIMENTS.md, "Swap
// witnesses"). A slot is one bit of a signs word, so it is at most 16.
const witnessRing = 16

// The ring's slots must fit the bits of a signs word.
const _ = uint16(1 << (witnessRing - 1))

// witnesses is a Handle's ring of the row pairs that most recently
// falsified an OCD check. Candidates that share a failing prefix tend to
// fail on the same rows, so a pair that swapped one check often swaps the
// next one too. Slot k's pair (p, q) is kept as its sign row: bit k of
// the Handle's signs[a] for every column a, set in lt when code(p, a) <
// code(q, a), in gt when code(p, a) > code(q, a), and in neither on a
// tie. The first nonzero sign along a list is how p and q compare on it
// under ⪯, as CompareRows would say, and the probe reads it for all slots
// at once without touching the relation.
type witnesses struct {
	n    int // slots filled
	next int // the oldest slot, overwritten next
}

// signs holds one column's signs of every ring slot, one bit per slot.
type signs struct{ lt, gt uint16 }

// swapWitnessed reports whether a remembered pair (p, q) is ordered
// strictly one way on X and strictly the other way on Y: a swap, which
// falsifies X ~ Y (see the package comment) without resolving a side.
// Its loops are bounded by the lists' lengths, not by the rows, so it
// polls no stop flag.
func (h *Handle) swapWitnessed(x, y attr.List) bool {
	xlt, xgt := h.firstSigns(x, uint16(1)<<h.w.n-1)
	if xlt|xgt == 0 {
		return false
	}
	ylt, ygt := h.firstSigns(y, xlt|xgt)
	return xlt&ygt|xgt&ylt != 0
}

// firstSigns returns which of the slots in live have their first nonzero
// sign along x negative (lt) and which positive (gt); a slot in neither
// ties on x.
func (h *Handle) firstSigns(x attr.List, live uint16) (lt, gt uint16) {
	for _, a := range x {
		s := h.signs[a]
		lt |= s.lt & live
		gt |= s.gt & live
		if live &^= s.lt | s.gt; live == 0 {
			break
		}
	}
	return lt, gt
}

// remember records the swap an OCD scan found at X-group g: a row of an
// earlier group at Y-rank run, and a row of g at its minimum Y-rank lo,
// below run. One pass over the check's rank vectors finds both, and the
// pair's sign row overwrites the ring's oldest slot. A stop mid-pass
// records nothing.
// lint:hot
func (h *Handle) remember(xr, yr []int32, g, lo, run int32) {
	c := h.c
	p, q := int32(-1), int32(-1)
	for i, gi := range xr {
		if uint32(i)&stopCheckMask == 0 && c.stopped() {
			return
		}
		if gi == g && yr[i] == lo {
			q = int32(i)
		} else if gi < g && yr[i] == run {
			p = int32(i)
		}
		if p >= 0 && q >= 0 {
			break
		}
	}
	w := &h.w
	signRow(h.signs, w.next, c.r.Codes, p, q)
	w.next = (w.next + 1) % witnessRing
	if w.n < witnessRing {
		w.n++
	}
}

// signRow writes the signs of code(p, a) − code(q, a) for every column a
// of codes to slot k of ss. It runs once per remembered pair, bounded by
// the column count, so it polls no stop flag.
func signRow(ss []signs, k int, codes [][]int32, p, q int32) {
	bit := uint16(1) << k
	for a, col := range codes {
		s := &ss[a]
		s.lt &^= bit
		s.gt &^= bit
		switch cp, cq := col[p], col[q]; {
		case cp < cq:
			s.lt |= bit
		case cp > cq:
			s.gt |= bit
		}
	}
}
