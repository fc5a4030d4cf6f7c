package order

import "ocd/internal/attr"

// witnessRing is how many recent swap witnesses a Handle remembers. On
// HEPATITIS, rings of 1, 2, 4, 8, 16 and 32 pairs reject 54%, 64%, 68%,
// 95%, 99.0% and 99.7% of the failing OCD checks (EXPERIMENTS.md, "Swap
// witnesses").
const witnessRing = 16

// witnesses is a Handle's ring of the row pairs that most recently
// falsified an OCD check. Candidates that share a failing prefix tend to
// fail on the same rows, so a pair that swapped one check often swaps the
// next one too.
type witnesses struct {
	pairs [witnessRing][2]int32
	n     int // pairs filled
	next  int // the oldest pair, overwritten next
}

// swapWitnessed reports whether a remembered pair (p, q) is ordered
// strictly one way on X and strictly the other way on Y: a swap, which
// falsifies X ~ Y (see the package comment) without resolving a side.
// Its loops are bounded by the lists' lengths and the ring's size, not by
// the rows, so it polls no stop flag.
func (h *Handle) swapWitnessed(x, y attr.List) bool {
	r := h.c.r
	for _, pq := range h.w.pairs[:h.w.n] {
		p, q := int(pq[0]), int(pq[1])
		if cx := CompareRows(r, p, q, x); cx != 0 && CompareRows(r, p, q, y) == -cx {
			return true
		}
	}
	return false
}

// remember records the swap an OCD scan found at X-group g: a row of an
// earlier group at Y-rank run, and a row of g at its minimum Y-rank lo,
// below run. One pass over the check's rank vectors finds both; the pair
// overwrites the ring's oldest. A stop mid-pass records nothing.
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
	w.pairs[w.next] = [2]int32{p, q}
	w.next = (w.next + 1) % witnessRing
	if w.n < witnessRing {
		w.n++
	}
}
