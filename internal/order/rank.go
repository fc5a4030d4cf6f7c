package order

import (
	"hash/maphash"
	"math"
	"slices"

	"ocd/internal/attr"
)

// rankVec is an attribute list's rank vector: ranks[row] is the rank of the
// row's tuple under ⪯, in [0, dom), so two rows compare on the list exactly
// as their ranks compare. Derived vectors are dense; a column's own codes
// and composite keys may leave unused ranks, which the scans skip as empty
// groups.
type rankVec struct {
	ranks []int32
	dom   int
}

// scratch is the working memory of a Handle's checks, reused so that a
// check over cached prefixes allocates nothing.
type scratch struct {
	key          []byte     // cache key of the list being resolved
	side         [2][]int32 // composite keys of a check's X and Y sides
	lo, hi       []int32    // per X-group minimum and maximum Y-rank
	loRow, hiRow []int32    // rows holding them (CheckODFull witnesses)
	cnt          []int32    // counting-sort buckets or composite-key marks
	buf, ord     []int32    // row orders of a counting derivation
}

// grow resizes *s to n, reallocating only when its capacity is short.
func grow(s *[]int32, n int) []int32 {
	if cap(*s) < n {
		*s = make([]int32, n)
	}
	*s = (*s)[:n]
	return *s
}

// compositeSlack lets short relations use composite keys even when the
// pair space exceeds twice the row count.
const compositeSlack = 1024

// ranks returns x's dense rank vector, cached; ok is false when the stop
// flag aborted a derivation. The vector stays valid until the check ends
// (release).
func (h *Handle) ranks(x attr.List) (rankVec, bool) {
	h.s.key = appendKey(h.s.key[:0], x)
	return h.lookup(x, h.s.key, nil)
}

// side returns the rank vector of side i (0 for X, 1 for Y) of a check.
// A one-step extension L∘a of a small pair space is not derived: its
// vector is the composite key rank(L)·dom(a)+code(a), written into the
// side's scratch, whose ranks are sparse in [0, dom(L)·dom(a)) and never
// cached. So only prefixes, which sibling candidates share, fill the cache.
func (h *Handle) side(x attr.List, i int) (rankVec, bool) {
	h.s.key = appendKey(h.s.key[:0], x)
	return h.lookup(x, h.s.key, &h.s.side[i])
}

// lookup resolves the rank vector of x, whose cache key is key: a column
// directly, a longer list from the cache, or from its prefix's vector
// (resolved the same way, densely). With comp non-nil and a pair space of
// at most 2·rows+compositeSlack, that last step writes x's composite keys
// into *comp; otherwise it derives a dense vector and caches it, counting
// one cache miss. Only completed derivations are cached.
func (h *Handle) lookup(x attr.List, key []byte, comp *[]int32) (rankVec, bool) {
	c := h.c
	if len(x) < 2 {
		return c.column(x), true
	}
	hash := maphash.Bytes(c.seed, key)
	if rv, ok := h.get(key, hash); ok {
		h.hits++
		return rv, true
	}
	parent, ok := h.lookup(x[:len(x)-1], key[:len(key)-keyWidth], nil)
	if !ok {
		return rankVec{}, false
	}
	col := c.column(x[len(x)-1:])
	if span := parent.dom * col.dom; comp != nil && span <= 2*len(parent.ranks)+compositeSlack {
		return h.compose(grow(comp, len(parent.ranks)), parent, col)
	}
	h.misses++
	rv, ok := h.derive(parent, col)
	if !ok {
		return rankVec{}, false
	}
	h.cacheVec(key, hash, rv)
	return rv, true
}

// column returns the rank vector of a list of at most one attribute,
// resolved once per checker. A column ranks by its codes, without a copy.
// Row slices (HeadRows, SelectRows) keep their parent's code space,
// where a sample's codes can be sparse; anything sized by the domain
// would then cost the parent's domain on every check, so such a column
// is remapped to dense codes once. The empty list ranks every row 0.
func (c *Checker) column(x attr.List) rankVec {
	slot := len(c.cols) - 1
	if len(x) == 1 {
		slot = int(x[0])
	}
	if p := c.cols[slot].Load(); p != nil {
		return *p
	}
	var rv rankVec
	if len(x) == 0 {
		rv = rankVec{make([]int32, c.r.NumRows()), 1}
	} else {
		rv = rankVec{c.r.Col(x[0]), 1}
		for _, v := range rv.ranks {
			if int(v) >= rv.dom {
				rv.dom = int(v) + 1
			}
		}
		if rv.dom > 2*(c.r.Distinct(x[0])+1) {
			rv = denseCodes(rv.ranks)
		}
	}
	c.cols[slot].Store(&rv)
	return rv
}

// denseCodes renumbers codes densely in their order, in O(rows·log rows)
// time and O(rows) space whatever the codes' range.
func denseCodes(codes []int32) rankVec {
	vals := slices.Compact(slices.Sorted(slices.Values(codes)))
	out := make([]int32, len(codes))
	for i, v := range codes {
		r, _ := slices.BinarySearch(vals, v)
		out[i] = int32(r)
	}
	return rankVec{out, len(vals)}
}

// compose writes each row's composite key p·dom(col)+col to out: the
// rank vector of L∘a from L's vector p and a's vector col, sparse over the
// pair space. ok is false when the stop flag aborted it.
// lint:hot
func (h *Handle) compose(out []int32, p, col rankVec) (rankVec, bool) {
	c := h.c
	pr, cr, w := p.ranks, col.ranks[:len(out)], int32(col.dom)
	for i := range out {
		if uint32(i)&stopCheckMask == 0 && c.stopped() {
			return rankVec{}, false
		}
		out[i] = pr[i]*w + cr[i]
	}
	return rankVec{out, p.dom * col.dom}, true
}

// derive returns the rank vector of L∘a from L's vector p and a's vector
// col in O(rows + domain). When the pair space p.dom·col.dom is small it
// marks the composite keys present and numbers them in key order;
// otherwise two stable counting passes order the rows by (p, col) and a
// walk numbers the distinct pairs. The result lives in a recycled buffer;
// ok is false when the stop flag aborted it.
// lint:hot
func (h *Handle) derive(p, col rankVec) (rankVec, bool) {
	h.sorts++
	c, s := h.c, &h.s
	n := len(p.ranks)
	pr, cr := p.ranks, col.ranks[:n]
	out := h.buffer(n)
	if span := p.dom * col.dom; span <= 2*n+compositeSlack {
		mark := grow(&s.cnt, span)
		clear(mark)
		w := int32(col.dom)
		for i := range out {
			if uint32(i)&stopCheckMask == 0 && c.stopped() {
				return rankVec{}, false
			}
			out[i] = pr[i]*w + cr[i]
			mark[out[i]] = 1
		}
		d := int32(0)
		for k, m := range mark {
			if uint32(k)&stopCheckMask == 0 && c.stopped() {
				return rankVec{}, false
			}
			if m != 0 {
				mark[k] = d
				d++
			}
		}
		for i, k := range out {
			if uint32(i)&stopCheckMask == 0 && c.stopped() {
				return rankVec{}, false
			}
			out[i] = mark[k]
		}
		return rankVec{out, int(d)}, true
	}
	buf, ord := grow(&s.buf, n), grow(&s.ord, n)
	if !h.countSort(buf, nil, col) || !h.countSort(ord, buf, p) {
		return rankVec{}, false
	}
	d, prevP, prevC := int32(-1), int32(-1), int32(-1)
	for i, row := range ord {
		if uint32(i)&stopCheckMask == 0 && c.stopped() {
			return rankVec{}, false
		}
		if pr[row] != prevP || cr[row] != prevC {
			d, prevP, prevC = d+1, pr[row], cr[row]
		}
		out[row] = d
	}
	return rankVec{out, int(d + 1)}, true
}

// countSort writes the row positions of src (every row in order when src
// is nil) to dst, stably sorted by their rank in key: one counting sort.
// It reports false when the stop flag aborted it.
// lint:hot
func (h *Handle) countSort(dst, src []int32, key rankVec) bool {
	c := h.c
	cnt := grow(&h.s.cnt, key.dom+1)
	clear(cnt)
	for i, k := range key.ranks {
		if uint32(i)&stopCheckMask == 0 && c.stopped() {
			return false
		}
		cnt[k+1]++
	}
	for k := 1; k < len(cnt); k++ {
		if uint32(k)&stopCheckMask == 0 && c.stopped() {
			return false
		}
		cnt[k] += cnt[k-1]
	}
	for i := range dst {
		if uint32(i)&stopCheckMask == 0 && c.stopped() {
			return false
		}
		row := int32(i)
		if src != nil {
			row = src[i]
		}
		k := key.ranks[row]
		dst[cnt[k]] = row
		cnt[k]++
	}
	return true
}

// scanMode selects the violations the grouped scan looks for.
type scanMode int

const (
	scanOCD  scanMode = iota // swaps only; the first one ends the scan
	scanOD                   // splits and swaps; the first one ends the scan, a split even mid-row-pass
	scanFull                 // both kinds, each with a witness pair
)

// probeRows is the row prefix that an OCD or OD scan of at least
// 4·probeRows rows checks first. A failing check's swap often lies among
// the first rows, so the rest of the rows are read only when the prefix
// has none; a valid check pays one more group pass.
const probeRows = 4096

// scan checks X against Y (see the package comment): one pass over the
// rows collects each X-group's minimum and maximum Y-rank, then one pass
// walks the groups in rank order, skipping ranks no row has. Only scanFull
// also tracks the rows holding them, for witnesses. In scanOD mode the row
// pass ends at the first split, a row whose Y-rank differs from the first
// of its X-group; the group pass then only looks for swaps. On at least
// 4·probeRows rows, an OCD or OD scan first makes both passes over the
// first probeRows rows: a swap among them is a swap of the whole relation
// and ends the check, and otherwise the row pass goes on from there with
// the groups it has. ok is false when the stop flag aborted it.
// lint:hot
func (h *Handle) scan(x, y attr.List, mode scanMode) (res ODResult, ok bool) {
	c, s := h.c, &h.s
	xv, ok := h.side(x, 0)
	if !ok {
		return res, false
	}
	yv, ok := h.side(y, 1)
	if !ok {
		return res, false
	}
	lo, hi := grow(&s.lo, xv.dom), grow(&s.hi, xv.dom)
	for g := range lo {
		if uint32(g)&stopCheckMask == 0 && c.stopped() {
			return res, false
		}
		lo[g], hi[g] = math.MaxInt32, -1
	}
	if mode == scanFull {
		grow(&s.loRow, xv.dom)
		grow(&s.hiRow, xv.dom)
	}
	xr, yr := xv.ranks, yv.ranks[:len(xv.ranks)]
	from := 0
	if mode != scanFull && len(xr) >= 4*probeRows {
		if res, ok = h.rowPass(xr[:probeRows], yr, 0, mode); !ok || res.HasSplit {
			return res, ok
		}
		if res, ok = h.groupPass(xr[:probeRows], yr, mode); !ok || res.HasSwap {
			return res, ok
		}
		from = probeRows
	}
	if res, ok = h.rowPass(xr, yr, from, mode); !ok || res.HasSplit {
		return res, ok
	}
	return h.groupPass(xr, yr, mode)
}

// rowPass folds rows from through len(xr)−1 into the scratch's per-group
// minimum and maximum Y-rank (and, in scanFull mode, the rows holding
// them). In scanOD mode it returns at the first split.
// lint:hot
func (h *Handle) rowPass(xr, yr []int32, from int, mode scanMode) (res ODResult, ok bool) {
	c, s := h.c, &h.s
	lo, hi := s.lo, s.hi
	// One length for both, so the loops index them unchecked.
	xs := xr[from:]
	ys := yr[from:len(xr)]
	ys = ys[:len(xs)]
	switch mode {
	case scanOD:
		for k, g := range xs {
			if uint32(k)&stopCheckMask == 0 && c.stopped() {
				return res, false
			}
			if v := ys[k]; hi[g] < 0 {
				lo[g], hi[g] = v, v
			} else if v != lo[g] {
				res.HasSplit = true
				return res, true
			}
		}
	case scanOCD:
		for k, g := range xs {
			if uint32(k)&stopCheckMask == 0 && c.stopped() {
				return res, false
			}
			if v := ys[k]; v < lo[g] {
				lo[g] = v
			}
			if v := ys[k]; v > hi[g] {
				hi[g] = v
			}
		}
	default:
		loRow, hiRow := s.loRow, s.hiRow
		for k, g := range xs {
			if uint32(k)&stopCheckMask == 0 && c.stopped() {
				return res, false
			}
			if v := ys[k]; v < lo[g] {
				lo[g], loRow[g] = v, int32(from+k)
			}
			if v := ys[k]; v > hi[g] {
				hi[g], hiRow[g] = v, int32(from+k)
			}
		}
	}
	return res, true
}

// groupPass walks the groups the row pass collected in rank order. An
// OCD or OD check ends at its first violation; an OCD swap is remembered
// from the rows of xr, which are the rows the row pass read. scanFull
// finds both kinds, each with its witness pair.
// lint:hot
func (h *Handle) groupPass(xr, yr []int32, mode scanMode) (res ODResult, ok bool) {
	c, s := h.c, &h.s
	hi, loRow, hiRow := s.hi, s.loRow, s.hiRow
	lo := s.lo[:len(hi)]
	run, runRow := int32(-1), int32(0)
	for g, top := range hi {
		if uint32(g)&stopCheckMask == 0 && c.stopped() {
			return res, false
		}
		if top < 0 {
			continue // no row has this rank
		}
		if lo[g] < run && !res.HasSwap {
			res.HasSwap = true
			if mode == scanOCD {
				h.remember(xr, yr, int32(g), lo[g], run)
			}
			if mode != scanFull {
				return res, true
			}
			res.SwapWitness = Violation{Kind: Swap, P: int(runRow), Q: int(loRow[g])}
		}
		if lo[g] != top && mode != scanOCD && !res.HasSplit {
			res.HasSplit = true
			if mode != scanFull {
				return res, true
			}
			res.SplitWitness = Violation{Kind: Split, P: int(loRow[g]), Q: int(hiRow[g])}
		}
		if res.HasSplit && res.HasSwap {
			break
		}
		if top > run {
			run = top
			if mode == scanFull {
				runRow = hiRow[g]
			}
		}
	}
	return res, true
}
