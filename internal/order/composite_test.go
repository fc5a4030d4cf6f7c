package order

import (
	"math/rand"
	"strconv"
	"sync/atomic"
	"testing"

	"ocd/internal/attr"
	"ocd/internal/relation"
)

// bruteViolations is the O(m²) reference classification of X → Y: a split
// is a pair equal on X and different on Y, a swap a pair strictly
// increasing on X and strictly decreasing on Y.
func bruteViolations(r *relation.Relation, x, y attr.List) (split, swap bool) {
	for p := 0; p < r.NumRows(); p++ {
		for q := 0; q < r.NumRows(); q++ {
			cx, cy := CompareRows(r, p, q, x), CompareRows(r, p, q, y)
			split = split || (cx == 0 && cy != 0)
			swap = swap || (cx < 0 && cy > 0)
		}
	}
	return split, swap
}

// checkAgainstBruteForce runs all three scan modes of X against Y on h and
// reports the first disagreement with the brute-force reference, or a
// witness that is no violation under CompareRows ("" when all agree).
func checkAgainstBruteForce(h *Handle, r *relation.Relation, x, y attr.List) string {
	if got, want := h.CheckOCD(x, y), bruteOCD(r, x, y); got != want {
		return "CheckOCD = " + strconv.FormatBool(got)
	}
	if got, want := h.CheckOD(x, y), bruteOD(r, x, y); got != want {
		return "CheckOD = " + strconv.FormatBool(got)
	}
	full := h.check(x, y, scanFull)
	split, swap := bruteViolations(r, x, y)
	if full.HasSplit != split || full.HasSwap != swap || full.Valid != (!split && !swap) {
		return "CheckODFull flags differ from the reference"
	}
	if w := full.SplitWitness; split && (w.Kind != Split || CompareRows(r, w.P, w.Q, x) != 0 || CompareRows(r, w.P, w.Q, y) == 0) {
		return "split witness is no split"
	}
	if w := full.SwapWitness; swap && (w.Kind != Swap || CompareRows(r, w.P, w.Q, x) >= 0 || CompareRows(r, w.P, w.Q, y) <= 0) {
		return "swap witness is no swap"
	}
	return ""
}

// compositeRelation draws up to 80 rows over 2–5 columns with NULLs, each
// column over a domain of 2, 5, about the row count, or 1,000 values, so
// one-step extensions fall on both sides of 2·rows+compositeSlack. Every
// third relation is a HeadRows slice or a SelectRows slice over a random
// row set of random density, whose codes stay sparse in its parent's code
// space.
func compositeRelation(rng *rand.Rand) *relation.Relation {
	cols, rows := 2+rng.Intn(4), rng.Intn(81)
	names := make([]string, cols)
	doms := make([]int, cols)
	for j := range names {
		names[j] = string(rune('A' + j))
		doms[j] = []int{2, 5, rows + 1, 1000}[rng.Intn(4)]
	}
	data := make([][]string, rows)
	for i := range data {
		data[i] = make([]string, cols)
		for j := range data[i] {
			if rng.Intn(6) != 0 {
				data[i][j] = strconv.Itoa(rng.Intn(doms[j]))
			}
		}
	}
	r, err := relation.FromStrings("composite", names, data, relation.Options{})
	if err != nil {
		panic(err)
	}
	switch rng.Intn(9) {
	case 0:
		return r.HeadRows(rng.Intn(rows + 1))
	case 1, 2:
		keep := rng.Float64()
		var pick []int
		for i := 0; i < rows; i++ {
			if rng.Float64() < keep {
				pick = append(pick, i)
			}
		}
		return r.SelectRows(pick)
	}
	return r
}

// TestCompositeSidesMatchBruteForce: over random relations with NULLs and
// sparse-coded slices, sides of one to four attributes and cache caps 0, 1,
// 2 and 64, every check agrees with the brute-force reference whether a
// side resolves from the cache, as composite keys, or by a dense
// derivation, and every witness is a real violation. Both kinds of pair
// space must occur.
func TestCompositeSidesMatchBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	var composite, dense int
	for trial := 0; trial < 600; trial++ {
		r := compositeRelation(rng)
		c := NewChecker(r, []int{0, 1, 2, 64}[trial%4])
		probe := NewChecker(r, 0)
		for k := 0; k < 8; k++ {
			x, y := randomList(rng, r.NumCols(), 4), randomList(rng, r.NumCols(), 4)
			for _, l := range []attr.List{x, y} {
				if len(l) < 2 {
					continue
				}
				p, _ := probe.own.ranks(l[:len(l)-1])
				if p.dom*probe.column(l[len(l)-1:]).dom <= 2*r.NumRows()+compositeSlack {
					composite++
				} else {
					dense++
				}
			}
			if msg := checkAgainstBruteForce(c.own, r, x, y); msg != "" {
				t.Fatalf("trial %d: %v against %v: %s\nrows: %v", trial, x, y, msg, dump(r))
			}
		}
	}
	if composite == 0 || dense == 0 {
		t.Fatalf("%d composite and %d dense sides: both pair-space cases must occur", composite, dense)
	}
}

// TestCompositeStopCachesNothing: a stop flag raised while a side's prefix
// is cached ends the check in its composite-key pass; the check reports
// invalid, nothing new is cached or derived, and once the flag clears the
// same checks answer as Algorithm 2.
func TestCompositeStopCachesNothing(t *testing.T) {
	rows := make([][]int, 5000)
	for i := range rows {
		rows[i] = []int{i % 7, i % 11, (i * 5) % 13, i / 400}
	}
	r := relation.FromInts("stop", []string{"A", "B", "C", "D"}, rows)
	c := NewChecker(r, 16)
	var stop atomic.Bool
	c.SetStopFlag(&stop)
	h := c.NewHandle(16)
	x, y := attr.NewList(0, 1, 2), attr.NewList(3)
	h.CheckOD(x, y)
	h.Flush()
	cached, sorts := len(h.ents), c.Sorts()
	if cached != 1 || sorts != 1 {
		t.Fatalf("%d vectors cached after %d derivations, want only the prefix AB", cached, sorts)
	}

	stop.Store(true)
	if _, ok := h.side(x, 0); ok {
		t.Fatal("a composite side must abort on a raised stop flag")
	}
	if h.CheckOCD(x, y) || h.CheckOD(x, y) {
		t.Error("aborted checks must report invalid")
	}
	if res := h.check(x, y, scanFull); res.Valid || !res.HasSplit || !res.HasSwap {
		t.Errorf("aborted CheckODFull must report both violation kinds, got %+v", res)
	}
	if h.Flush(); len(h.ents) != cached || c.Sorts() != sorts {
		t.Fatalf("aborted checks changed the cache: %d vectors, %d derivations", len(h.ents), c.Sorts())
	}

	stop.Store(false)
	for _, p := range [][2]attr.List{{x, y}, {y, x}, {x, attr.NewList(1, 0)}} {
		split, swap := algorithm2(r, p[0], p[1])
		if res := h.check(p[0], p[1], scanFull); res.HasSplit != split || res.HasSwap != swap {
			t.Errorf("%v → %v after the stop: %+v, Algorithm 2 split %v swap %v", p[0], p[1], res, split, swap)
		}
	}
}

// TestExtensionChecksDoNotAllocate: on a warm Handle, a check whose side
// is a one-step extension of a cached prefix allocates nothing, whether
// it scans and records the swap it finds in the emptied witness ring, or
// the ring answers it.
func TestExtensionChecksDoNotAllocate(t *testing.T) {
	h, x, y := extensionHandle()
	scanned := func() {
		h.w = witnesses{}
		h.CheckOCD(x, y)
	}
	if n := testing.AllocsPerRun(100, scanned); n != 0 {
		t.Errorf("warm one-step extension check: %v allocations, want 0", n)
	}
	if h.witnessHits != 0 || h.w.n != 1 {
		t.Fatalf("%d witnessed checks and %d remembered pairs, want every check scanned and its swap remembered", h.witnessHits, h.w.n)
	}
	if n := testing.AllocsPerRun(100, func() { h.CheckOCD(x, y) }); n != 0 {
		t.Errorf("witnessed check: %v allocations, want 0", n)
	}
	if h.witnessHits != 101 {
		t.Errorf("%d witnessed checks in 101, want all", h.witnessHits)
	}
}

// extensionHandle returns a warm Handle and a check whose X side extends
// the cached prefix AB by C, on small domains so X resolves as composite
// keys, and whose Y side extends the column D by E.
func extensionHandle() (*Handle, attr.List, attr.List) {
	rng := rand.New(rand.NewSource(277))
	c := NewChecker(randomRelation(rng, 10_000, 6, 10), 0)
	h := c.NewHandle(64)
	x, y := attr.NewList(0, 1, 2), attr.NewList(3, 4)
	h.CheckOCD(x, y)
	h.check(x, y, scanFull)
	return h, x, y
}

// FuzzCheckMatchesBruteForce decodes a tiny relation and one to eight
// pairs of lists of at most four attributes, and requires all three scan
// modes to agree with the brute-force reference on each pair, checked in
// order on one Handle over two passes: the first pair meets a fresh cache
// and an empty witness ring, the later ones what the earlier ones left.
//
// Layout: columns, rows, cache cap, pair count, then per pair the two
// list lengths and the lists' attributes, then the cells row by row (0 is
// NULL).
func FuzzCheckMatchesBruteForce(f *testing.F) {
	f.Add([]byte{2, 4, 1, 0, 2, 1, 0, 1, 1, 1, 2, 3, 1, 2, 2, 1, 3, 3, 4})
	f.Add([]byte{3, 6, 3, 0, 3, 2, 2, 0, 1, 1, 2, 0, 1, 2, 3, 4, 5, 0, 1, 2, 3, 4, 5, 0, 1, 2, 3, 4, 5})
	f.Add([]byte{4, 12, 2, 0, 4, 4, 0, 1, 2, 3, 3, 2, 1, 0, 5, 4, 3, 2, 1, 0, 5, 4, 3, 2, 1, 0, 5, 4, 3, 2, 1, 0, 5, 4, 3, 2, 1, 0, 5, 4, 3, 2, 1, 0, 5, 4, 3, 2, 1, 0, 5, 4, 3, 2, 1, 0})
	f.Add([]byte{3, 6, 0, 3, 1, 1, 0, 1, 1, 1, 1, 0, 2, 1, 0, 2, 1, 1, 2, 2, 0, 1, 1, 2, 3, 2, 1, 4, 3, 3, 1, 4, 5, 2, 5, 4, 5, 2, 2, 2})
	f.Add([]byte{3, 9, 0, 1, 2, 3, 1, 0, 0, 0, 0, 3, 3, 1, 0, 0, 0, 2, 0, 0, 1, 0, 0, 0, 0, 1, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 {
			return
		}
		cols, rows, cacheCap, k := 1+int(data[0])%5, int(data[1])%13, []int{0, 1, 2, 64}[data[2]%4], 1+int(data[3])%8
		data = data[4:]
		list := func(n int) attr.List {
			l := make(attr.List, n)
			for i := range l {
				l[i] = attr.ID(int(data[i]) % cols)
			}
			data = data[n:]
			return l
		}
		pairs := make([][2]attr.List, 0, k)
		for len(pairs) < k {
			if len(data) < 2 {
				return
			}
			nx, ny := int(data[0])%5, int(data[1])%5
			if data = data[2:]; len(data) < nx+ny {
				return
			}
			pairs = append(pairs, [2]attr.List{list(nx), list(ny)})
		}
		rows = min(rows, len(data)/cols)
		cells := make([][]string, rows)
		names := make([]string, cols)
		for j := range names {
			names[j] = string(rune('A' + j))
		}
		for i := range cells {
			cells[i] = make([]string, cols)
			for j := range cells[i] {
				if v := int(data[i*cols+j]) % 6; v != 0 {
					cells[i][j] = strconv.Itoa(v)
				}
			}
		}
		r, err := relation.FromStrings("fuzz", names, cells, relation.Options{})
		if err != nil {
			t.Fatal(err)
		}
		c := NewChecker(r, cacheCap)
		for pass := 0; pass < 2; pass++ {
			for i, p := range pairs {
				if msg := checkAgainstBruteForce(c.own, r, p[0], p[1]); msg != "" {
					t.Fatalf("pass %d, pair %d: %v against %v: %s\nrows: %v", pass, i, p[0], p[1], msg, dump(r))
				}
			}
		}
	})
}
