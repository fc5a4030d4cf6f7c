package relation

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"hash/maphash"
	"math"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Ingestion is one streaming pass. Every column starts in integer mode: a
// cell spelled exactly as strconv.FormatInt prints a value in int32 range is
// parsed from its bytes and stored as that value, so an integer column never
// touches a dictionary. On its first other non-NULL cell a column drops to a
// dictionary, and the integers seen so far are replayed into it. The
// dictionary is one open-addressing table per column: the distinct values'
// bytes sit back to back in one arena, a value's provisional id is its
// first-occurrence number, and a cell costs one hash of its bytes and a
// probe, with no string made per cell or per distinct value. At the end an
// integer-mode column ranks its values through a dense mark array or a
// sort; a dictionary column slices its distinct values from one copy of
// the arena, infers its kind from them, ranks them and rewrites its
// provisional ids to rank codes in place. Strings rank by a sort on 8-byte
// prefix keys (rankStrings). Ranking runs on as many goroutines as
// encoding did, but not on the encoders' shares: each goroutine claims
// the column with the most distinct values left from one cursor.
//
// From the batchRows+1-th record on, the columns are shared among
// min(GOMAXPROCS, cols) encoder goroutines by their cost on the records
// encoded inline (assign): a column of mostly new values weighs several
// integer columns, so the near-unique column gets a goroutine nearly to
// itself rather than half the others too. The caller fills a flat batch
// with whole lines, every cell followed by one separator byte, and the
// cells' ends: plain lines straight from the splitter's buffer, which
// finds their separators a word at a time (splitter.scan), and any other
// record laid out by addLine. Each batch goes to every encoder, and the
// last encoder done with it returns it to a free list. Inputs of at most
// batchRows records are encoded inline and start no goroutine.

// batchRows is the number of records in one batch handed to the encoder
// goroutines, and the input size up to which none is started.
const batchRows = 1024

// maxBatches bounds the batches in flight, so the raw cells held at once
// are at most maxBatches·batchRows records.
const maxBatches = 4

// provisionalNull is the provisional id of NULL cells in dictionary mode;
// rank maps it to NullCode.
const provisionalNull = int32(-1)

// intNull marks NULL cells of an integer-mode column. It is outside the
// range parseCanonical accepts, so no value collides with it.
const intNull = int32(math.MinInt32)

// maxArena bounds a dictionary's arena, whose value ends are int32.
const maxArena = math.MaxInt32

// nullTokens is the NULL tokens of one ingestion.
type nullTokens struct {
	tokens map[string]bool
	// list holds the tokens in order; a dictionary's NULL slot refers to
	// its token by position.
	list []string
	// ints holds the tokens spelled as canonical integers; an integer-mode
	// cell holding one of them is NULL, not a value.
	ints []int32
}

func newNullTokens(tokens map[string]bool) *nullTokens {
	n := &nullTokens{tokens: tokens}
	for t := range tokens {
		n.list = append(n.list, t)
		if v, ok := parseCanonical([]byte(t)); ok {
			n.ints = append(n.ints, v)
		}
	}
	slices.Sort(n.list)
	return n
}

// parseCanonical returns the value of s when s is spelled exactly as
// strconv.FormatInt prints a value in (math.MinInt32, math.MaxInt32]: an
// optional '-', then digits without a leading zero, and no "-0".
func parseCanonical(s []byte) (int32, bool) {
	d := s
	if len(d) > 0 && d[0] == '-' {
		d = d[1:]
	}
	if len(d) == 0 || len(d) > 10 || (d[0] == '0' && len(s) > 1) {
		return 0, false
	}
	var v int64
	for _, c := range d {
		c -= '0'
		if c > 9 {
			return 0, false
		}
		v = v*10 + int64(c)
	}
	if len(d) < len(s) {
		v = -v
	}
	if v <= math.MinInt32 || v > math.MaxInt32 {
		return 0, false
	}
	return int32(v), true
}

// grow returns s with room for n more elements. A full slice at least
// doubles, where append's growth for large slices would allocate about five
// times the final size over a long column.
func grow[T any](s []T, n int) []T {
	if len(s)+n <= cap(s) {
		return s
	}
	t := make([]T, len(s), max(2*cap(s), len(s)+n, 8))
	copy(t, s)
	return t
}

// dict is a dictionary column's table of distinct cells. The NULL tokens
// are entered first, as slots that refer to their token; every other
// distinct cell is a value, numbered in first-occurrence order by its
// provisional id, with its bytes in the arena. The slots are probed
// linearly from the cell's hash and double at half load.
type dict struct {
	seed  maphash.Seed
	arena []byte  // the values' bytes, back to back by provisional id
	ends  []int32 // ends[id] is where value id ends in arena
	slots []slot  // a power of two in length; nil in integer mode
	used  int     // slots in use
	full  bool    // a value did not fit in maxArena bytes
}

// slot is one dictionary entry: its hash's low 32 bits, which also rehash
// it, and ref, which is 0 for an empty slot, id+1 for the value of
// provisional id id, and -(t+1) for NULL token t.
type slot struct {
	hash uint32
	ref  int32
}

func newDict(nulls []string) dict {
	d := dict{seed: maphash.MakeSeed(), slots: make([]slot, 16)}
	for t, tok := range nulls {
		d.insert(uint32(maphash.String(d.seed, tok)), int32(-t-1))
	}
	return d
}

// id returns cell's provisional id, or provisionalNull for a NULL token,
// entering a new value on its first occurrence. A value that would carry
// the arena past maxArena bytes is not entered: it sets full and reads as
// NULL.
func (d *dict) id(cell []byte, nulls []string) int32 {
	h := uint32(maphash.Bytes(d.seed, cell))
	mask := uint32(len(d.slots) - 1)
	for i := h & mask; d.slots[i].ref != 0; i = (i + 1) & mask {
		s := d.slots[i]
		switch {
		case s.hash != h:
		case s.ref > 0:
			if string(d.value(s.ref-1)) == string(cell) {
				return s.ref - 1
			}
		case nulls[-s.ref-1] == string(cell):
			return provisionalNull
		}
	}
	if len(d.arena)+len(cell) > maxArena {
		d.full = true
		return provisionalNull
	}
	d.arena = append(grow(d.arena, len(cell)), cell...)
	d.ends = append(grow(d.ends, 1), int32(len(d.arena)))
	id := int32(len(d.ends) - 1)
	d.insert(h, id+1)
	return id
}

// value returns the bytes of provisional id id.
func (d *dict) value(id int32) []byte {
	start := int32(0)
	if id > 0 {
		start = d.ends[id-1]
	}
	return d.arena[start:d.ends[id]]
}

// insert enters a new slot, doubling the table once it is half full.
func (d *dict) insert(h uint32, ref int32) {
	place(d.slots, slot{hash: h, ref: ref})
	if d.used++; 2*d.used < len(d.slots) {
		return
	}
	old := d.slots
	d.slots = make([]slot, 2*len(old))
	for _, s := range old {
		if s.ref != 0 {
			place(d.slots, s)
		}
	}
}

// place puts s in the first empty slot from its hash on.
func place(slots []slot, s slot) {
	mask := uint32(len(slots) - 1)
	i := s.hash & mask
	for slots[i].ref != 0 {
		i = (i + 1) & mask
	}
	slots[i] = s
}

// values returns the distinct values by provisional id, all sliced from
// one copy of the arena.
func (d *dict) values() []string {
	all := string(d.arena)
	vals := make([]string, len(d.ends))
	start := int32(0)
	for id, end := range d.ends {
		vals[id] = all[start:end]
		start = end
	}
	return vals
}

// colBuilder accumulates one column. A dict without slots means integer
// mode.
type colBuilder struct {
	nulls *nullTokens
	dict  dict
	// codes holds per-row values (intNull for NULL) in integer mode, per-row
	// provisional ids in dictionary mode, and rank codes after ranking.
	codes   []int32
	lo, hi  int32 // integer mode: the value range seen; lo > hi while none
	hasNull bool
	// Adjacent builders may belong to different encoder goroutines; the
	// padding keeps the fields each one writes per cell off the other's
	// cache line.
	_ [64]byte
}

// add appends one cell. Only the dictionary's new values copy the cell's
// bytes, into its arena.
func (b *colBuilder) add(cell []byte) {
	if b.dict.slots == nil {
		if v, ok := parseCanonical(cell); ok && !slices.Contains(b.nulls.ints, v) {
			b.lo, b.hi = min(b.lo, v), max(b.hi, v)
			b.push(v)
			return
		}
		if b.nulls.tokens[string(cell)] {
			b.hasNull = true
			b.push(intNull)
			return
		}
		b.toDict()
	}
	id := b.dict.id(cell, b.nulls.list)
	if id == provisionalNull {
		b.hasNull = true
	}
	b.push(id)
}

// push appends one code, doubling a full slice.
func (b *colBuilder) push(code int32) {
	if len(b.codes) == cap(b.codes) {
		b.codes = grow(b.codes, 1)
	}
	b.codes = append(b.codes, code)
}

// toDict moves an integer-mode column to dictionary mode, replaying the
// values seen so far in their canonical spelling.
func (b *colBuilder) toDict() {
	b.dict = newDict(b.nulls.list)
	var buf []byte
	for i, v := range b.codes {
		if v == intNull {
			b.codes[i] = provisionalNull
			continue
		}
		buf = strconv.AppendInt(buf[:0], int64(v), 10)
		b.codes[i] = b.dict.id(buf, b.nulls.list)
	}
}

// rankInts rank-encodes an integer-mode column in place. A column with no
// value is TEXT, as inferKind has it.
func (b *colBuilder) rankInts() (kind Kind, display []string, distinct int) {
	if b.lo > b.hi {
		clear(b.codes) // every cell is NULL
		return KindString, []string{"NULL"}, 0
	}
	lo := int(b.lo)
	var vals []int32 // the distinct values, ascending
	if span := int(b.hi) - lo; span <= 2*len(b.codes)+1024 {
		// rank[v-lo] is set for every value v, then holds v's rank code.
		rank := make([]int32, span+1)
		for _, v := range b.codes {
			if v != intNull {
				rank[int(v)-lo] = 1
			}
		}
		for i, seen := range rank {
			if seen != 0 {
				vals = append(vals, int32(lo+i))
				rank[i] = int32(len(vals))
			}
		}
		for i, v := range b.codes {
			if v == intNull {
				b.codes[i] = NullCode
			} else {
				b.codes[i] = rank[int(v)-lo]
			}
		}
	} else {
		vals = make([]int32, 0, len(b.codes))
		for _, v := range b.codes {
			if v != intNull {
				vals = append(vals, v)
			}
		}
		slices.Sort(vals)
		vals = slices.Clip(slices.Compact(vals))
		for i, v := range b.codes {
			if v == intNull {
				b.codes[i] = NullCode
			} else {
				k, _ := slices.BinarySearch(vals, v)
				b.codes[i] = int32(k + 1)
			}
		}
	}
	return KindInt, intDisplay(vals), len(vals)
}

// intDisplay returns "NULL" followed by the spellings of vals, all sliced
// from one string.
func intDisplay(vals []int32) []string {
	var digits []byte
	ends := make([]int, len(vals))
	for i, v := range vals {
		digits = strconv.AppendInt(digits, int64(v), 10)
		ends[i] = len(digits)
	}
	all := string(digits)
	display := make([]string, 1, len(vals)+1)
	display[0] = "NULL"
	start := 0
	for _, end := range ends {
		display = append(display, all[start:end])
		start = end
	}
	return display
}

// rank parses a dictionary column's distinct values vals, by provisional
// id, as kind, ranks them and rewrites the provisional ids to rank codes
// in place. A value that does not parse is reported at the 1-based row of
// its first occurrence.
func (b *colBuilder) rank(kind Kind, vals []string) (display []string, distinct int, err error) {
	// remap[p+1] is the rank code of provisional id p; remap[0] is NullCode.
	var remap []int32
	if kind == KindString {
		remap, display = rankStrings(vals)
	} else {
		entries := make([]rankEntry, len(vals))
		for id, s := range vals {
			e := rankEntry{s: s, id: int32(id)}
			if kind == KindInt {
				e.i, err = strconv.ParseInt(s, 10, 64)
			} else {
				e.f, err = strconv.ParseFloat(s, 64)
			}
			if err != nil {
				row := slices.Index(b.codes, int32(id)) + 1
				return nil, 0, fmt.Errorf("row %d: value %q does not parse as %v", row, s, kind)
			}
			entries[id] = e
		}
		remap, display = rankNumbers(entries, kind)
	}
	for i, p := range b.codes {
		b.codes[i] = remap[p+1]
	}
	b.dict = dict{}
	return display, len(display) - 1, nil
}

// rankEntry is one distinct non-NULL value of a numeric dictionary column,
// with its provisional id and its numeric form.
type rankEntry struct {
	s  string
	i  int64
	f  float64
	id int32
}

// rankNumbers sorts entries in the kind's natural order, spelling as
// tiebreak, and merges distinct spellings of one number ("1" and "01",
// "1.0" and "1.00") into one code, displayed by the least spelling. It
// returns remap (the rank code of provisional id p at p+1, NullCode at 0)
// and display (code → spelling, "NULL" at 0).
func rankNumbers(entries []rankEntry, kind Kind) (remap []int32, display []string) {
	num := func(a, b rankEntry) int {
		if kind == KindInt {
			return cmp.Compare(a.i, b.i)
		}
		return cmpFloat(a.f, b.f)
	}
	slices.SortFunc(entries, func(a, b rankEntry) int {
		if c := num(a, b); c != 0 {
			return c
		}
		return strings.Compare(a.s, b.s)
	})
	remap = make([]int32, len(entries)+1)
	display = make([]string, 1, len(entries)+1)
	display[0] = "NULL"
	for k, e := range entries {
		if k == 0 || num(entries[k-1], e) != 0 {
			display = append(display, e.s)
		}
		remap[e.id+1] = int32(len(display) - 1)
	}
	return remap, display
}

// rankStrings ranks distinct strings in byte order. It returns remap and
// display as rankNumbers does.
//
// The strings sort on keys: a key is 8 bytes of a string from some depth,
// big-endian and zero-padded past its end. Every string is keyed at depth
// 0 and sorted; only a run of equal keys is keyed again, 8 bytes deeper,
// and sorted within itself. Equal keys hide trailing NUL bytes, so a run
// first puts the strings that end within the key's window, shorter first,
// ahead of the rest: each is a prefix of every longer string in the run.
// Strings that share a long prefix cost one key per 8 bytes of it, and the
// pending runs are kept on a heap stack, not the call stack.
func rankStrings(vals []string) (remap []int32, display []string) {
	a := make([]keyed, len(vals))
	for id := range a {
		a[id].id = int32(id)
	}
	tmp := make([]keyed, len(a))
	type run struct{ lo, hi, depth int } // a[lo:hi] agree on depth bytes
	todo := []run{{0, len(a), 0}}
	for len(todo) > 0 {
		t := todo[len(todo)-1]
		todo = todo[:len(todo)-1]
		for i := t.lo; i < t.hi; i++ {
			a[i].key = keyAt(vals[a[i].id], t.depth)
		}
		sortKeys(a[t.lo:t.hi], tmp[t.lo:t.hi])
		for i := t.lo; i < t.hi; {
			j := i + 1
			for j < t.hi && a[j].key == a[i].key {
				j++
			}
			if j-i > 1 {
				if k := i + splitEnded(a[i:j], vals, t.depth+8); j-k > 1 {
					todo = append(todo, run{k, j, t.depth + 8})
				}
			}
			i = j
		}
	}
	remap = make([]int32, len(vals)+1)
	display = make([]string, len(vals)+1)
	display[0] = "NULL"
	for k, e := range a {
		remap[e.id+1] = int32(k + 1)
		display[k+1] = vals[e.id]
	}
	return remap, display
}

// keyed is a distinct string's provisional id and its key at some depth.
type keyed struct {
	key uint64
	id  int32
}

// keyAt is the key of s at depth: bytes depth through depth+7 of s,
// big-endian, zero past its end.
func keyAt(s string, depth int) uint64 {
	if depth+8 <= len(s) {
		return binary.BigEndian.Uint64([]byte(s[depth : depth+8]))
	}
	var k uint64
	for i := depth; i < depth+8; i++ {
		k <<= 8
		if i < len(s) {
			k |= uint64(s[i])
		}
	}
	return k
}

// splitEnded orders a run of equal keys whose window ends at end: the
// strings no longer than end go first, shorter first, and it returns how
// many there are. They are distinct and agree up to their ends, so there
// are at most 9 of them.
func splitEnded(a []keyed, vals []string, end int) int {
	n := 0
	for i, e := range a {
		if len(vals[e.id]) > end {
			continue
		}
		a[n], a[i] = a[i], a[n]
		for k := n; k > 0 && len(vals[a[k].id]) < len(vals[a[k-1].id]); k-- {
			a[k], a[k-1] = a[k-1], a[k]
		}
		n++
	}
	return n
}

// smallSort is the length up to which sortKeys uses a comparison sort.
const smallSort = 32

// sortKeys sorts a by key through an LSD radix sort, a byte per pass,
// skipping the bytes in which every key agrees. tmp is as long as a.
func sortKeys(a, tmp []keyed) {
	if len(a) <= smallSort {
		slices.SortFunc(a, func(x, y keyed) int { return cmp.Compare(x.key, y.key) })
		return
	}
	var count [8][256]int32
	for _, e := range a {
		for b := range count {
			count[b][byte(e.key>>(8*b))]++
		}
	}
	first := a[0].key
	src, dst := a, tmp
	for b := range count {
		c := &count[b]
		if int(c[byte(first>>(8*b))]) == len(a) {
			continue
		}
		for k, sum := 0, int32(0); k < len(c); k++ {
			c[k], sum = sum, sum+c[k]
		}
		for _, e := range src {
			k := byte(e.key >> (8 * b))
			dst[c[k]] = e
			c[k]++
		}
		src, dst = dst, src
	}
	if &src[0] != &a[0] {
		copy(a, src)
	}
}

// batch is a flat, row-major run of records awaiting the encoders.
type batch struct {
	buf  []byte       // the records' lines, each cell followed by one separator byte
	ends []int        // ends[k] is where cell k ends in buf; cell k+1 starts one byte on
	refs atomic.Int32 // encoders still to finish with it
}

// encoder encodes a stream of records of len(cols) fields.
type encoder struct {
	cols []colBuilder
	rows int

	// Set once the stream passes batchRows records.
	feeds []chan *batch // one per encoder goroutine
	free  chan *batch
	made  int // batches allocated, at most maxBatches
	cur   *batch
	wg    sync.WaitGroup
	procs int // encoder goroutines started; finish uses as many

	line  []byte   // addStrings' record, laid out as a line
	cells [][]byte // addStrings' cells, sliced from line
}

// newEncoder returns an encoder for ncols columns. forceString starts every
// column in dictionary mode.
func newEncoder(ncols int, nulls map[string]bool, forceString bool) *encoder {
	e := &encoder{cols: make([]colBuilder, ncols)}
	ns := newNullTokens(nulls)
	for c := range e.cols {
		b := colBuilder{nulls: ns, codes: []int32{}, lo: math.MaxInt32, hi: math.MinInt32}
		if forceString {
			b.dict = newDict(ns.list)
		}
		e.cols[c] = b
	}
	return e
}

// presize makes room for rows codes in every column, so that a column
// expected to hold rows codes grows its slice once rather than doubling
// up to it.
func (e *encoder) presize(rows int) {
	for c := range e.cols {
		if b := &e.cols[c]; rows > cap(b.codes) {
			b.codes = append(make([]int32, 0, rows), b.codes...)
		}
	}
}

// addStrings encodes one record of string cells. The caller may reuse rec
// once it returns.
func (e *encoder) addStrings(rec []string) {
	e.line, e.cells = layOut(e.line, e.cells, rec)
	e.addLine(e.line, e.cells)
}

// layOut copies the cells of rec into line, back to back and each followed
// by one separator byte, and returns line and the cells sliced from it.
func layOut(line []byte, cells [][]byte, rec []string) ([]byte, [][]byte) {
	line, cells = line[:0], cells[:0]
	for _, cell := range rec {
		line = append(append(line, cell...), ',')
	}
	start := 0
	for _, cell := range rec {
		cells = append(cells, line[start:start+len(cell)])
		start += len(cell) + 1
	}
	return line, cells
}

// addLine encodes one record. line holds its cells back to back, each
// followed by one separator byte, and rec the cells sliced from it. The
// caller may reuse both once addLine returns.
func (e *encoder) addLine(line []byte, rec [][]byte) {
	if e.feeds == nil {
		if e.rows < batchRows || len(e.cols) == 0 {
			e.rows++
			for c, cell := range rec {
				e.cols[c].add(cell)
			}
			return
		}
		e.start()
	}
	b := e.batch()
	end := len(b.buf)
	b.buf = append(b.buf, line...)
	for _, cell := range rec {
		end += len(cell)
		b.ends = append(b.ends, end)
		end++
	}
	e.took(1)
}

// batch returns the batch that records go into, taking one when none is.
func (e *encoder) batch() *batch {
	if e.cur == nil {
		e.cur = e.take()
	}
	return e.cur
}

// took counts n records that were put into the current batch, and sends
// it once it holds batchRows.
func (e *encoder) took(n int) {
	e.rows += n
	if len(e.cur.ends) == batchRows*len(e.cols) {
		e.send()
	}
}

func (e *encoder) start() {
	e.procs = min(runtime.GOMAXPROCS(0), len(e.cols))
	e.feeds = make([]chan *batch, e.procs)
	// Every channel holds up to maxBatches, the most batches that exist, so
	// sends never block; only take waits for a batch to come free.
	e.free = make(chan *batch, maxBatches)
	for w, cols := range e.assign() {
		feed := make(chan *batch, maxBatches)
		e.feeds[w] = feed
		e.wg.Add(1)
		go e.encode(feed, cols)
	}
}

// assign shares the columns among the procs encoder goroutines by their
// cost on the records encoded inline: costliest first, each to the
// goroutine with the least cost so far, as finish ranks them. So a column
// of mostly new values, whose probes miss cache on a table that keeps
// doubling, does not share its goroutine with half the others.
func (e *encoder) assign() [][]int {
	cost := make([]float64, len(e.cols))
	order := make([]int, len(e.cols))
	for c := range e.cols {
		cost[c], order[c] = e.cols[c].cost(), c
	}
	slices.SortStableFunc(order, func(x, y int) int { return cmp.Compare(cost[y], cost[x]) })
	owned := make([][]int, e.procs)
	load := make([]float64, e.procs)
	for _, c := range order {
		w := 0
		for v := range load {
			if load[v] < load[w] {
				w = v
			}
		}
		owned[w] = append(owned[w], c)
		load[w] += cost[c]
	}
	return owned
}

// cost estimates a column's encoding cost per cell from the cells added so
// far, in units of an integer-mode cell. Measured alone on the LINEITEM
// replica, an integer cell took about 19 ns, a dictionary cell of a few
// distinct values about 35 ns and a cell of a near-unique column about
// 130 ns: a dictionary cell costs a hash, a probe and, in proportion to its
// column's share of new values, a cache miss and an arena append.
func (b *colBuilder) cost() float64 {
	if b.dict.slots == nil {
		return 1
	}
	return 1.75 + 5.25*float64(len(b.dict.ends))/float64(max(len(b.codes), 1))
}

// encode is one encoder goroutine: it encodes the columns cols of every
// batch it is fed.
func (e *encoder) encode(feed <-chan *batch, cols []int) {
	defer e.wg.Done()
	nc := len(e.cols)
	for b := range feed {
		// A column at a time keeps that column's state and branches hot.
		for _, c := range cols {
			col := &e.cols[c]
			for k := c; k < len(b.ends); k += nc {
				from := 0
				if k > 0 {
					from = b.ends[k-1] + 1
				}
				col.add(b.buf[from:b.ends[k]])
			}
		}
		if b.refs.Add(-1) == 0 {
			b.buf, b.ends = b.buf[:0], b.ends[:0]
			e.free <- b
		}
	}
}

// take returns an empty batch, blocking while maxBatches are in flight.
func (e *encoder) take() *batch {
	if e.made < maxBatches {
		select {
		case b := <-e.free:
			return b
		default:
		}
		e.made++
		return &batch{ends: make([]int, 0, batchRows*len(e.cols))}
	}
	return <-e.free
}

func (e *encoder) send() {
	b := e.cur
	e.cur = nil
	b.refs.Store(int32(len(e.feeds)))
	for _, feed := range e.feeds {
		feed <- b
	}
}

// close hands the encoders the last partial batch, then stops them and
// waits until they have exited. Every exit path of a stream calls it; it is
// safe on a nil encoder and more than once.
func (e *encoder) close() {
	if e == nil || e.feeds == nil {
		return
	}
	if e.cur != nil {
		e.send()
	}
	for _, feed := range e.feeds {
		close(feed)
	}
	e.feeds = nil
	e.wg.Wait()
}

// finish closes the stream and ranks every column on as many goroutines
// as encoded it. They claim columns from one cursor, those with the most
// distinct values first, so the costliest column starts at once and the
// others fill in around it.
func (e *encoder) finish(name string, colNames []string, opts Options) (*Relation, error) {
	e.close()
	nc := len(e.cols)
	r := &Relation{
		Name:     name,
		ColNames: append([]string(nil), colNames...),
		Kinds:    make([]Kind, nc),
		Codes:    make([][]int32, nc),
		display:  make([][]string, nc),
		distinct: make([]int, nc),
		hasNull:  make([]bool, nc),
		rows:     e.rows,
	}
	order := make([]int, nc)
	for c := range order {
		order[c] = c
	}
	slices.SortStableFunc(order, func(x, y int) int { return len(e.cols[y].dict.ends) - len(e.cols[x].dict.ends) })
	// Stop need not be safe for concurrent use, so only the calling
	// goroutine polls it; the others see halt. It is polled once before
	// any column is claimed too, so a stop that is already due names the
	// first column whichever goroutine would have claimed it.
	var halt atomic.Bool
	halt.Store(opts.Stop != nil && opts.Stop())
	var cursor atomic.Int64
	errs := make([]error, nc)
	finalize := func(caller bool) {
		for {
			k := int(cursor.Add(1) - 1)
			if k >= nc {
				return
			}
			c := order[k]
			if caller && opts.Stop != nil && opts.Stop() {
				halt.Store(true)
			}
			if halt.Load() {
				errs[c] = fmt.Errorf("relation %s: rank-encode column %d: %w", name, c+1, ErrStopped)
				return
			}
			b := &e.cols[c]
			var kind Kind
			var disp []string
			var distinct int
			if b.dict.slots == nil {
				kind, disp, distinct = b.rankInts()
			} else {
				if b.dict.full {
					errs[c] = fmt.Errorf("relation %s: column %d (%s): distinct values exceed %d bytes", name, c+1, colNames[c], maxArena)
					continue
				}
				vals := b.dict.values()
				kind = KindString
				if !opts.ForceString {
					kind = inferKind(vals, nil)
				}
				var err error
				disp, distinct, err = b.rank(kind, vals)
				if err != nil {
					errs[c] = fmt.Errorf("relation %s: column %d (%s): %w", name, c+1, colNames[c], err)
					continue
				}
			}
			r.Kinds[c], r.Codes[c], r.display[c], r.distinct[c], r.hasNull[c] = kind, b.codes, disp, distinct, b.hasNull
		}
	}
	var wg sync.WaitGroup
	for w := 1; w < e.procs; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			finalize(false)
		}()
	}
	finalize(true)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return r, nil
}
