package relation

import (
	"cmp"
	"fmt"
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
// touches a map. On its first other non-NULL cell a column drops to a
// dictionary: each raw value maps to a provisional id in first-occurrence
// order, the integers seen so far are replayed into it, and from then on a
// cell costs one map lookup and only the distinct values outlive their
// record. At the end an integer-mode column ranks its values through a
// dense mark array or a sort; a dictionary column infers its kind from its
// distinct values, ranks them and rewrites its provisional ids to rank codes
// in place.
//
// From the batchRows+1-th record on, the columns are striped across
// min(GOMAXPROCS, cols) encoder goroutines: the caller copies each
// record's bytes into a flat batch and hands it to every encoder, and the
// last encoder done with a batch returns it to a free list. Inputs of at
// most batchRows records are encoded inline and start no goroutine.

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

// nullTokens is the NULL tokens of one ingestion.
type nullTokens struct {
	tokens map[string]bool
	// ints holds the tokens spelled as canonical integers; an integer-mode
	// cell holding one of them is NULL, not a value.
	ints []int32
}

func newNullTokens(tokens map[string]bool) *nullTokens {
	n := &nullTokens{tokens: tokens}
	for t := range tokens {
		if v, ok := parseCanonical([]byte(t)); ok {
			n.ints = append(n.ints, v)
		}
	}
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

// colBuilder accumulates one column. A nil dict means integer mode.
type colBuilder struct {
	nulls *nullTokens
	dict  map[string]int32 // raw value → provisional id; NULL tokens → provisionalNull
	vals  []string         // distinct non-NULL values, by provisional id
	// codes holds per-row values (intNull for NULL) in integer mode, per-row
	// provisional ids in dictionary mode, and rank codes after ranking.
	codes   []int32
	lo, hi  int32 // integer mode: the value range seen; lo > hi while none
	hasNull bool
	// Adjacent builders belong to different encoder goroutines; the padding
	// keeps the fields each one writes per cell off the other's cache line.
	_ [64]byte
}

// add appends one cell. The cell's bytes are cloned only when the
// dictionary meets a new value, and the dictionary consults the NULL
// tokens only on a value's first occurrence.
func (b *colBuilder) add(cell []byte) {
	if b.dict == nil {
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
	id, ok := b.dict[string(cell)]
	if !ok {
		s := string(cell)
		id = provisionalNull
		if b.nulls.tokens[s] {
			b.hasNull = true
		} else {
			id = int32(len(b.vals))
			b.vals = append(b.vals, s)
		}
		b.dict[s] = id
	}
	b.push(id)
}

// push appends one code. A full slice doubles, where append's growth for
// large slices would allocate about five times the final size over a long
// column.
func (b *colBuilder) push(code int32) {
	if len(b.codes) == cap(b.codes) {
		codes := make([]int32, len(b.codes), max(2*cap(b.codes), 8))
		copy(codes, b.codes)
		b.codes = codes
	}
	b.codes = append(b.codes, code)
}

// toDict moves an integer-mode column to dictionary mode, replaying the
// values seen so far in their canonical spelling.
func (b *colBuilder) toDict() {
	b.dict = make(map[string]int32)
	var buf []byte
	for i, v := range b.codes {
		if v == intNull {
			b.codes[i] = provisionalNull
			continue
		}
		buf = strconv.AppendInt(buf[:0], int64(v), 10)
		id, ok := b.dict[string(buf)]
		if !ok {
			id = int32(len(b.vals))
			s := string(buf)
			b.vals = append(b.vals, s)
			b.dict[s] = id
		}
		b.codes[i] = id
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

// rank parses a dictionary column's distinct values as kind, ranks them
// and rewrites the provisional ids to rank codes in place. A value that
// does not parse is reported at the 1-based row of its first occurrence.
func (b *colBuilder) rank(kind Kind) (display []string, distinct int, err error) {
	// remap[p+1] is the rank code of provisional id p; remap[0] is NullCode.
	var remap []int32
	if kind == KindString {
		remap, display = rankStrings(b.vals)
	} else {
		entries := make([]rankEntry, len(b.vals))
		for id, s := range b.vals {
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
	b.dict, b.vals = nil, nil
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

// rankStrings ranks distinct strings byte-wise through an MSD radix sort.
// It returns remap and display as rankNumbers does.
func rankStrings(vals []string) (remap []int32, display []string) {
	pairs := make([]strID, len(vals))
	for id, s := range vals {
		pairs[id] = strID{s: s, id: int32(id)}
	}
	radixSort(pairs, make([]strID, len(pairs)))
	remap = make([]int32, len(vals)+1)
	display = make([]string, len(vals)+1)
	display[0] = "NULL"
	for k, p := range pairs {
		remap[p.id+1] = int32(k + 1)
		display[k+1] = p.s
	}
	return remap, display
}

// strID is a distinct string and its provisional id.
type strID struct {
	s  string
	id int32
}

// radixCutoff is the bucket size below which radixSort hands over to a
// comparison sort.
const radixCutoff = 32

// radixSort sorts distinct strings byte-wise, most significant byte first.
// It keeps its pending buckets on a heap-allocated stack, not the call
// stack, because strings that share a long prefix would nest a frame per
// byte of it. scratch is as long as a.
func radixSort(a, scratch []strID) {
	type bucket struct{ lo, hi, depth int } // a[lo:hi] agree on depth bytes
	todo := []bucket{{0, len(a), 0}}
	for len(todo) > 0 {
		t := todo[len(todo)-1]
		todo = todo[:len(todo)-1]
		b, depth := a[t.lo:t.hi], t.depth
		if len(b) <= radixCutoff {
			slices.SortFunc(b, func(x, y strID) int { return strings.Compare(x.s[depth:], y.s[depth:]) })
			continue
		}
		// Radix 0 holds the string that ends at depth; byte c goes to c+1.
		var count [257]int
		for _, p := range b {
			count[byteAt(p.s, depth)]++
		}
		var next [257]int // where the next string of each radix goes in scratch
		for k, sum := 0, 0; k < len(count); k++ {
			next[k] = sum
			if count[k] > 1 {
				todo = append(todo, bucket{t.lo + sum, t.lo + sum + count[k], depth + 1})
			}
			sum += count[k]
		}
		for _, p := range b {
			k := byteAt(p.s, depth)
			scratch[next[k]] = p
			next[k]++
		}
		copy(b, scratch[:len(b)])
	}
}

// byteAt is the radix of s at depth: 0 past its end, its byte plus one
// otherwise.
func byteAt(s string, depth int) int {
	if depth < len(s) {
		return int(s[depth]) + 1
	}
	return 0
}

// batch is a flat, row-major run of records awaiting the encoders.
type batch struct {
	buf  []byte       // the cells' bytes, back to back
	ends []int        // ends[k] is where cell k ends in buf
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
}

// newEncoder returns an encoder for ncols columns. forceString starts every
// column in dictionary mode; rowsHint presizes the code slices when the row
// count is known.
func newEncoder(ncols int, nulls map[string]bool, forceString bool, rowsHint int) *encoder {
	e := &encoder{cols: make([]colBuilder, ncols)}
	ns := newNullTokens(nulls)
	for c := range e.cols {
		b := colBuilder{nulls: ns, codes: make([]int32, 0, rowsHint), lo: math.MaxInt32, hi: math.MinInt32}
		if forceString {
			b.dict = make(map[string]int32)
		}
		e.cols[c] = b
	}
	return e
}

// add encodes one record. The caller may reuse rec once add returns.
func (e *encoder) add(rec []string) { addRecord(e, rec) }

// addBytes is add for a record of byte cells.
func (e *encoder) addBytes(rec [][]byte) { addRecord(e, rec) }

func addRecord[S string | []byte](e *encoder, rec []S) {
	e.rows++
	if e.feeds == nil {
		if e.rows <= batchRows || len(e.cols) == 0 {
			for c, cell := range rec {
				e.cols[c].add([]byte(cell))
			}
			return
		}
		e.start()
	}
	if e.cur == nil {
		e.cur = e.take()
	}
	b := e.cur
	for _, cell := range rec {
		b.buf = append(b.buf, cell...)
		b.ends = append(b.ends, len(b.buf))
	}
	if len(b.ends) == batchRows*len(e.cols) {
		e.send()
	}
}

func (e *encoder) start() {
	e.procs = min(runtime.GOMAXPROCS(0), len(e.cols))
	e.feeds = make([]chan *batch, e.procs)
	// Every channel holds up to maxBatches, the most batches that exist, so
	// sends never block; only take waits for a batch to come free.
	e.free = make(chan *batch, maxBatches)
	for w := range e.feeds {
		feed := make(chan *batch, maxBatches)
		e.feeds[w] = feed
		e.wg.Add(1)
		go e.encode(feed, w)
	}
}

// encode is one encoder goroutine: it owns the columns first, first+procs, … .
func (e *encoder) encode(feed <-chan *batch, first int) {
	defer e.wg.Done()
	nc := len(e.cols)
	for b := range feed {
		start := 0
		for r := 0; r < len(b.ends); r += nc {
			ends := b.ends[r : r+nc]
			for c := first; c < nc; c += e.procs {
				if c > 0 {
					start = ends[c-1]
				}
				e.cols[c].add(b.buf[start:ends[c]])
			}
			start = ends[nc-1]
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

// finish closes the stream and ranks every column, striped across as many
// goroutines as encoded it.
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
	// Stop need not be safe for concurrent use, so only stripe 0, which runs
	// on the calling goroutine, polls it; the other stripes see halt.
	var halt atomic.Bool
	errs := make([]error, nc)
	finalize := func(first, stride int) {
		for c := first; c < nc; c += stride {
			if first == 0 && opts.Stop != nil && opts.Stop() {
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
			if b.dict == nil {
				kind, disp, distinct = b.rankInts()
			} else {
				kind = KindString
				if !opts.ForceString {
					kind = inferKind(b.vals, nil)
				}
				var err error
				disp, distinct, err = b.rank(kind)
				if err != nil {
					errs[c] = fmt.Errorf("relation %s: column %d (%s): %w", name, c+1, colNames[c], err)
					return
				}
			}
			r.Kinds[c], r.Codes[c], r.display[c], r.distinct[c], r.hasNull[c] = kind, b.codes, disp, distinct, b.hasNull
		}
	}
	stride := max(e.procs, 1)
	var wg sync.WaitGroup
	for w := 1; w < stride; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			finalize(w, stride)
		}()
	}
	finalize(0, stride)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return r, nil
}
