package relation

import (
	"fmt"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Ingestion is one streaming pass. Every record is dictionary-encoded as it
// arrives: each column maps a raw value to a provisional id in
// first-occurrence order, so a cell costs one map lookup and only the
// distinct values of a column outlive their record. At the end each column
// infers its kind from its distinct values, ranks them once through
// rankValues and rewrites its provisional ids to rank codes in place.
//
// From the batchRows+1-th record on, the columns are striped across
// min(GOMAXPROCS, cols) encoder goroutines: the caller copies records into a
// flat batch and hands it to every encoder, and the last encoder done with a
// batch returns it to a free list. Inputs of at most batchRows records are
// encoded inline and start no goroutine.

// batchRows is the number of records in one batch handed to the encoder
// goroutines, and the input size up to which none is started.
const batchRows = 1024

// maxBatches bounds the batches in flight, so the raw cells held at once
// are at most maxBatches·batchRows records.
const maxBatches = 4

// provisionalNull is the provisional id of NULL cells; rank maps it to
// NullCode.
const provisionalNull = int32(-1)

// colBuilder accumulates one column.
type colBuilder struct {
	dict    map[string]int32 // raw value → provisional id; NULL tokens → provisionalNull
	vals    []string         // distinct non-NULL values, by provisional id
	codes   []int32          // per-row provisional ids; rank codes after rank
	hasNull bool
}

// add appends one cell. nulls is consulted only on a value's first
// occurrence. own clones a new value, so the dictionary does not pin the
// buffer the cell was sliced from.
func (b *colBuilder) add(s string, nulls map[string]bool, own bool) {
	id, ok := b.dict[s]
	if !ok {
		if own {
			s = strings.Clone(s)
		}
		id = provisionalNull
		if nulls[s] {
			b.hasNull = true
		} else {
			id = int32(len(b.vals))
			b.vals = append(b.vals, s)
		}
		b.dict[s] = id
	}
	b.codes = append(b.codes, id)
}

// rank parses the distinct values as kind, ranks them with rankValues and
// rewrites the provisional ids to rank codes in place. A value that does not
// parse is reported at the 1-based row of its first occurrence.
func (b *colBuilder) rank(kind Kind) (display []string, distinct int, err error) {
	entries := make([]rankEntry, len(b.vals))
	for id, s := range b.vals {
		e := rankEntry{s: s}
		switch kind {
		case KindInt:
			e.i, err = strconv.ParseInt(s, 10, 64)
		case KindFloat:
			e.f, err = strconv.ParseFloat(s, 64)
		}
		if err != nil {
			row := slices.Index(b.codes, int32(id)) + 1
			return nil, 0, fmt.Errorf("row %d: value %q does not parse as %v", row, s, kind)
		}
		entries[id] = e
	}
	final, display, distinct := rankValues(entries, kind)
	// remap[p+1] is the rank code of provisional id p; remap[0] is NullCode.
	remap := make([]int32, len(final)+1)
	copy(remap[1:], final)
	for i, p := range b.codes {
		b.codes[i] = remap[p+1]
	}
	b.dict, b.vals = nil, nil
	return display, distinct, nil
}

// batch is a flat, row-major run of records awaiting the encoders.
type batch struct {
	cells []string
	refs  atomic.Int32 // encoders still to finish with it
}

// encoder dictionary-encodes a stream of records of len(cols) fields.
type encoder struct {
	cols  []colBuilder
	nulls map[string]bool
	own   bool
	rows  int

	// Set once the stream passes batchRows records.
	feeds []chan *batch // one per encoder goroutine
	free  chan *batch
	made  int // batches allocated, at most maxBatches
	cur   *batch
	wg    sync.WaitGroup
	procs int // encoder goroutines started; finalize uses as many
}

// newEncoder returns an encoder for ncols columns; rowsHint presizes the
// code slices when the row count is known.
func newEncoder(ncols int, nulls map[string]bool, own bool, rowsHint int) *encoder {
	e := &encoder{cols: make([]colBuilder, ncols), nulls: nulls, own: own}
	for c := range e.cols {
		e.cols[c] = colBuilder{dict: make(map[string]int32), codes: make([]int32, 0, rowsHint)}
	}
	return e
}

// add encodes one record. The caller may reuse rec once add returns.
func (e *encoder) add(rec []string) {
	e.rows++
	if e.feeds == nil {
		if e.rows <= batchRows || len(e.cols) == 0 {
			for c, s := range rec {
				e.cols[c].add(s, e.nulls, e.own)
			}
			return
		}
		e.start()
	}
	if e.cur == nil {
		e.cur = e.take()
	}
	e.cur.cells = append(e.cur.cells, rec...)
	if len(e.cur.cells) == batchRows*len(e.cols) {
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
		for r := 0; r < len(b.cells); r += nc {
			rec := b.cells[r : r+nc]
			for c := first; c < nc; c += e.procs {
				e.cols[c].add(rec[c], e.nulls, e.own)
			}
		}
		if b.refs.Add(-1) == 0 {
			b.cells = b.cells[:0]
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
		return &batch{cells: make([]string, 0, batchRows*len(e.cols))}
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
			kind := KindString
			if !opts.ForceString {
				kind = inferKind(b.vals, nil)
			}
			disp, distinct, err := b.rank(kind)
			if err != nil {
				errs[c] = fmt.Errorf("relation %s: column %d (%s): %w", name, c+1, colNames[c], err)
				return
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
