package order

import (
	"bytes"
	"encoding/binary"

	"ocd/internal/attr"
	"ocd/internal/faultinject"
	"ocd/internal/obs"
)

// Handle is one goroutine's view of a Checker. It owns what a check
// mutates: a bounded FIFO cache of derived rank vectors, the check's
// scratch arrays, a free list of the buffers of dropped vectors, which
// later derivations reuse, a ring of recent swap witnesses, and its
// counters. Nothing on its lookup path is shared, so it takes no lock;
// only one goroutine may use a Handle at a time. The Checker's own
// methods run on a built-in Handle behind a mutex.
type Handle struct {
	c *Checker
	fifo
	s scratch
	w witnesses
	// signs holds the ring's sign rows, one word per column, one bit per
	// slot (witness.go). It lives outside w, so emptying the ring keeps
	// the array.
	signs []signs

	// free holds buffers ready for reuse. held holds the buffers dropped
	// during the current check, which that check may still be reading;
	// they join free when it ends.
	free, held [][]int32

	// Check, lookup and witness counters, published to the Checker by
	// Flush.
	checks, hits, misses, sorts, witnessHits int64
}

// NewHandle returns a Handle on c whose cache holds at most cacheCap rank
// vectors of multi-attribute lists (0 disables caching). The Checker
// remembers it, so ReleaseMemory reaches its cache.
func (c *Checker) NewHandle(cacheCap int) *Handle {
	h := &Handle{c: c, fifo: fifo{cap: cacheCap}, signs: make([]signs, c.r.NumCols())}
	c.mu.Lock()
	c.handles = append(c.handles, h)
	c.mu.Unlock()
	return h
}

// Flush publishes the Handle's counters to the Checker: its Checks and
// Sorts counts, the order.index_cache.* counters and
// order.swap_witness.hits. It writes only the totals that moved. Call it
// from the goroutine using the Handle, or after that goroutine is done.
func (h *Handle) Flush() {
	c := h.c
	if h.checks != 0 {
		c.checks.Add(h.checks)
	}
	if h.sorts != 0 {
		c.sorts.Add(h.sorts)
	}
	if h.hits != 0 {
		c.obsHits.Add(h.hits)
	}
	if h.misses != 0 {
		c.obsMisses.Add(h.misses)
	}
	if h.witnessHits != 0 {
		c.obsWitnessHits.Add(h.witnessHits)
	}
	h.checks, h.hits, h.misses, h.sorts, h.witnessHits = 0, 0, 0, 0, 0
}

// buffer returns a rank buffer of n rows, recycled when one is free.
func (h *Handle) buffer(n int) []int32 {
	if k := len(h.free) - 1; k >= 0 {
		b := h.free[k]
		h.free[k] = nil
		h.free = h.free[:k]
		return b[:n]
	}
	return make([]int32, n)
}

// release ends a check: buffers it dropped become free for reuse.
func (h *Handle) release() {
	h.free = append(h.free, h.held...)
	clear(h.held)
	h.held = h.held[:0]
}

// cacheVec caches rv under key. The buffer of the vector it evicts, or rv's
// own when the cache keeps nothing, is held until the check ends.
func (h *Handle) cacheVec(key []byte, hash uint64, rv rankVec) {
	faultinject.Point("order.checker.cacheput")
	old, ok := h.put(key, hash, rv)
	if !ok {
		old = rv.ranks
	}
	if old != nil {
		h.held = append(h.held, old)
	}
}

// fifo is a bounded cache of rank vectors keyed by list: at most cap
// entries, the oldest evicted first. ents is a ring in insertion order
// once full (next is its oldest entry); slots is an open-addressing index
// over the entries' hashes (entry index + 1, 0 empty), so a warm cache
// inserts and evicts without allocating.
type fifo struct {
	cap   int
	ents  []entry
	next  int
	slots []int32
}

type entry struct {
	hash uint64
	key  []byte
	rv   rankVec
}

// keyWidth is the number of key bytes per attribute, so the first
// keyWidth·i bytes of a list's cache key are the key of its i-prefix.
const keyWidth = 4

// appendKey appends x's cache key to dst.
func appendKey(dst []byte, x attr.List) []byte {
	for _, a := range x {
		dst = binary.LittleEndian.AppendUint32(dst, uint32(a))
	}
	return dst
}

// find returns the slot holding key, or the empty slot where it belongs.
func (f *fifo) find(key []byte, hash uint64) int {
	mask := len(f.slots) - 1
	for i := int(hash) & mask; ; i = (i + 1) & mask {
		e := f.slots[i]
		if e == 0 || (f.ents[e-1].hash == hash && bytes.Equal(f.ents[e-1].key, key)) {
			return i
		}
	}
}

// get returns the vector cached under key.
func (f *fifo) get(key []byte, hash uint64) (rankVec, bool) {
	if len(f.ents) == 0 {
		return rankVec{}, false
	}
	if e := f.slots[f.find(key, hash)]; e != 0 {
		return f.ents[e-1].rv, true
	}
	return rankVec{}, false
}

// put caches rv under key, which must not be cached yet, and returns the
// buffer of the vector it evicted (nil when none). ok is false when the
// cache keeps nothing.
func (f *fifo) put(key []byte, hash uint64, rv rankVec) (old []int32, ok bool) {
	if f.cap <= 0 {
		return nil, false
	}
	e := len(f.ents)
	if e < f.cap {
		f.ents = append(f.ents, entry{})
		if 2*len(f.ents) > len(f.slots) {
			f.rehash()
		}
	} else {
		e, f.next = f.next, (f.next+1)%f.cap
		f.remove(f.find(f.ents[e].key, f.ents[e].hash))
		old = f.ents[e].rv.ranks
	}
	ent := &f.ents[e]
	ent.hash, ent.key, ent.rv = hash, append(ent.key[:0], key...), rv
	f.slots[f.find(key, hash)] = int32(e + 1)
	return old, true
}

// rehash doubles the index for the entries, keeping it at most half full.
func (f *fifo) rehash() {
	f.slots = make([]int32, max(16, 2*len(f.slots)))
	for i := range f.ents[:len(f.ents)-1] {
		f.slots[f.find(f.ents[i].key, f.ents[i].hash)] = int32(i + 1)
	}
}

// remove empties slot i, shifting later entries of its probe run back so
// that every entry stays reachable from its home slot.
func (f *fifo) remove(i int) {
	mask := len(f.slots) - 1
	for j := i; ; {
		f.slots[i] = 0
		for {
			j = (j + 1) & mask
			e := f.slots[j]
			if e == 0 {
				return
			}
			// The entry may fill the hole unless its home lies in (i, j].
			if home := int(f.ents[e-1].hash) & mask; (j-home)&mask >= (j-i)&mask {
				f.slots[i] = e
				i = j
				break
			}
		}
	}
}

// SetObs attaches the rank-vector cache's hit/miss counters and the swap
// witnesses' hit counter from the registry (a nil registry resolves to
// no-op handles). Not safe to call concurrently with checks.
func (c *Checker) SetObs(reg *obs.Registry) {
	c.obsHits = reg.Counter("order.index_cache.hits")
	c.obsMisses = reg.Counter("order.index_cache.misses")
	c.obsWitnessHits = reg.Counter("order.swap_witness.hits")
}

// ReleaseMemory drops every cached entry and free buffer of every Handle,
// the degradation step of the engine's soft memory budget. The checker
// stays fully usable; later lookups derive (and re-cache) their entries.
// No Handle may be checking meanwhile.
func (c *Checker) ReleaseMemory() {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, h := range c.handles {
		h.fifo = fifo{cap: h.cap}
		h.free = nil
	}
}
