package order

import (
	"encoding/binary"
	"errors"
	"sync"
	"sync/atomic"

	"ocd/internal/attr"
	"ocd/internal/faultinject"
	"ocd/internal/obs"
	"ocd/internal/spill"
)

// cache is the bounded store of the Checker's derived rank vectors: at
// most cap entries, the oldest evicted first. With a spill manager attached
// it works out of core: an evicted vector is written to a checksummed disk
// segment and a miss reloads it, under the degradation ladder of spill.go.
// The Checker embeds it, so its exported methods are the Checker's. Safe
// for concurrent use.
type cache struct {
	mu      sync.Mutex
	m       map[string]rankVec
	keys    []string // insertion order
	cap     int
	numRows int // rows of every cached vector, checked on reload

	sm                 *spill.Manager
	evictions, reloads atomic.Int64

	// Pre-resolved instrumentation handles; nil (no-op) until setObs.
	obsHits, obsMisses                                               *obs.Counter
	obsEvictions, obsReloads, obsRetries, obsRecomputes, obsFailures *obs.Counter
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

// SetObs attaches the rank-vector cache's hit/miss counters and the spill
// counters from the registry (a nil registry resolves to no-op handles).
// Not safe to call concurrently with checks.
func (c *cache) SetObs(reg *obs.Registry) {
	c.obsHits = reg.Counter("order.index_cache.hits")
	c.obsMisses = reg.Counter("order.index_cache.misses")
	c.obsEvictions = reg.Counter("order.spill.evictions")
	c.obsReloads = reg.Counter("order.spill.reloads")
	c.obsRetries = reg.Counter("order.spill.retries")
	c.obsRecomputes = reg.Counter("order.spill.recomputes")
	c.obsFailures = reg.Counter("order.spill.write_failures")
}

// get returns the entry cached under key.
func (c *cache) get(key []byte) (rankVec, bool) {
	c.mu.Lock()
	v, ok := c.m[string(key)]
	c.mu.Unlock()
	return v, ok
}

// put caches v under key unless already present. The entry it evicts
// spills when a manager is attached — file I/O outside the lock, so
// concurrent checks keep flowing.
func (c *cache) put(key string, v rankVec) {
	if c.cap <= 0 {
		return
	}
	faultinject.Point("order.checker.cacheput")
	var oldKey string
	var old rankVec
	c.mu.Lock()
	if _, dup := c.m[key]; !dup {
		if len(c.keys) >= c.cap {
			oldKey, old = c.keys[0], c.m[c.keys[0]]
			delete(c.m, oldKey)
			c.keys = c.keys[1:]
		}
		if c.m == nil {
			c.m = make(map[string]rankVec)
		}
		c.m[key] = v
		c.keys = append(c.keys, key)
	}
	c.mu.Unlock()
	if oldKey != "" && c.sm != nil {
		c.spill(oldKey, old)
	}
}

// spill writes one evicted entry with the write rung of the ladder: retry
// once, then give up — the entry is recomputed when next needed. Reports
// whether the entry is durably spilled.
func (c *cache) spill(key string, v rankVec) bool {
	payload := encodeIndex(v.ranks)
	if err := c.sm.Put(key, payload); err != nil {
		c.obsRetries.Inc()
		if err := c.sm.Put(key, payload); err != nil {
			c.obsFailures.Inc()
			return false
		}
	}
	c.evictions.Add(1)
	c.obsEvictions.Inc()
	return true
}

// load reloads key's spilled entry with the read rung of the ladder: retry
// once on any failure, then drop the segment so the caller recomputes. A
// segment that fails the structural decode is dropped the same way, so
// damaged data never reaches a check.
func (c *cache) load(key string) (rankVec, bool) {
	if c.sm == nil {
		return rankVec{}, false
	}
	payload, err := c.sm.Get(key)
	if errors.Is(err, spill.ErrNoSegment) {
		return rankVec{}, false
	}
	if err != nil {
		c.obsRetries.Inc()
		payload, err = c.sm.Get(key)
	}
	var v rankVec
	if err == nil {
		v, err = decodeRanks(payload, c.numRows)
	}
	if err != nil {
		c.sm.Drop(key)
		c.obsRecomputes.Inc()
		return rankVec{}, false
	}
	c.reloads.Add(1)
	c.obsReloads.Inc()
	return v, true
}

// SetSpill attaches a spill manager: cache evictions spill to disk and
// misses reload from it. Not safe to call concurrently with checks.
func (c *cache) SetSpill(sm *spill.Manager) { c.sm = sm }

// SpillStats returns how many entries were spilled to disk and how many
// were reloaded from it.
func (c *cache) SpillStats() (evictions, reloads int64) {
	return c.evictions.Load(), c.reloads.Load()
}

// ReleaseMemory drops every cached entry, the degradation step of the
// engine's soft memory budget. The checker stays fully usable; later
// lookups derive (and re-cache) their entries.
func (c *cache) ReleaseMemory() {
	c.mu.Lock()
	c.m, c.keys = nil, nil
	c.mu.Unlock()
}

// EvictToSpill moves every cached entry to disk and clears the memory
// cache — the engine's first response to a tripped memory budget. It
// returns the number of entries durably spilled; 0 (no spill manager, or
// every write failed) tells the engine this rung made no progress. An
// empty cache returns -1: the rung is idle, not exhausted. The checker
// then holds only the relation's own columns, which no spill can free, and
// the next level's longer lists give the rung something to move.
func (c *cache) EvictToSpill() int {
	if c.sm == nil {
		return 0
	}
	c.mu.Lock()
	keys, m := c.keys, c.m
	c.m, c.keys = nil, nil
	c.mu.Unlock()
	if len(keys) == 0 {
		return -1
	}
	n := 0
	for _, k := range keys {
		if c.spill(k, m[k]) {
			n++
		}
	}
	return n
}
