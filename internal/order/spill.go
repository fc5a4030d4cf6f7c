package order

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
)

// This file holds the codec of the Checker's out-of-core mode: when a
// spill manager is attached (SetSpill), cache eviction writes the evicted
// rank vector to a checksummed disk segment instead of discarding it, and a
// cache miss tries to reload the segment before recomputing from rank codes
// (cache.go).
//
// Spilled entries are pure cache — everything here can be rebuilt from the
// relation — so spill I/O failures degrade instead of propagating, in a
// fixed ladder (docs/ROBUSTNESS.md):
//
//  1. retry the read/write once (transient fault);
//  2. drop the segment and recompute from rank codes (always correct);
//  3. only the engine-level budget check, finding no spill progress at
//     all, may then truncate the run with reason "memory-budget".
//
// No rung returns unproven data: a torn or bit-flipped segment fails the
// spill package's checksum verification, and the structural decode below
// re-validates shape before anything reaches a check.

// errSpillShape is wrapped into decode errors for structurally invalid
// payloads; callers treat it like any other damaged segment (drop and
// recompute).
var errSpillShape = errors.New("order: spilled payload has invalid shape")

// encodeIndex serializes a per-row vector (a rank vector, or any row index
// whose values are row-bounded): a little-endian uint64 length followed by
// the values as little-endian int32s.
func encodeIndex(idx []int32) []byte {
	buf := make([]byte, 8+4*len(idx))
	binary.LittleEndian.PutUint64(buf[0:], uint64(len(idx)))
	off := 8
	for _, v := range idx {
		binary.LittleEndian.PutUint32(buf[off:], uint32(v))
		off += 4
	}
	return buf
}

// decodeIndex deserializes a per-row vector for a relation of numRows rows
// and validates every value against [0, numRows): positions are rows, and a
// dense rank never reaches the row count.
func decodeIndex(payload []byte, numRows int) ([]int32, error) {
	if len(payload) < 8 {
		return nil, fmt.Errorf("%w: %d bytes", errSpillShape, len(payload))
	}
	n := binary.LittleEndian.Uint64(payload[0:])
	if n != uint64(numRows) || uint64(len(payload)) != 8+4*n {
		return nil, fmt.Errorf("%w: %d positions in %d bytes for a %d-row relation", errSpillShape, n, len(payload), numRows)
	}
	idx := make([]int32, n)
	off := 8
	for i := range idx {
		v := int32(binary.LittleEndian.Uint32(payload[off:]))
		if v < 0 || int(v) >= numRows {
			return nil, fmt.Errorf("%w: row %d out of range", errSpillShape, v)
		}
		idx[i] = v
		off += 4
	}
	return idx, nil
}

// decodeRanks decodes a spilled rank vector of a numRows-row relation.
// Derived ranks are dense, so the domain is one past the largest rank.
func decodeRanks(payload []byte, numRows int) (rankVec, error) {
	ranks, err := decodeIndex(payload, numRows)
	if err != nil || len(ranks) == 0 {
		return rankVec{ranks: ranks}, err
	}
	return rankVec{ranks, int(slices.Max(ranks)) + 1}, nil
}
