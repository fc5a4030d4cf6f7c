package order

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
)

// This file holds the codecs of both checkers' out-of-core mode: when a
// spill manager is attached (SetSpill), cache eviction writes the evicted
// entry to a checksummed disk segment instead of discarding it, and a cache
// miss tries to reload the segment before recomputing from rank codes
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

// encodePartition serializes a sorted partition: two little-endian uint64
// lengths followed by Idx and Ends as little-endian int32s.
func encodePartition(sp *SortedPartition) []byte {
	buf := make([]byte, 16+4*len(sp.Idx)+4*len(sp.Ends))
	binary.LittleEndian.PutUint64(buf[0:], uint64(len(sp.Idx)))
	binary.LittleEndian.PutUint64(buf[8:], uint64(len(sp.Ends)))
	off := 16
	for _, v := range sp.Idx {
		binary.LittleEndian.PutUint32(buf[off:], uint32(v))
		off += 4
	}
	for _, v := range sp.Ends {
		binary.LittleEndian.PutUint32(buf[off:], uint32(v))
		off += 4
	}
	return buf
}

// errSpillShape is wrapped into decode errors for structurally invalid
// payloads; callers treat it like any other damaged segment (drop and
// recompute).
var errSpillShape = errors.New("order: spilled payload has invalid shape")

// decodePartition deserializes and structurally validates a partition for
// a relation of numRows rows: rows in range, class ends strictly
// increasing and covering Idx exactly. A valid checksum already rules out
// accidental damage; this guards the engine against using a segment from
// a different relation shape.
func decodePartition(payload []byte, numRows int) (*SortedPartition, error) {
	if len(payload) < 16 {
		return nil, fmt.Errorf("%w: %d bytes", errSpillShape, len(payload))
	}
	nIdx := binary.LittleEndian.Uint64(payload[0:])
	nEnds := binary.LittleEndian.Uint64(payload[8:])
	if nIdx != uint64(numRows) || nEnds > nIdx+1 {
		return nil, fmt.Errorf("%w: %d rows, %d classes for a %d-row relation", errSpillShape, nIdx, nEnds, numRows)
	}
	if uint64(len(payload)) != 16+4*nIdx+4*nEnds {
		return nil, fmt.Errorf("%w: %d bytes for %d rows, %d classes", errSpillShape, len(payload), nIdx, nEnds)
	}
	sp := &SortedPartition{
		Idx:  make([]int32, nIdx),
		Ends: make([]int32, nEnds),
	}
	off := 16
	for i := range sp.Idx {
		v := int32(binary.LittleEndian.Uint32(payload[off:]))
		if v < 0 || int(v) >= numRows {
			return nil, fmt.Errorf("%w: row %d out of range", errSpillShape, v)
		}
		sp.Idx[i] = v
		off += 4
	}
	prev := int32(0)
	for i := range sp.Ends {
		v := int32(binary.LittleEndian.Uint32(payload[off:]))
		if v <= prev {
			return nil, fmt.Errorf("%w: class ends not increasing", errSpillShape)
		}
		sp.Ends[i] = v
		prev = v
		off += 4
	}
	if numRows > 0 && (nEnds == 0 || prev != int32(numRows)) {
		return nil, fmt.Errorf("%w: classes cover %d of %d rows", errSpillShape, prev, numRows)
	}
	return sp, nil
}

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
