package core

import (
	"encoding/binary"

	"ocd/internal/attr"
	"ocd/internal/checkpoint"
)

// level holds every candidate (X, Y) of one tree level in the flat rows of
// checkpoint.Rows, so a barrier's frontier is a snapshot's as it is.
type level struct{ checkpoint.Rows }

// pair returns pair i with lists of its own.
func (l *level) pair(i int) attr.Pair {
	row, s := l.Row(i)
	ids := decode(make(attr.List, 0, len(row)), row)
	return attr.NewPair(ids[:s:s], ids[s:])
}

// grandparent appends to dst the key of (X[:-1], Y[:-1]) for child i =
// (X, Y), the pair both of its parents extend: |X|-1, then the ids.
func (l *level) grandparent(dst []byte, i int) []byte {
	row, s := l.Row(i)
	dst = binary.LittleEndian.AppendUint16(dst, uint16(s-1))
	for _, a := range row[:s-1] {
		dst = binary.LittleEndian.AppendUint16(dst, a)
	}
	for _, a := range row[s : len(row)-1] {
		dst = binary.LittleEndian.AppendUint16(dst, a)
	}
	return dst
}

// decode appends the ids of src to dst as attributes.
func decode(dst attr.List, src []uint16) attr.List {
	for _, a := range src {
		dst = append(dst, attr.ID(a))
	}
	return dst
}
