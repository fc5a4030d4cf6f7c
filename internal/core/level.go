package core

import (
	"encoding/binary"

	"ocd/internal/attr"
)

// maxWidth is the widest relation, twins included, whose attribute ids fit
// a level's uint16 rows.
const maxWidth = 1<<16 - 1

// level holds every candidate (X, Y) of one tree level k = |X|+|Y| as flat
// rows: pair i is ids[k·i : k·(i+1)], X then Y, and split[i] is |X|.
// Neither slice holds a pointer, so the collector never scans a level, and
// a pair costs 2k+2 bytes.
type level struct {
	k     int
	ids   []uint16
	split []uint16
}

// reset empties l for pairs of level k, keeping its buffers.
func (l *level) reset(k int) {
	l.k, l.ids, l.split = k, l.ids[:0], l.split[:0]
}

func (l *level) len() int { return len(l.split) }

// row returns pair i's ids and |X|.
func (l *level) row(i int) ([]uint16, int) {
	return l.ids[l.k*i : l.k*(i+1) : l.k*(i+1)], int(l.split[i])
}

// last returns the last id of pair i, the last attribute of its Y.
func (l *level) last(i int) uint16 { return l.ids[l.k*(i+1)-1] }

// appendLeft appends (X·a, Y) for the pair row with |X| = s.
func (l *level) appendLeft(row []uint16, s int, a uint16) {
	l.ids = append(append(append(l.ids, row[:s]...), a), row[s:]...)
	l.split = append(l.split, uint16(s+1))
}

// appendRight appends (X, Y·a) for the pair row with |X| = s.
func (l *level) appendRight(row []uint16, s int, a uint16) {
	l.ids = append(append(l.ids, row...), a)
	l.split = append(l.split, uint16(s))
}

// appendRows appends src's pairs from through to-1.
func (l *level) appendRows(src *level, from, to int) {
	l.ids = append(l.ids, src.ids[src.k*from:src.k*to]...)
	l.split = append(l.split, src.split[from:to]...)
}

// appendPair appends (x, y), whose ids must be below maxWidth.
func (l *level) appendPair(x, y []int) {
	for _, side := range [2][]int{x, y} {
		for _, a := range side {
			l.ids = append(l.ids, uint16(a))
		}
	}
	l.split = append(l.split, uint16(len(x)))
}

// pair returns pair i with lists of its own.
func (l *level) pair(i int) attr.Pair {
	row, s := l.row(i)
	ids := decode(make(attr.List, 0, len(row)), row)
	return attr.NewPair(ids[:s:s], ids[s:])
}

// grandparent appends to dst the key of (X[:-1], Y[:-1]) for child i =
// (X, Y), the pair both of its parents extend: |X|-1, then the ids.
func (l *level) grandparent(dst []byte, i int) []byte {
	row, s := l.row(i)
	dst = binary.LittleEndian.AppendUint16(dst, uint16(s-1))
	for _, a := range row[:s-1] {
		dst = binary.LittleEndian.AppendUint16(dst, a)
	}
	for _, a := range row[s : l.k-1] {
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
