package checkpoint

import (
	"encoding/binary"
	"fmt"
	"slices"

	"ocd/internal/attr"
)

// Rows holds every candidate (X, Y) of one tree level k = |X|+|Y| as flat
// rows: pair i is ids[k·i : k·(i+1)], X then Y, and split[i] is |X|.
// Neither slice holds a pointer, so the collector never scans a level, and
// a pair costs 2k+2 bytes. The discovery engine builds each level in a
// Rows, and a Snapshot's frontier is the next level's Rows as they are.
// A snapshot file holds them as
//
//	"frontier": {"level": k, "ids": "<base64>", "split": "<base64>"}
//
// where ids and split are the slices' little-endian bytes.
type Rows struct {
	k     int
	ids   []uint16
	split []uint16
}

// MaxWidth is the widest relation, reversed twins included, whose
// attribute ids fit a row.
const MaxWidth = 1<<16 - 1

// Reset empties r for pairs of level k, keeping its buffers.
func (r *Rows) Reset(k int) {
	r.k, r.ids, r.split = k, r.ids[:0], r.split[:0]
}

// K returns the level: the number of ids in each row.
func (r *Rows) K() int { return r.k }

// Len returns the number of pairs.
func (r *Rows) Len() int { return len(r.split) }

// Row returns pair i's ids, X then Y, and |X|.
func (r *Rows) Row(i int) ([]uint16, int) {
	return r.ids[r.k*i : r.k*(i+1) : r.k*(i+1)], int(r.split[i])
}

// Last returns the last id of pair i, the last attribute of its Y.
func (r *Rows) Last(i int) uint16 { return r.ids[r.k*(i+1)-1] }

// AppendLeft appends (X·a, Y) for the pair row with |X| = s.
func (r *Rows) AppendLeft(row []uint16, s int, a uint16) {
	r.ids = append(append(append(r.ids, row[:s]...), a), row[s:]...)
	r.split = append(r.split, uint16(s+1))
}

// AppendRight appends (X, Y·a) for the pair row with |X| = s.
func (r *Rows) AppendRight(row []uint16, s int, a uint16) {
	r.ids = append(append(r.ids, row...), a)
	r.split = append(r.split, uint16(s))
}

// AppendRows appends src's pairs from through to-1.
func (r *Rows) AppendRows(src *Rows, from, to int) {
	r.ids = append(r.ids, src.ids[src.k*from:src.k*to]...)
	r.split = append(r.split, src.split[from:to]...)
}

// Grow makes room for n more pairs.
func (r *Rows) Grow(n int) {
	r.ids = slices.Grow(r.ids, n*r.k)
	r.split = slices.Grow(r.split, n)
}

func toBytes(s []uint16) []byte {
	b := make([]byte, 0, 2*len(s))
	for _, v := range s {
		b = binary.LittleEndian.AppendUint16(b, v)
	}
	return b
}

func fromBytes(b []byte) []uint16 {
	if len(b) == 0 {
		return nil
	}
	s := make([]uint16, len(b)/2)
	for i := range s {
		s[i] = binary.LittleEndian.Uint16(b[2*i:])
	}
	return s
}

// validate checks the rows of a cols-column relation: k ≥ 2, k ids a
// pair, |X| in [1, k−1], every id below cols and none twice in a row,
// which keeps X and Y disjoint. seen is empty on entry and on success.
func (r *Rows) validate(cols int, seen *attr.Set) error {
	if r.k < 2 {
		return fmt.Errorf("frontier level %d, want >= 2", r.k)
	}
	if r.Len() == 0 {
		return nil
	}
	if r.k > cols {
		return fmt.Errorf("frontier level %d exceeds the %d columns", r.k, cols)
	}
	if len(r.ids) != r.k*r.Len() {
		return fmt.Errorf("frontier holds %d ids for %d pairs of level %d", len(r.ids), r.Len(), r.k)
	}
	for i := range r.split {
		row, s := r.Row(i)
		if s < 1 || s > r.k-1 {
			return fmt.Errorf("frontier %d: |X| = %d, want 1..%d", i, s, r.k-1)
		}
		if err := distinct(seen, cols, row); err != nil {
			return fmt.Errorf("frontier %d: %v", i, err)
		}
	}
	return nil
}

// distinct checks that the ids of sides are attributes of a cols-column
// relation and that none occurs twice. seen is empty on entry and on
// success.
func distinct[T attr.ID | uint16](seen *attr.Set, cols int, sides ...[]T) error {
	for _, side := range sides {
		for _, id := range side {
			a := attr.ID(id)
			if a < 0 || int(a) >= cols {
				return fmt.Errorf("attribute id %d out of range [0,%d)", a, cols)
			}
			if seen.Has(a) {
				return fmt.Errorf("attribute %d occurs twice", a)
			}
			seen.Add(a)
		}
	}
	for _, side := range sides {
		for _, id := range side {
			seen.Remove(attr.ID(id))
		}
	}
	return nil
}
