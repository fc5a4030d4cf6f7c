// Package bidir extends order-dependency discovery to *bidirectional*
// (also called "polarized") order dependencies, where each attribute in a
// list carries its own sort direction — the generalization the paper's
// related-work section attributes to Szlichta et al. [15] and lists as the
// natural next step beyond unidirectional ODs.
//
// A directed list like [income ASC, age DESC] orders tuples by income
// ascending, breaking ties by age descending — exactly SQL's
// ORDER BY income ASC, age DESC. A bidirectional OD X → Y states that any
// tuple order realizing the directed list X also realizes Y; bidirectional
// order compatibility X ~ Y is, as in the unidirectional case, XY ↔ YX,
// and Theorem 4.1 carries over verbatim: X ~ Y iff the single OD XY → YX
// holds (its proof never uses directions).
//
// NULL handling follows the paper's SQL semantics with NULLS FIRST under
// both directions: NULL compares equal to NULL and precedes every value
// regardless of polarity.
//
// Both checking and discovery run on the relation's reversed twins
// (relation.WithReversedTwins): [a DESC] orders rows exactly as the twin
// column of a read ascending, so a directed list is a plain attribute list
// over the twin relation, checked by order.Checker and searched by core's
// candidate tree. Because flipping *every* direction in a dependency
// preserves validity (a global reversal of the tuple order), candidates are
// rooted at an ascending first attribute, halving the space.
package bidir

import (
	"strings"

	"ocd/internal/attr"
	"ocd/internal/order"
	"ocd/internal/relation"
)

// Direction is a per-attribute sort polarity.
type Direction int8

const (
	// Asc sorts ascending (SQL ASC), the unidirectional default.
	Asc Direction = 1
	// Desc sorts descending (SQL DESC).
	Desc Direction = -1
)

// String returns "ASC" or "DESC".
func (d Direction) String() string {
	if d == Desc {
		return "DESC"
	}
	return "ASC"
}

// DAttr is an attribute with a direction.
type DAttr struct {
	ID  attr.ID
	Dir Direction
}

// DList is a directed attribute list, one side of a bidirectional OD.
type DList []DAttr

// NewAsc lifts a plain attribute list to an all-ascending directed list,
// embedding the unidirectional case.
func NewAsc(l attr.List) DList {
	out := make(DList, len(l))
	for i, a := range l {
		out[i] = DAttr{ID: a, Dir: Asc}
	}
	return out
}

// IDs returns the underlying attribute list without directions.
func (l DList) IDs() attr.List {
	out := make(attr.List, len(l))
	for i, x := range l {
		out[i] = x.ID
	}
	return out
}

// Flip returns the list with every direction reversed.
func (l DList) Flip() DList {
	out := make(DList, len(l))
	for i, x := range l {
		out[i] = DAttr{ID: x.ID, Dir: -x.Dir}
	}
	return out
}

// Equal reports element-wise equality including directions.
func (l DList) Equal(m DList) bool {
	if len(l) != len(m) {
		return false
	}
	for i := range l {
		if l[i] != m[i] {
			return false
		}
	}
	return true
}

// Key returns a canonical map key.
func (l DList) Key() string {
	var b strings.Builder
	for i, x := range l {
		if i > 0 {
			b.WriteByte(',')
		}
		if x.Dir == Desc {
			b.WriteByte('-')
		}
		writeInt(&b, int(x.ID))
	}
	return b.String()
}

// Format renders the list as "[a ASC,b DESC]".
func (l DList) Format(names func(attr.ID) string) string {
	var b strings.Builder
	b.WriteByte('[')
	for i, x := range l {
		if i > 0 {
			b.WriteByte(',')
		}
		if names != nil {
			b.WriteString(names(x.ID))
		} else {
			b.WriteByte('c')
			writeInt(&b, int(x.ID))
		}
		if x.Dir == Desc {
			b.WriteString(" DESC")
		}
	}
	b.WriteByte(']')
	return b.String()
}

func writeInt(b *strings.Builder, v int) {
	if v < 0 {
		b.WriteByte('-')
		v = -v
	}
	var buf [12]byte
	i := len(buf)
	for {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
		if v == 0 {
			break
		}
	}
	b.Write(buf[i:])
}

// compareCodes compares two rank codes under a direction with NULLS FIRST
// on both polarities: NULL (code 0) precedes everything either way.
func compareCodes(a, b int32, dir Direction) int {
	if a == b {
		return 0
	}
	// NULLS FIRST regardless of direction.
	if a == relation.NullCode {
		return -1
	}
	if b == relation.NullCode {
		return 1
	}
	if dir == Asc {
		if a < b {
			return -1
		}
		return 1
	}
	if a > b {
		return -1
	}
	return 1
}

// CompareRows compares two rows under the directed list.
func CompareRows(r *relation.Relation, p, q int, l DList) int {
	for _, x := range l {
		if c := compareCodes(r.Code(p, x.ID), r.Code(q, x.ID), x.Dir); c != 0 {
			return c
		}
	}
	return 0
}

// Checker performs bidirectional order checks through order.Checker over
// the relation's reversed twins.
type Checker struct {
	r   *relation.Relation // the relation with reversed twins
	chk *order.Checker
}

// NewChecker returns a checker whose rank-vector cache holds at most
// cacheCap vectors.
func NewChecker(r *relation.Relation, cacheCap int) *Checker {
	tw := r.WithReversedTwins()
	return &Checker{r: tw, chk: order.NewChecker(tw, cacheCap)}
}

// list maps a directed list to its attribute list over the twin relation.
func (c *Checker) list(l DList) attr.List {
	out := make(attr.List, len(l))
	for i, x := range l {
		out[i] = x.ID
		if x.Dir == Desc {
			out[i] = c.r.Twin(x.ID)
		}
	}
	return out
}

// directed maps an attribute list over the twin relation back to a
// directed list.
func (c *Checker) directed(l attr.List) DList {
	out := make(DList, len(l))
	for i, a := range l {
		out[i] = DAttr{ID: a, Dir: Asc}
		if t := c.r.Twin(a); t < a {
			out[i] = DAttr{ID: t, Dir: Desc}
		}
	}
	return out
}

// CheckOD reports whether the bidirectional OD X → Y holds.
func (c *Checker) CheckOD(x, y DList) bool {
	return c.chk.CheckOD(c.list(x), c.list(y))
}

// CheckOCD reports whether X ~ Y holds, via the single check XY → YX
// (Theorem 4.1, direction-agnostic).
func (c *Checker) CheckOCD(x, y DList) bool {
	return c.chk.CheckOCD(c.list(x), c.list(y))
}
