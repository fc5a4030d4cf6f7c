// Package attr provides attribute identifiers, ordered attribute lists and
// attribute sets for dependency discovery.
//
// The paper ("Discovering Order Dependencies through Order Compatibility",
// EDBT 2019) distinguishes between attribute *lists* (order matters, used by
// order dependencies, written [A,B,C]) and attribute *sets* (used by
// functional dependencies and by FASTOD's canonical forms). This package
// implements both, together with the canonical-key machinery used to
// de-duplicate OCD candidates across branches of the search tree.
package attr

import (
	"sort"
	"strings"
)

// ID identifies a single attribute (a column of a relation) by its ordinal
// position in the relation's schema.
type ID int

// List is an ordered list of attributes, the left- or right-hand side of an
// order dependency. The zero value is the empty list [].
type List []ID

// NewList returns a list over the given attributes.
func NewList(ids ...ID) List {
	l := make(List, len(ids))
	copy(l, ids)
	return l
}

// Singleton returns the one-element list [a].
func Singleton(a ID) List { return List{a} }

// Empty reports whether the list is the empty list [].
func (l List) Empty() bool { return len(l) == 0 }

// Head returns the first attribute of the list. It panics on the empty list,
// mirroring the paper's [A|T] decomposition which is only defined for
// non-empty lists.
func (l List) Head() ID { return l[0] }

// Tail returns the list without its first element.
func (l List) Tail() List { return l[1:] }

// Concat returns the concatenation l ∘ m as a fresh list.
func (l List) Concat(m List) List {
	out := make(List, 0, len(l)+len(m))
	out = append(out, l...)
	out = append(out, m...)
	return out
}

// Append returns the list l ∘ [a] as a fresh list.
func (l List) Append(a ID) List {
	out := make(List, 0, len(l)+1)
	out = append(out, l...)
	out = append(out, a)
	return out
}

// Clone returns a copy of the list.
func (l List) Clone() List {
	out := make(List, len(l))
	copy(out, l)
	return out
}

// Equal reports whether two lists are identical element by element.
func (l List) Equal(m List) bool {
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

// Contains reports whether attribute a occurs anywhere in the list.
func (l List) Contains(a ID) bool {
	for _, x := range l {
		if x == a {
			return true
		}
	}
	return false
}

// HasPrefix reports whether p is a prefix of l.
func (l List) HasPrefix(p List) bool {
	if len(p) > len(l) {
		return false
	}
	for i := range p {
		if l[i] != p[i] {
			return false
		}
	}
	return true
}

// Set returns the set of attributes occurring in the list.
func (l List) Set() Set {
	s := NewSet()
	for _, a := range l {
		s.Add(a)
	}
	return s
}

// Disjoint reports whether l and m share no attribute, the condition for a
// minimal OCD X ~ Y (Definition 3.4: X ∩ Y = ∅).
func (l List) Disjoint(m List) bool {
	s := l.Set()
	for _, a := range m {
		if s.Has(a) {
			return false
		}
	}
	return true
}

// Dedup returns the list with every repeated occurrence of an attribute
// removed, keeping the first. By the Normalization axiom (AX3) the result is
// order equivalent to the input: [A,B,A] ↔ [A,B].
func (l List) Dedup() List {
	seen := NewSet()
	out := make(List, 0, len(l))
	for _, a := range l {
		if !seen.Has(a) {
			seen.Add(a)
			out = append(out, a)
		}
	}
	return out
}

// IsNormalized reports whether the list contains no repeated attributes,
// i.e. whether it is already in the normal form produced by Dedup.
func (l List) IsNormalized() bool {
	seen := NewSet()
	for _, a := range l {
		if seen.Has(a) {
			return false
		}
		seen.Add(a)
	}
	return true
}

// Key returns a canonical string key for the list, usable as a map key.
// Attribute ordinals are encoded compactly; lists compare equal iff their
// keys compare equal.
func (l List) Key() string {
	var b strings.Builder
	b.Grow(len(l) * 3)
	for i, a := range l {
		if i > 0 {
			b.WriteByte(',')
		}
		writeInt(&b, int(a))
	}
	return b.String()
}

// String renders the list with the given naming function, falling back to
// ordinal names ("c0", "c1", …) when names is nil.
func (l List) String() string {
	return l.Format(nil)
}

// Format renders the list as "[A,B,C]" using names(a) for each attribute.
func (l List) Format(names func(ID) string) string {
	var b strings.Builder
	b.WriteByte('[')
	for i, a := range l {
		if i > 0 {
			b.WriteByte(',')
		}
		if names != nil {
			b.WriteString(names(a))
		} else {
			b.WriteByte('c')
			writeInt(&b, int(a))
		}
	}
	b.WriteByte(']')
	return b.String()
}

// Compare orders lists first by length and then lexicographically by
// attribute ordinal; it is the ordering used to pick canonical
// representatives and to make test output deterministic.
func (l List) Compare(m List) int {
	if len(l) != len(m) {
		if len(l) < len(m) {
			return -1
		}
		return 1
	}
	for i := range l {
		if l[i] != m[i] {
			if l[i] < m[i] {
				return -1
			}
			return 1
		}
	}
	return 0
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

// Set is a set of attributes backed by a bitset, sized dynamically to the
// largest attribute added. The zero value is an empty set.
type Set struct {
	words []uint64
}

// NewSet returns an empty attribute set, optionally pre-populated.
func NewSet(ids ...ID) Set {
	s := Set{words: make([]uint64, 1)}
	for _, a := range ids {
		s.Add(a)
	}
	return s
}

// FullSet returns the set {0, 1, …, n-1} of all attributes of an n-column
// relation.
func FullSet(n int) Set {
	s := Set{words: make([]uint64, (n+63)/64)}
	if len(s.words) == 0 {
		s.words = make([]uint64, 1)
	}
	for i := 0; i < n; i++ {
		s.words[i/64] |= 1 << (uint(i) % 64)
	}
	return s
}

func (s *Set) grow(a ID) {
	need := int(a)/64 + 1
	for len(s.words) < need {
		s.words = append(s.words, 0)
	}
}

// Add inserts attribute a into the set.
func (s *Set) Add(a ID) {
	s.grow(a)
	s.words[int(a)/64] |= 1 << (uint(a) % 64)
}

// Remove deletes attribute a from the set if present.
func (s *Set) Remove(a ID) {
	w := int(a) / 64
	if w < len(s.words) {
		s.words[w] &^= 1 << (uint(a) % 64)
	}
}

// Has reports whether attribute a is in the set.
func (s Set) Has(a ID) bool {
	w := int(a) / 64
	return w < len(s.words) && s.words[w]&(1<<(uint(a)%64)) != 0
}

// Len returns the number of attributes in the set.
func (s Set) Len() int {
	n := 0
	for _, w := range s.words {
		n += popcount(w)
	}
	return n
}

// Clone returns an independent copy of the set.
func (s Set) Clone() Set {
	out := Set{words: make([]uint64, len(s.words))}
	copy(out.words, s.words)
	return out
}

// Union returns s ∪ t as a fresh set.
func (s Set) Union(t Set) Set {
	n := len(s.words)
	if len(t.words) > n {
		n = len(t.words)
	}
	out := Set{words: make([]uint64, n)}
	for i := range out.words {
		if i < len(s.words) {
			out.words[i] |= s.words[i]
		}
		if i < len(t.words) {
			out.words[i] |= t.words[i]
		}
	}
	return out
}

// Intersect returns s ∩ t as a fresh set.
func (s Set) Intersect(t Set) Set {
	n := len(s.words)
	if len(t.words) < n {
		n = len(t.words)
	}
	out := Set{words: make([]uint64, max(n, 1))}
	for i := 0; i < n; i++ {
		out.words[i] = s.words[i] & t.words[i]
	}
	return out
}

// Minus returns s \ t as a fresh set.
func (s Set) Minus(t Set) Set {
	out := s.Clone()
	for i := range out.words {
		if i < len(t.words) {
			out.words[i] &^= t.words[i]
		}
	}
	return out
}

// Disjoint reports whether s ∩ t = ∅.
func (s Set) Disjoint(t Set) bool {
	n := len(s.words)
	if len(t.words) < n {
		n = len(t.words)
	}
	for i := 0; i < n; i++ {
		if s.words[i]&t.words[i] != 0 {
			return false
		}
	}
	return true
}

// Equal reports whether s and t contain exactly the same attributes.
func (s Set) Equal(t Set) bool {
	n := len(s.words)
	if len(t.words) > n {
		n = len(t.words)
	}
	for i := 0; i < n; i++ {
		var a, b uint64
		if i < len(s.words) {
			a = s.words[i]
		}
		if i < len(t.words) {
			b = t.words[i]
		}
		if a != b {
			return false
		}
	}
	return true
}

// SubsetOf reports whether every attribute of s is in t.
func (s Set) SubsetOf(t Set) bool {
	for i, w := range s.words {
		var b uint64
		if i < len(t.words) {
			b = t.words[i]
		}
		if w&^b != 0 {
			return false
		}
	}
	return true
}

// Slice returns the attributes of the set in ascending order.
func (s Set) Slice() []ID {
	out := make([]ID, 0, s.Len())
	for wi, w := range s.words {
		for w != 0 {
			b := trailingZeros(w)
			out = append(out, ID(wi*64+b))
			w &= w - 1
		}
	}
	return out
}

// List returns the attributes of the set as a list in ascending order.
func (s Set) List() List {
	ids := s.Slice()
	l := make(List, len(ids))
	copy(l, ids)
	return l
}

// Key returns a canonical string key for the set.
func (s Set) Key() string {
	ids := s.Slice()
	var b strings.Builder
	for i, a := range ids {
		if i > 0 {
			b.WriteByte(',')
		}
		writeInt(&b, int(a))
	}
	return "{" + b.String() + "}"
}

// Format renders the set as "{A,B}" using the naming function.
func (s Set) Format(names func(ID) string) string {
	ids := s.Slice()
	parts := make([]string, len(ids))
	for i, a := range ids {
		if names != nil {
			parts[i] = names(a)
		} else {
			var b strings.Builder
			b.WriteByte('c')
			writeInt(&b, int(a))
			parts[i] = b.String()
		}
	}
	return "{" + strings.Join(parts, ",") + "}"
}

func popcount(w uint64) int {
	n := 0
	for w != 0 {
		w &= w - 1
		n++
	}
	return n
}

func trailingZeros(w uint64) int {
	n := 0
	for w&1 == 0 {
		w >>= 1
		n++
	}
	return n
}

// SortLists sorts a slice of lists into the canonical order given by
// List.Compare, for deterministic output.
func SortLists(ls []List) {
	sort.Slice(ls, func(i, j int) bool { return ls[i].Compare(ls[j]) < 0 })
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
