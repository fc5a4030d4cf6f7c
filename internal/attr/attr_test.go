package attr

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestListBasics(t *testing.T) {
	l := NewList(0, 1, 2)
	if l.Empty() {
		t.Fatal("non-empty list reported empty")
	}
	if l.Head() != 0 {
		t.Errorf("Head = %d, want 0", l.Head())
	}
	if !l.Tail().Equal(NewList(1, 2)) {
		t.Errorf("Tail = %v", l.Tail())
	}
	if (List{}).Empty() == false {
		t.Error("empty list not reported empty")
	}
}

func TestListConcatAppend(t *testing.T) {
	x := NewList(0, 1)
	y := NewList(2, 3)
	got := x.Concat(y)
	want := NewList(0, 1, 2, 3)
	if !got.Equal(want) {
		t.Errorf("Concat = %v, want %v", got, want)
	}
	if !x.Append(5).Equal(NewList(0, 1, 5)) {
		t.Errorf("Append = %v", x.Append(5))
	}
	// Originals untouched (fresh allocations).
	if !x.Equal(NewList(0, 1)) || !y.Equal(NewList(2, 3)) {
		t.Error("Concat mutated its inputs")
	}
}

func TestConcatAliasing(t *testing.T) {
	// Appending to the result of Concat must never clobber a sibling list
	// that shares a backing array.
	x := NewList(0, 1)
	a := x.Append(2)
	b := x.Append(3)
	if !a.Equal(NewList(0, 1, 2)) || !b.Equal(NewList(0, 1, 3)) {
		t.Fatalf("aliasing bug: a=%v b=%v", a, b)
	}
}

func TestListContainsPrefix(t *testing.T) {
	l := NewList(3, 1, 4)
	if !l.Contains(4) || l.Contains(2) {
		t.Error("Contains wrong")
	}
	if !l.HasPrefix(NewList(3, 1)) {
		t.Error("HasPrefix(3,1) false")
	}
	if l.HasPrefix(NewList(1)) {
		t.Error("HasPrefix(1) true")
	}
	if !l.HasPrefix(List{}) {
		t.Error("empty list should be a prefix of everything")
	}
	if l.HasPrefix(NewList(3, 1, 4, 1)) {
		t.Error("longer list cannot be a prefix")
	}
}

func TestListDedup(t *testing.T) {
	cases := []struct{ in, want List }{
		{NewList(0, 1, 0), NewList(0, 1)}, // ABA ↔ AB (AX3 example)
		{NewList(0, 0, 0), NewList(0)},
		{NewList(2, 1, 0), NewList(2, 1, 0)},
		{NewList(), NewList()},
		{NewList(1, 2, 1, 2, 3), NewList(1, 2, 3)},
	}
	for _, c := range cases {
		if got := c.in.Dedup(); !got.Equal(c.want) {
			t.Errorf("Dedup(%v) = %v, want %v", c.in, got, c.want)
		}
	}
	if NewList(0, 1, 0).IsNormalized() {
		t.Error("ABA reported normalized")
	}
	if !NewList(0, 1, 2).IsNormalized() {
		t.Error("ABC reported not normalized")
	}
}

func TestListDisjoint(t *testing.T) {
	if !NewList(0, 1).Disjoint(NewList(2, 3)) {
		t.Error("disjoint lists reported overlapping")
	}
	if NewList(0, 1).Disjoint(NewList(1, 2)) {
		t.Error("overlapping lists reported disjoint")
	}
	if !(List{}).Disjoint(NewList(1)) {
		t.Error("empty list should be disjoint from everything")
	}
}

func TestListKeyUniqueness(t *testing.T) {
	// Key must distinguish [1,23] from [12,3] and from [1,2,3].
	keys := map[string]List{}
	for _, l := range []List{
		NewList(1, 23), NewList(12, 3), NewList(1, 2, 3), NewList(123),
	} {
		k := l.Key()
		if prev, dup := keys[k]; dup {
			t.Fatalf("key collision: %v and %v both map to %q", prev, l, k)
		}
		keys[k] = l
	}
}

func TestListCompare(t *testing.T) {
	cases := []struct {
		a, b List
		want int
	}{
		{NewList(0), NewList(0, 1), -1}, // shorter first
		{NewList(0, 1), NewList(0), 1},
		{NewList(0, 1), NewList(0, 2), -1},
		{NewList(0, 2), NewList(0, 1), 1},
		{NewList(0, 1), NewList(0, 1), 0},
	}
	for _, c := range cases {
		if got := c.a.Compare(c.b); got != c.want {
			t.Errorf("Compare(%v,%v) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestListFormat(t *testing.T) {
	names := func(a ID) string { return string(rune('A' + int(a))) }
	if got := NewList(0, 2, 1).Format(names); got != "[A,C,B]" {
		t.Errorf("Format = %q", got)
	}
	if got := NewList(0, 1).String(); got != "[c0,c1]" {
		t.Errorf("String = %q", got)
	}
	if got := (List{}).Format(names); got != "[]" {
		t.Errorf("empty Format = %q", got)
	}
}

func TestSetBasics(t *testing.T) {
	s := NewSet(1, 3, 70) // spans two words
	if !s.Has(1) || !s.Has(3) || !s.Has(70) || s.Has(2) || s.Has(71) {
		t.Error("Has wrong")
	}
	if s.Len() != 3 {
		t.Errorf("Len = %d, want 3", s.Len())
	}
	s.Remove(3)
	if s.Has(3) || s.Len() != 2 {
		t.Error("Remove failed")
	}
	s.Remove(500) // out of range: no-op
	if s.Len() != 2 {
		t.Error("Remove out-of-range changed set")
	}
}

func TestSetOps(t *testing.T) {
	a := NewSet(0, 1, 65)
	b := NewSet(1, 2)
	if got := a.Union(b); !got.Equal(NewSet(0, 1, 2, 65)) {
		t.Errorf("Union = %v", got.Slice())
	}
	if got := a.Intersect(b); !got.Equal(NewSet(1)) {
		t.Errorf("Intersect = %v", got.Slice())
	}
	if got := a.Minus(b); !got.Equal(NewSet(0, 65)) {
		t.Errorf("Minus = %v", got.Slice())
	}
	if a.Disjoint(b) {
		t.Error("overlapping sets reported disjoint")
	}
	if !NewSet(0).Disjoint(NewSet(64)) {
		t.Error("disjoint across words reported overlapping")
	}
	if !NewSet(0, 1).SubsetOf(NewSet(0, 1, 2)) {
		t.Error("subset not detected")
	}
	if NewSet(0, 99).SubsetOf(NewSet(0, 1, 2)) {
		t.Error("non-subset reported subset")
	}
}

func TestSetEqualDifferentWordLengths(t *testing.T) {
	a := NewSet(1)
	b := NewSet(1, 100)
	b.Remove(100) // b now has trailing zero words
	if !a.Equal(b) || !b.Equal(a) {
		t.Error("sets equal in content but unequal by word length")
	}
}

func TestZeroSetIsEmpty(t *testing.T) {
	var s Set
	if s.Len() != 0 || s.Has(0) || !s.Equal(NewSet()) {
		t.Fatal("zero Set is not empty")
	}
	s.Add(70)
	if !s.Has(70) || s.Has(6) || s.Len() != 1 {
		t.Errorf("zero Set after Add(70) = %v", s.Slice())
	}
}

func TestFullSet(t *testing.T) {
	for _, n := range []int{0, 1, 63, 64, 65, 130} {
		s := FullSet(n)
		if s.Len() != n {
			t.Errorf("FullSet(%d).Len = %d", n, s.Len())
		}
		if n > 0 && (!s.Has(0) || !s.Has(ID(n-1)) || s.Has(ID(n))) {
			t.Errorf("FullSet(%d) membership wrong", n)
		}
	}
}

func TestSetSliceSorted(t *testing.T) {
	s := NewSet(70, 3, 0, 65)
	got := s.Slice()
	want := []ID{0, 3, 65, 70}
	if len(got) != len(want) {
		t.Fatalf("Slice = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Slice = %v, want %v", got, want)
		}
	}
}

func TestSetKeyFormat(t *testing.T) {
	s := NewSet(2, 0)
	if s.Key() != "{0,2}" {
		t.Errorf("Key = %q", s.Key())
	}
	names := func(a ID) string { return string(rune('A' + int(a))) }
	if s.Format(names) != "{A,C}" {
		t.Errorf("Format = %q", s.Format(names))
	}
}

func TestPairKeys(t *testing.T) {
	p := NewPair(NewList(0, 1), NewList(2))
	q := NewPair(p.Y, p.X)
	if p.Key() == q.Key() {
		t.Error("ordered keys should differ for swapped pairs")
	}
	if p.UnorderedKey() != q.UnorderedKey() {
		t.Error("unordered keys should collide for swapped pairs")
	}
}

// Property: Dedup is idempotent and preserves first occurrence order.
func TestQuickDedupIdempotent(t *testing.T) {
	f := func(raw []uint8) bool {
		l := make(List, len(raw))
		for i, v := range raw {
			l[i] = ID(v % 16)
		}
		d := l.Dedup()
		return d.Equal(d.Dedup()) && d.IsNormalized()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: round-trip List -> Set -> membership agrees with Contains.
func TestQuickListSetAgree(t *testing.T) {
	f := func(raw []uint8, probe uint8) bool {
		l := make(List, len(raw))
		for i, v := range raw {
			l[i] = ID(v % 32)
		}
		s := l.Set()
		a := ID(probe % 32)
		return s.Has(a) == l.Contains(a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: set algebra identities on random sets.
func TestQuickSetAlgebra(t *testing.T) {
	gen := func(r *rand.Rand) Set {
		s := NewSet()
		n := r.Intn(20)
		for i := 0; i < n; i++ {
			s.Add(ID(r.Intn(128)))
		}
		return s
	}
	r := rand.New(rand.NewSource(42))
	for i := 0; i < 200; i++ {
		a, b := gen(r), gen(r)
		if !a.Minus(b).Union(a.Intersect(b)).Equal(a) {
			t.Fatalf("(a\\b) ∪ (a∩b) != a for a=%v b=%v", a.Slice(), b.Slice())
		}
		if !a.Intersect(b).SubsetOf(a) || !a.Intersect(b).SubsetOf(b) {
			t.Fatal("a∩b not a subset of both")
		}
		if a.Disjoint(b) != (a.Intersect(b).Len() == 0) {
			t.Fatal("Disjoint disagrees with Intersect")
		}
		if !a.SubsetOf(a.Union(b)) {
			t.Fatal("a not subset of a∪b")
		}
	}
}

// Property: Compare is a total order consistent with Equal.
func TestQuickCompareConsistent(t *testing.T) {
	f := func(x, y []uint8) bool {
		a := make(List, len(x))
		for i, v := range x {
			a[i] = ID(v % 8)
		}
		b := make(List, len(y))
		for i, v := range y {
			b[i] = ID(v % 8)
		}
		c := a.Compare(b)
		if c != -b.Compare(a) {
			return false
		}
		return (c == 0) == a.Equal(b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
