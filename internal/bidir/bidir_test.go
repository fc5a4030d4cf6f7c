package bidir

import (
	"errors"
	"math/rand"
	"reflect"
	"strconv"
	"testing"

	"ocd/internal/attr"
	"ocd/internal/core"
	"ocd/internal/datagen"
	"ocd/internal/relation"
)

func rel(rows [][]int) *relation.Relation {
	names := make([]string, len(rows[0]))
	for i := range names {
		names[i] = string(rune('A' + i))
	}
	return relation.FromInts("t", names, rows)
}

func asc(a int) DAttr  { return DAttr{ID: attr.ID(a), Dir: Asc} }
func desc(a int) DAttr { return DAttr{ID: attr.ID(a), Dir: Desc} }

func TestCompareRowsDirections(t *testing.T) {
	r := rel([][]int{{1, 9}, {2, 5}})
	// ascending on A: row0 < row1; descending on B: row0 (9) < row1 (5).
	if CompareRows(r, 0, 1, DList{asc(0)}) != -1 {
		t.Error("A ASC compare wrong")
	}
	if CompareRows(r, 0, 1, DList{desc(1)}) != -1 {
		t.Error("B DESC compare wrong: 9 precedes 5 under DESC")
	}
	if CompareRows(r, 0, 1, DList{asc(1)}) != 1 {
		t.Error("B ASC compare wrong")
	}
}

func TestNullsFirstBothDirections(t *testing.T) {
	r, err := relation.FromStrings("t", []string{"A"}, [][]string{{""}, {"5"}}, relation.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if CompareRows(r, 0, 1, DList{asc(0)}) != -1 {
		t.Error("NULL must precede values under ASC")
	}
	if CompareRows(r, 0, 1, DList{desc(0)}) != -1 {
		t.Error("NULL must precede values under DESC (NULLS FIRST)")
	}
}

func TestReversedColumnsOD(t *testing.T) {
	// B = -A: the bidirectional OD [A ASC] → [B DESC] holds; the
	// unidirectional A → B does not.
	r := rel([][]int{{1, -1}, {2, -2}, {3, -3}})
	chk := NewChecker(r, 8)
	if !chk.CheckOD(DList{asc(0)}, DList{desc(1)}) {
		t.Error("A ASC → B DESC should hold for B = -A")
	}
	if chk.CheckOD(DList{asc(0)}, DList{asc(1)}) {
		t.Error("A ASC → B ASC must fail for B = -A")
	}
	if !chk.CheckOCD(DList{asc(0)}, DList{desc(1)}) {
		t.Error("A ASC ~ B DESC should hold")
	}
}

func TestFlipInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(131))
	for trial := 0; trial < 100; trial++ {
		rows := make([][]int, 2+rng.Intn(15))
		for i := range rows {
			rows[i] = []int{rng.Intn(4), rng.Intn(4), rng.Intn(4)}
		}
		r := rel(rows)
		chk := NewChecker(r, 8)
		x := DList{DAttr{0, dirOf(rng)}, DAttr{1, dirOf(rng)}}
		y := DList{DAttr{2, dirOf(rng)}}
		if chk.CheckOD(x, y) != chk.CheckOD(x.Flip(), y.Flip()) {
			t.Fatalf("trial %d: OD not invariant under global flip", trial)
		}
		if chk.CheckOCD(x, y) != chk.CheckOCD(x.Flip(), y.Flip()) {
			t.Fatalf("trial %d: OCD not invariant under global flip", trial)
		}
	}
}

func dirOf(rng *rand.Rand) Direction {
	if rng.Intn(2) == 0 {
		return Asc
	}
	return Desc
}

// bruteOD is the O(m²) reference under directed comparison.
func bruteOD(r *relation.Relation, x, y DList) bool {
	for p := 0; p < r.NumRows(); p++ {
		for q := 0; q < r.NumRows(); q++ {
			if CompareRows(r, p, q, x) <= 0 && CompareRows(r, p, q, y) > 0 {
				return false
			}
		}
	}
	return true
}

func TestQuickAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(137))
	for trial := 0; trial < 200; trial++ {
		rows := make([][]int, 2+rng.Intn(12))
		for i := range rows {
			rows[i] = []int{rng.Intn(3), rng.Intn(3), rng.Intn(3)}
		}
		r := rel(rows)
		chk := NewChecker(r, 8)
		mk := func() DList {
			n := 1 + rng.Intn(2)
			perm := rng.Perm(3)
			l := make(DList, n)
			for i := 0; i < n; i++ {
				l[i] = DAttr{ID: attr.ID(perm[i]), Dir: dirOf(rng)}
			}
			return l
		}
		x, y := mk(), mk()
		if got, want := chk.CheckOD(x, y), bruteOD(r, x, y); got != want {
			t.Fatalf("trial %d: CheckOD(%v,%v) = %v, brute %v on %v", trial, x, y, got, want, rows)
		}
	}
}

// randomNullRel draws a four-column relation with NULLs over small domains
// and returns a row slice of it, whose codes keep the parent's code space.
func randomNullRel(rng *rand.Rand) *relation.Relation {
	nr := 2 + rng.Intn(14)
	rows := make([][]string, nr)
	for i := range rows {
		rows[i] = make([]string, 4)
		for c := range rows[i] {
			if v := rng.Intn(5); v > 0 {
				rows[i][c] = strconv.Itoa(v)
			}
		}
	}
	r, err := relation.FromStrings("t", []string{"A", "B", "C", "D"}, rows, relation.Options{})
	if err != nil {
		panic(err)
	}
	if rng.Intn(2) == 0 {
		return r.HeadRows(1 + rng.Intn(nr))
	}
	return r.SelectRows(rng.Perm(nr)[:1+rng.Intn(nr)])
}

// TestTwinChecksMatchBruteForce compares the checker with bruteOD on list
// pairs that DiscoverOCDs emitted, most of them valid, and on random pairs,
// most of them invalid.
func TestTwinChecksMatchBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(163))
	concat := func(x, y DList) DList { return append(append(DList{}, x...), y...) }
	var pairs, valid int
	for trial := 0; trial < 150; trial++ {
		r := randomNullRel(rng)
		chk := NewChecker(r, 8)
		type pair struct{ x, y DList }
		var cases []pair
		res := mustDiscover(t, r, Options{Workers: 1})
		for _, d := range res.OCDs {
			cases = append(cases, pair{d.X, d.Y}, pair{d.Y, d.X}, pair{d.X.Flip(), d.Y})
		}
		for _, d := range res.ODs {
			cases = append(cases, pair{d.X, d.Y}, pair{d.Y, d.X})
		}
		for i := 0; i < 10; i++ {
			perm := rng.Perm(4)
			nx := 1 + rng.Intn(2)
			l := make(DList, nx+1+rng.Intn(2))
			for k := range l {
				l[k] = DAttr{ID: attr.ID(perm[k]), Dir: dirOf(rng)}
			}
			cases = append(cases, pair{l[:nx], l[nx:]})
		}
		for _, c := range cases {
			od, ocd := bruteOD(r, c.x, c.y), bruteOD(r, concat(c.x, c.y), concat(c.y, c.x))
			if got := chk.CheckOD(c.x, c.y); got != od {
				t.Fatalf("trial %d: CheckOD(%v, %v) = %v, brute %v", trial, c.x, c.y, got, od)
			}
			if got := chk.CheckOCD(c.x, c.y); got != ocd {
				t.Fatalf("trial %d: CheckOCD(%v, %v) = %v, brute %v", trial, c.x, c.y, got, ocd)
			}
			pairs++
			if ocd {
				valid++
			}
		}
	}
	if valid < pairs/4 || pairs-valid < pairs/4 {
		t.Fatalf("%d of %d pairs are valid OCDs; want both kinds", valid, pairs)
	}
}

// TestReplicaCounts pins bidirectional discovery on the HORSE and HEPATITIS
// replicas: the result is the same at 1 and 2 workers, with the counts the
// sorted-index checker and its own level loop produced.
func TestReplicaCounts(t *testing.T) {
	cases := []struct {
		name               string
		r                  *relation.Relation
		checks, candidates int64
		ocds, ods          int
	}{
		{"HORSE", datagen.Horse(), 6_256, 4_504, 64, 55},
		{"HEPATITIS", datagen.Hepatitis(), 726_708, 701_806, 12_071, 0},
	}
	for _, c := range cases {
		one := mustDiscover(t, c.r, Options{Workers: 1})
		two := mustDiscover(t, c.r, Options{Workers: 2})
		one.Elapsed, two.Elapsed = 0, 0
		if !reflect.DeepEqual(one, two) {
			t.Errorf("%s: result at 2 workers differs from 1 worker", c.name)
		}
		if one.Truncated || one.Checks != c.checks || one.Candidates != c.candidates ||
			len(one.OCDs) != c.ocds || len(one.ODs) != c.ods {
			t.Errorf("%s: truncated %v, %d checks, %d candidates, %d OCDs, %d ODs; want %d, %d, %d, %d",
				c.name, one.Truncated, one.Checks, one.Candidates, len(one.OCDs), len(one.ODs),
				c.checks, c.candidates, c.ocds, c.ods)
		}
	}
}

func TestDiscoverReversedEquivalence(t *testing.T) {
	// B = -A is a directed order equivalence: discovery should collapse it
	// into one class with opposite polarity, and the unidirectional core
	// must find nothing at all.
	r := rel([][]int{{1, -1, 5}, {2, -2, 9}, {3, -3, 2}})
	res := mustDiscover(t, r, Options{Workers: 1})
	if len(res.EquivClasses) != 1 {
		t.Fatalf("EquivClasses = %v", res.EquivClasses)
	}
	class := res.EquivClasses[0]
	if class[0].ID != 0 || class[0].Dir != Asc {
		t.Errorf("representative should be A ASC: %v", class)
	}
	if class[1].ID != 1 || class[1].Dir != Desc {
		t.Errorf("B should join with DESC polarity: %v", class)
	}
	uni := core.Discover(r, core.Options{Workers: 1})
	if len(uni.EquivClasses) != 0 {
		t.Error("unidirectional discovery must not see the reversed equivalence")
	}
}

func TestDiscoverFindsDescOCD(t *testing.T) {
	// A and B are order compatible only when B is read descending:
	// as A increases, B never increases (with ties breaking strictness).
	r := rel([][]int{{1, 9}, {1, 8}, {2, 7}, {3, 7}, {4, 1}})
	res := mustDiscover(t, r, Options{Workers: 1})
	found := false
	for _, d := range res.OCDs {
		if d.X.Equal(DList{asc(0)}) && d.Y.Equal(DList{desc(1)}) {
			found = true
		}
	}
	if !found {
		t.Errorf("missing [A] ~ [B DESC]: %v", res.OCDs)
	}
	// ascending variant must be absent
	for _, d := range res.OCDs {
		if d.X.Equal(DList{asc(0)}) && d.Y.Equal(DList{asc(1)}) {
			t.Error("spurious [A] ~ [B ASC]")
		}
	}
}

// TestSupersetOfUnidirectional: on data without reversed equivalences,
// every unidirectional OCD appears among the bidirectional all-ascending
// emissions.
func TestSupersetOfUnidirectional(t *testing.T) {
	rng := rand.New(rand.NewSource(139))
	for trial := 0; trial < 20; trial++ {
		rows := make([][]int, 3+rng.Intn(15))
		for i := range rows {
			rows[i] = []int{rng.Intn(4), rng.Intn(4), rng.Intn(4)}
		}
		r := rel(rows)
		uni := core.Discover(r, core.Options{Workers: 1})
		bi := mustDiscover(t, r, Options{Workers: 1})
		if len(uni.EquivClasses) != len(bi.EquivClasses) {
			continue // reduction differs; skip this sample
		}
		biKeys := map[string]bool{}
		for _, d := range bi.OCDs {
			biKeys[canonicalKey(d.X, d.Y)] = true
		}
		for _, d := range uni.OCDs {
			k := canonicalKey(NewAsc(d.X), NewAsc(d.Y))
			if !biKeys[k] {
				t.Fatalf("trial %d: unidirectional OCD %v~%v missing from bidirectional output", trial, d.X, d.Y)
			}
		}
	}
}

func TestSoundnessOfEmissions(t *testing.T) {
	rng := rand.New(rand.NewSource(149))
	for trial := 0; trial < 20; trial++ {
		rows := make([][]int, 3+rng.Intn(12))
		for i := range rows {
			rows[i] = []int{rng.Intn(3), rng.Intn(3), rng.Intn(3)}
		}
		r := rel(rows)
		res := mustDiscover(t, r, Options{Workers: 2})
		chk := NewChecker(r, 8)
		for _, d := range res.OCDs {
			if !chk.CheckOCD(d.X, d.Y) {
				t.Fatalf("trial %d: emitted OCD %v~%v invalid", trial, d.X, d.Y)
			}
		}
		for _, d := range res.ODs {
			if !chk.CheckOD(d.X, d.Y) {
				t.Fatalf("trial %d: emitted OD %v→%v invalid", trial, d.X, d.Y)
			}
		}
		for _, class := range res.EquivClasses {
			rep := DList{{ID: class[0].ID, Dir: class[0].Dir}}
			for _, m := range class[1:] {
				other := DList{{ID: m.ID, Dir: m.Dir}}
				if !chk.CheckOD(rep, other) || !chk.CheckOD(other, rep) {
					t.Fatalf("trial %d: class member %v not equivalent to rep", trial, m)
				}
			}
		}
	}
}

func TestParallelMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(151))
	for trial := 0; trial < 10; trial++ {
		rows := make([][]int, 3+rng.Intn(12))
		for i := range rows {
			rows[i] = []int{rng.Intn(3), rng.Intn(3), rng.Intn(3), rng.Intn(3)}
		}
		r := rel(rows)
		a := mustDiscover(t, r, Options{Workers: 1})
		b := mustDiscover(t, r, Options{Workers: 4})
		if len(a.OCDs) != len(b.OCDs) || len(a.ODs) != len(b.ODs) {
			t.Fatalf("trial %d: parallel output differs: %d/%d vs %d/%d",
				trial, len(a.OCDs), len(a.ODs), len(b.OCDs), len(b.ODs))
		}
		for i := range a.OCDs {
			if !a.OCDs[i].X.Equal(b.OCDs[i].X) || !a.OCDs[i].Y.Equal(b.OCDs[i].Y) {
				t.Fatalf("trial %d: OCD order differs", trial)
			}
		}
	}
}

// canonicalKey collapses the four symmetric variants of a candidate —
// (X,Y), (Y,X), (flip X, flip Y), (flip Y, flip X) — to one key.
func canonicalKey(x, y DList) string {
	keys := []string{
		x.Key() + "|" + y.Key(),
		y.Key() + "|" + x.Key(),
		x.Flip().Key() + "|" + y.Flip().Key(),
		y.Flip().Key() + "|" + x.Flip().Key(),
	}
	best := keys[0]
	for _, k := range keys[1:] {
		if k < best {
			best = k
		}
	}
	return best
}

func TestFormatAndKeys(t *testing.T) {
	l := DList{asc(0), desc(1)}
	names := func(a attr.ID) string { return string(rune('A' + int(a))) }
	if got := l.Format(names); got != "[A,B DESC]" {
		t.Errorf("Format = %q", got)
	}
	if l.Key() == l.Flip().Key() {
		t.Error("flip must change the key")
	}
	if canonicalKey(l, DList{asc(2)}) != canonicalKey(l.Flip(), DList{desc(2)}) {
		t.Error("canonicalKey must collapse global flips")
	}
	if canonicalKey(l, DList{asc(2)}) != canonicalKey(DList{asc(2)}, l) {
		t.Error("canonicalKey must collapse side swaps")
	}
	if !l.IDs().Equal(attr.NewList(0, 1)) {
		t.Error("IDs projection wrong")
	}
	if NewAsc(attr.NewList(0, 1))[1].Dir != Asc {
		t.Error("NewAsc must set Asc")
	}
}

func TestConstantsRemoved(t *testing.T) {
	r := rel([][]int{{1, 7}, {2, 7}})
	res := mustDiscover(t, r, Options{Workers: 1})
	if len(res.Constants) != 1 || res.Constants[0] != 1 {
		t.Errorf("Constants = %v", res.Constants)
	}
	if len(res.OCDs) != 0 {
		t.Errorf("single varying column cannot form OCDs: %v", res.OCDs)
	}
}

func TestTruncation(t *testing.T) {
	rng := rand.New(rand.NewSource(157))
	rows := make([][]int, 40)
	for i := range rows {
		rows[i] = []int{rng.Intn(2), rng.Intn(2), rng.Intn(2), rng.Intn(2), rng.Intn(2), rng.Intn(2)}
	}
	r := rel(rows)
	res := mustDiscover(t, r, Options{Workers: 1, MaxCandidates: 10})
	if !res.Truncated {
		t.Error("MaxCandidates should truncate")
	}
}

// mustDiscover runs DiscoverOCDs and fails the test on its error.
func mustDiscover(t testing.TB, r *relation.Relation, opts Options) *Result {
	t.Helper()
	res, err := DiscoverOCDs(r, opts)
	if err != nil {
		t.Fatalf("DiscoverOCDs: %v", err)
	}
	return res
}

// TestTooWideWithTwins: core runs over the columns and their reversed
// twins, so 32,768 columns make a 65,536-column relation, and DiscoverOCDs
// returns core's *WidthError.
func TestTooWideWithTwins(t *testing.T) {
	const cols = 1 << 15
	r, err := relation.FromIntsErr("wide", nil, [][]int{make([]int, cols), make([]int, cols)})
	if err != nil {
		t.Fatal(err)
	}
	_, err = DiscoverOCDs(r, Options{Workers: 1})
	var we *core.WidthError
	if !errors.As(err, &we) || we.Columns != 2*cols {
		t.Fatalf("err = %v, want a *core.WidthError for %d columns", err, 2*cols)
	}
}
