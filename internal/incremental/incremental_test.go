package incremental

import (
	"errors"
	"math/rand"
	"reflect"
	"strconv"
	"testing"

	"ocd/internal/attr"
	"ocd/internal/core"
	"ocd/internal/order"
	"ocd/internal/relation"
)

func newM(t *testing.T, rows [][]string, cols ...string) *Maintainer {
	t.Helper()
	if cols == nil {
		cols = []string{"A", "B"}
	}
	m, err := New("t", cols, rows, relation.Options{}, core.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestAppendPreservesValidDeps(t *testing.T) {
	m := newM(t, [][]string{{"1", "1"}, {"2", "2"}})
	if len(m.OCDs()) == 0 && len(m.EquivClasses()) == 0 {
		t.Fatal("expected an initial dependency between A and B")
	}
	rep, err := m.AppendRows([][]string{{"3", "3"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.DiedOCDs) != 0 || len(rep.DiedODs) != 0 || len(rep.BrokenClasses) != 0 {
		t.Errorf("consistent append killed dependencies: %+v", rep)
	}
	if m.NumRows() != 3 {
		t.Errorf("NumRows = %d", m.NumRows())
	}
}

func TestAppendKillsDeps(t *testing.T) {
	// A ↔ B initially; the appended row breaks the alignment.
	m := newM(t, [][]string{{"1", "1"}, {"2", "2"}})
	rep, err := m.AppendRows([][]string{{"3", "0"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.BrokenClasses) != 1 {
		t.Errorf("equivalence class should shatter: %+v", rep)
	}
	// Everything still tracked must hold on the new instance.
	assertAllValid(t, m)
}

func TestConstantBreaks(t *testing.T) {
	m := newM(t, [][]string{{"1", "7"}, {"2", "7"}})
	if len(m.Constants()) != 1 {
		t.Fatalf("Constants = %v", m.Constants())
	}
	rep, err := m.AppendRows([][]string{{"3", "8"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.BrokenConstants) != 1 || rep.BrokenConstants[0] != 1 {
		t.Errorf("constant should break: %+v", rep)
	}
	if len(m.Constants()) != 0 {
		t.Error("broken constant still tracked")
	}
}

func TestAppendFieldCountError(t *testing.T) {
	m := newM(t, [][]string{{"1", "1"}})
	if _, err := m.AppendRows([][]string{{"1"}}); err == nil {
		t.Error("short row should error")
	}
	if m.NumRows() != 1 {
		t.Error("failed append should not change the row count")
	}
}

// TestAntiMonotonicity: across random appends, the alive dependency set
// only shrinks, every alive dependency is valid, and every reported death
// is genuinely invalid.
func TestAntiMonotonicity(t *testing.T) {
	rng := rand.New(rand.NewSource(181))
	for trial := 0; trial < 15; trial++ {
		var rows [][]string
		for i := 0; i < 5+rng.Intn(10); i++ {
			rows = append(rows, []string{
				strconv.Itoa(rng.Intn(4)), strconv.Itoa(rng.Intn(4)), strconv.Itoa(rng.Intn(4)),
			})
		}
		m, err := New("t", []string{"A", "B", "C"}, rows, relation.Options{}, core.Options{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		prev := len(m.OCDs()) + len(m.ODs())
		for step := 0; step < 4; step++ {
			var batch [][]string
			for i := 0; i < 1+rng.Intn(4); i++ {
				batch = append(batch, []string{
					strconv.Itoa(rng.Intn(4)), strconv.Itoa(rng.Intn(4)), strconv.Itoa(rng.Intn(4)),
				})
			}
			rep, err := m.AppendRows(batch)
			if err != nil {
				t.Fatal(err)
			}
			now := len(m.OCDs()) + len(m.ODs())
			if now > prev {
				t.Fatalf("trial %d: dependency set grew under append", trial)
			}
			if prev-now != len(rep.DiedOCDs)+len(rep.DiedODs) {
				t.Fatalf("trial %d: death accounting wrong", trial)
			}
			prev = now
			assertAllValid(t, m)
			// deaths are genuine
			chk := order.NewChecker(relFromMaintainer(m), 8)
			for _, d := range rep.DiedOCDs {
				if chk.CheckOCD(d.X, d.Y) {
					t.Fatalf("trial %d: OCD reported dead but valid", trial)
				}
			}
			for _, d := range rep.DiedODs {
				if chk.CheckOD(d.X, d.Y) {
					t.Fatalf("trial %d: OD reported dead but valid", trial)
				}
			}
		}
	}
}

func relFromMaintainer(m *Maintainer) *relation.Relation { return m.rel }

func assertAllValid(t *testing.T, m *Maintainer) {
	t.Helper()
	chk := order.NewChecker(m.rel, 16)
	for _, d := range m.OCDs() {
		if !chk.CheckOCD(d.X, d.Y) {
			t.Fatalf("alive OCD %v~%v invalid", d.X, d.Y)
		}
	}
	for _, d := range m.ODs() {
		if !chk.CheckOD(d.X, d.Y) {
			t.Fatalf("alive OD %v→%v invalid", d.X, d.Y)
		}
	}
	for _, c := range m.Constants() {
		if !m.rel.IsConstant(c) {
			t.Fatalf("alive constant %v varies", c)
		}
	}
	for _, class := range m.EquivClasses() {
		for _, other := range class[1:] {
			if !chk.OrderEquivalent(attr.Singleton(class[0]), attr.Singleton(other)) {
				t.Fatalf("alive class %v broken", class)
			}
		}
	}
}

func TestAddColumn(t *testing.T) {
	m := newM(t, [][]string{{"1", "5"}, {"2", "9"}, {"3", "2"}})
	if err := m.AddColumn("C", []string{"10", "20", "30"}); err != nil {
		t.Fatal(err)
	}
	// A ↔ C now: the fresh discovery must pick it up.
	found := false
	for _, class := range m.EquivClasses() {
		if len(class) == 2 && class[0] == 0 && class[1] == 2 {
			found = true
		}
	}
	if !found {
		t.Errorf("A ↔ C missing after AddColumn: %v", m.EquivClasses())
	}
	if err := m.AddColumn("D", []string{"1"}); err == nil {
		t.Error("wrong value count should error")
	}
}

func TestMaintenanceCheaperThanRediscovery(t *testing.T) {
	// On a dependency-rich instance, revalidating the tracked set must use
	// fewer checks than a fresh discovery run.
	var rows [][]string
	for i := 0; i < 50; i++ {
		s := strconv.Itoa
		rows = append(rows, []string{s(i), s(i / 5), s(i / 10), s(i * 2)})
	}
	m, err := New("t", []string{"A", "B", "C", "D"}, rows, relation.Options{}, core.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := m.AppendRows([][]string{{"60", "12", "6", "120"}})
	if err != nil {
		t.Fatal(err)
	}
	full, err := m.RediscoveryCost()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Checks >= full {
		t.Errorf("maintenance used %d checks, rediscovery %d — no saving", rep.Checks, full)
	}
}

func TestRevalidationsAccumulate(t *testing.T) {
	m := newM(t, [][]string{{"1", "1"}, {"2", "2"}})
	if m.Revalidations() != 0 {
		t.Error("fresh maintainer should have zero revalidations")
	}
	if _, err := m.AppendRows([][]string{{"3", "3"}}); err != nil {
		t.Fatal(err)
	}
	first := m.Revalidations()
	if first == 0 {
		t.Error("revalidations not counted")
	}
	if _, err := m.AppendRows([][]string{{"4", "4"}}); err != nil {
		t.Fatal(err)
	}
	if m.Revalidations() <= first {
		t.Error("revalidations should accumulate")
	}
	if full, err := m.RediscoveryCost(); err != nil || full <= 0 {
		t.Errorf("rediscovery cost = %d, %v, want positive", full, err)
	}
}

// TestNewTooWideRelation: a relation wider than core's 16-bit attribute
// ids fails New with core's *WidthError instead of tracking an empty
// result.
func TestNewTooWideRelation(t *testing.T) {
	const cols = 1 << 16
	names := make([]string, cols)
	rows := [][]string{make([]string, cols), make([]string, cols)}
	for j := range names {
		names[j] = "c" + strconv.Itoa(j)
		rows[0][j], rows[1][j] = "0", strconv.Itoa(j%2)
	}
	_, err := New("wide", names, rows, relation.Options{}, core.Options{Workers: 1})
	var we *core.WidthError
	if !errors.As(err, &we) || we.Columns != cols {
		t.Fatalf("err = %v, want a *core.WidthError for %d columns", err, cols)
	}
}

// TestMaintainedEqualsRediscovery: after every append, the maintained
// OCDs, ODs, constants and equivalence classes are exactly what a fresh
// core.Discover finds on the grown relation. Minimal sets are not
// anti-monotone: when X → Y dies, XA → Y may become minimal.
func TestMaintainedEqualsRediscovery(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	opts := core.Options{Workers: 1}
	row := func(cols, domain int) []string {
		r := make([]string, cols)
		for i := range r {
			r[i] = strconv.Itoa(rng.Intn(domain))
		}
		return r
	}
	appends, diverged, rediscovered := 0, 0, 0
	for appends < 300 {
		cols, domain := 3+rng.Intn(2), 2+rng.Intn(3)
		var rows [][]string
		for i := 0; i < 3+rng.Intn(10); i++ {
			rows = append(rows, row(cols, domain))
		}
		m, err := New("t", []string{"A", "B", "C", "D"}[:cols], rows, relation.Options{}, opts)
		if err != nil {
			t.Fatal(err)
		}
		for step := 0; step < 5 && appends < 300; step++ {
			rep, err := m.AppendRows([][]string{row(cols, domain)})
			if err != nil {
				t.Fatal(err)
			}
			appends++
			if rep.Rediscovered {
				rediscovered++
			}
			want := core.Discover(m.rel, opts)
			if !same(m.OCDs(), want.OCDs) || !same(m.ODs(), want.ODs) ||
				!same(m.Constants(), want.Constants) || !same(m.EquivClasses(), want.EquivClasses) {
				diverged++
				t.Errorf("append %d: maintained OCDs %v ODs %v constants %v classes %v; Discover finds %v %v %v %v",
					appends, m.OCDs(), m.ODs(), m.Constants(), m.EquivClasses(), want.OCDs, want.ODs, want.Constants, want.EquivClasses)
			}
		}
	}
	if diverged > 0 {
		t.Errorf("%d of %d appends diverged from core.Discover", diverged, appends)
	}
	// Both paths ran: revalidation alone, and rediscovery.
	if rediscovered == 0 || rediscovered == appends {
		t.Errorf("%d of %d appends rediscovered", rediscovered, appends)
	}
}

// same reports whether a and b hold equal elements in the same order; nil
// and empty are the same.
func same[T any](a, b []T) bool {
	return len(a) == 0 && len(b) == 0 || reflect.DeepEqual(a, b)
}
