// Package incremental maintains a set of discovered order dependencies
// under dynamic inputs — the paper's stated future work ("we would like to
// consider dynamic inputs, where additional rows and columns may be added
// at runtime", Section 7).
//
// Order dependencies (and OCDs) are universally quantified over tuple
// pairs, so appending rows can only falsify them, never create new valid
// ones. Minimal sets are not anti-monotone, though: when X → Y dies,
// XA → Y may become minimal, and a broken constant or a shattered
// equivalence class changes the candidate tree itself. A maintainer
// therefore re-validates the tracked dependencies and reduction facts on
// every append — |deps| order checks instead of the candidate tree — and
// keeps them when all survive and no column changed kind: the candidate
// tree is then unchanged, since validity only shrinks. Otherwise it
// re-runs discovery, as it does when a column is added.
package incremental

import (
	"context"
	"fmt"
	"slices"

	"ocd/internal/attr"
	"ocd/internal/core"
	"ocd/internal/order"
	"ocd/internal/relation"
)

// Maintainer tracks discovered dependencies over a growing relation.
type Maintainer struct {
	name     string
	colNames []string
	rows     [][]string
	opts     relation.Options
	discOpts core.Options

	rel *relation.Relation
	// alive dependencies, in discovery output order with dead ones removed
	ocds []core.OCD
	ods  []core.OD
	// reduction facts are revalidated too: a constant column can stop
	// being constant, an equivalence class can shatter
	constants []attr.ID
	classes   [][]attr.ID

	revalidations int64
}

// Report summarizes the effect of one append.
type Report struct {
	// DiedOCDs / DiedODs are the dependencies falsified by the new rows.
	DiedOCDs []core.OCD
	DiedODs  []core.OD
	// BrokenConstants are columns that stopped being constant.
	BrokenConstants []attr.ID
	// BrokenClasses are equivalence classes that shattered (at least one
	// member pair is no longer order equivalent).
	BrokenClasses [][]attr.ID
	// Rediscovered reports that something died, broke or changed kind, so
	// the tracked set was replaced by a fresh discovery on the grown
	// relation.
	Rediscovered bool
	// Checks is the number of order checks the append used, rediscovery
	// included.
	Checks int64
}

// New builds a maintainer from raw rows, runs an initial discovery, and
// tracks its results.
func New(name string, colNames []string, rows [][]string, relOpts relation.Options, discOpts core.Options) (*Maintainer, error) {
	m := &Maintainer{
		name:     name,
		colNames: append([]string(nil), colNames...),
		opts:     relOpts,
		discOpts: discOpts,
	}
	m.rows = append(m.rows, rows...)
	if err := m.rebuild(); err != nil {
		return nil, err
	}
	if _, err := m.rediscover(); err != nil {
		return nil, err
	}
	return m, nil
}

func (m *Maintainer) rebuild() error {
	rel, err := relation.FromStrings(m.name, m.colNames, m.rows, m.opts)
	if err != nil {
		return err
	}
	m.rel = rel
	return nil
}

// rediscover replaces the tracked set with a fresh discovery and returns
// the checks it used, or core's error (a *core.WidthError, a recovered
// panic) with the set untouched.
func (m *Maintainer) rediscover() (int64, error) {
	res, err := core.DiscoverContext(context.Background(), m.rel, m.discOpts)
	if err != nil {
		return 0, err
	}
	m.ocds = res.OCDs
	m.ods = res.ODs
	m.constants = res.Constants
	m.classes = res.EquivClasses
	return res.Stats.Checks, nil
}

// NumRows returns the current row count.
func (m *Maintainer) NumRows() int { return m.rel.NumRows() }

// OCDs returns the currently alive OCDs.
func (m *Maintainer) OCDs() []core.OCD { return m.ocds }

// ODs returns the currently alive ODs.
func (m *Maintainer) ODs() []core.OD { return m.ods }

// Constants returns the columns still known constant.
func (m *Maintainer) Constants() []attr.ID { return m.constants }

// EquivClasses returns the order-equivalence classes still intact.
func (m *Maintainer) EquivClasses() [][]attr.ID { return m.classes }

// Revalidations returns the total number of order checks spent on appends,
// the cost metric to compare against full re-discovery.
func (m *Maintainer) Revalidations() int64 { return m.revalidations }

// AppendRows adds tuples and re-validates all tracked facts against the
// grown instance, returning what died. When anything died or broke, or a
// column's inferred kind changed, it re-runs discovery, so the tracked set
// always equals a fresh discovery on the grown relation.
func (m *Maintainer) AppendRows(rows [][]string) (*Report, error) {
	for i, row := range rows {
		if len(row) != len(m.colNames) {
			return nil, fmt.Errorf("incremental: appended row %d has %d fields, want %d", i, len(row), len(m.colNames))
		}
	}
	kinds := m.rel.Kinds
	m.rows = append(m.rows, rows...)
	if err := m.rebuild(); err != nil {
		// roll back the append; the relation still reflects the old rows
		m.rows = m.rows[:len(m.rows)-len(rows)]
		if rerr := m.rebuild(); rerr != nil {
			return nil, fmt.Errorf("incremental: rollback failed: %v (after %v)", rerr, err)
		}
		return nil, err
	}

	chk := order.NewChecker(m.rel, 64)
	rep := &Report{}

	aliveOCDs := m.ocds[:0]
	for _, d := range m.ocds {
		if chk.CheckOCD(d.X, d.Y) {
			aliveOCDs = append(aliveOCDs, d)
		} else {
			rep.DiedOCDs = append(rep.DiedOCDs, d)
		}
	}
	m.ocds = aliveOCDs

	aliveODs := m.ods[:0]
	for _, d := range m.ods {
		if chk.CheckOD(d.X, d.Y) {
			aliveODs = append(aliveODs, d)
		} else {
			rep.DiedODs = append(rep.DiedODs, d)
		}
	}
	m.ods = aliveODs

	aliveConst := m.constants[:0]
	for _, c := range m.constants {
		if m.rel.IsConstant(c) {
			aliveConst = append(aliveConst, c)
		} else {
			rep.BrokenConstants = append(rep.BrokenConstants, c)
		}
	}
	m.constants = aliveConst

	aliveClasses := m.classes[:0]
	for _, class := range m.classes {
		intact := true
		rep0 := attr.Singleton(class[0])
		for _, other := range class[1:] {
			if !chk.OrderEquivalent(rep0, attr.Singleton(other)) {
				intact = false
				break
			}
		}
		if intact {
			aliveClasses = append(aliveClasses, class)
		} else {
			rep.BrokenClasses = append(rep.BrokenClasses, class)
		}
	}
	m.classes = aliveClasses

	rep.Checks = chk.Checks()
	if len(rep.DiedOCDs)+len(rep.DiedODs)+len(rep.BrokenConstants)+len(rep.BrokenClasses) > 0 ||
		!slices.Equal(kinds, m.rel.Kinds) {
		rep.Rediscovered = true
		checks, err := m.rediscover()
		if err != nil {
			return nil, err
		}
		rep.Checks += checks
	}
	m.revalidations += rep.Checks
	return rep, nil
}

// AddColumn appends a new attribute with one value per existing row and
// re-discovers. Because existing dependencies cannot be affected by a new
// column (they never mention it), the tracked set is the union of the old
// alive set and the dependencies of the fresh run that involve the new
// column; for simplicity and exactness this implementation re-runs
// discovery on the extended schema, which also refreshes the reduction
// facts.
func (m *Maintainer) AddColumn(name string, values []string) error {
	if len(values) != len(m.rows) {
		return fmt.Errorf("incremental: column %s has %d values, want %d", name, len(values), len(m.rows))
	}
	m.colNames = append(m.colNames, name)
	for i := range m.rows {
		m.rows[i] = append(m.rows[i], values[i])
	}
	if err := m.rebuild(); err != nil {
		return err
	}
	_, err := m.rediscover()
	return err
}

// RediscoveryCost estimates what a full discovery would cost right now
// (candidate checks), for comparing against Revalidations in reports.
func (m *Maintainer) RediscoveryCost() (int64, error) {
	res, err := core.DiscoverContext(context.Background(), m.rel, m.discOpts)
	return res.Stats.Checks, err
}
