package ocd

import (
	"time"

	"ocd/internal/approx"
	"ocd/internal/attr"
	"ocd/internal/bidir"
	"ocd/internal/core"
	"ocd/internal/incremental"
	"ocd/internal/relation"
	"ocd/internal/ucc"
)

// This file exposes the extensions built on top of the paper's core
// algorithm: bidirectional (ASC/DESC) dependencies, approximate
// dependencies, unique column combinations, and incremental maintenance
// under dynamic inputs — the avenues the paper's related-work and
// future-work sections lay out.

// DirectedColumn is a column name with a sort direction, one element of a
// bidirectional dependency side.
type DirectedColumn struct {
	Column string
	Desc   bool
}

// String renders "name" or "name DESC".
func (d DirectedColumn) String() string {
	if d.Desc {
		return d.Column + " DESC"
	}
	return d.Column
}

// BidirOCD is a bidirectional order compatibility dependency.
type BidirOCD struct {
	Left, Right []DirectedColumn
}

// BidirOD is a bidirectional order dependency.
type BidirOD struct {
	Left, Right []DirectedColumn
}

// BidirResult holds bidirectional discovery output.
type BidirResult struct {
	OCDs []BidirOCD
	ODs  []BidirOD
	// ConstantColumns are removed constant columns.
	ConstantColumns []string
	// EquivalentGroups are directed equivalence classes; members carry the
	// polarity relative to the first (representative) member.
	EquivalentGroups [][]DirectedColumn
	Checks           int64
	Candidates       int64
	Elapsed          time.Duration
	Truncated        bool
}

// DiscoverBidirectional runs the bidirectional variant of OCDDISCOVER,
// where every attribute may join a dependency ascending or descending
// (SQL's ORDER BY income ASC, age DESC). The engine runs over each column
// and its descending twin, so a table of more than 32,767 columns fails
// with the engine's width error.
func (t *Table) DiscoverBidirectional(opts Options) (*BidirResult, error) {
	if t == nil || t.rel == nil {
		return nil, errNilTable
	}
	inner, err := bidir.DiscoverOCDs(t.rel, bidir.Options{
		Workers:       opts.Workers,
		Timeout:       opts.Timeout,
		MaxCandidates: opts.MaxCandidates,
	})
	if err != nil {
		return nil, err
	}
	res := &BidirResult{
		Checks:     inner.Checks,
		Candidates: inner.Candidates,
		Elapsed:    inner.Elapsed,
		Truncated:  inner.Truncated,
	}
	for _, d := range inner.OCDs {
		res.OCDs = append(res.OCDs, BidirOCD{Left: t.directed(d.X), Right: t.directed(d.Y)})
	}
	for _, d := range inner.ODs {
		res.ODs = append(res.ODs, BidirOD{Left: t.directed(d.X), Right: t.directed(d.Y)})
	}
	for _, c := range inner.Constants {
		res.ConstantColumns = append(res.ConstantColumns, t.rel.ColName(c))
	}
	for _, class := range inner.EquivClasses {
		group := make([]DirectedColumn, len(class))
		for i, m := range class {
			group[i] = DirectedColumn{Column: t.rel.ColName(m.ID), Desc: m.Dir == bidir.Desc}
		}
		res.EquivalentGroups = append(res.EquivalentGroups, group)
	}
	return res, nil
}

func (t *Table) directed(l bidir.DList) []DirectedColumn {
	out := make([]DirectedColumn, len(l))
	for i, x := range l {
		out[i] = DirectedColumn{Column: t.rel.ColName(x.ID), Desc: x.Dir == bidir.Desc}
	}
	return out
}

// ApproxOD is an order dependency that holds approximately: Error is the
// minimal fraction of rows whose removal makes it hold exactly.
type ApproxOD struct {
	Left, Right []string
	Error       float64
}

// ApproximateODError measures how far the OD Left → Right is from holding:
// 0 means it holds exactly, 0.02 means 2% of the rows must be removed.
func (t *Table) ApproximateODError(left, right []string) (float64, error) {
	x, err := t.colList(left)
	if err != nil {
		return 0, err
	}
	y, err := t.colList(right)
	if err != nil {
		return 0, err
	}
	return approx.NewChecker(t.rel).Error(x, y), nil
}

// ApproximateODs profiles all ordered pairs of non-constant columns and
// returns those whose error is at most eps, sorted by increasing error —
// the "almost holds" constraints the paper's introduction says data
// profiling should surface.
func (t *Table) ApproximateODs(eps float64) []ApproxOD {
	var out []ApproxOD
	for _, d := range approx.DiscoverSingletons(t.rel, eps) {
		out = append(out, ApproxOD{
			Left:  nameList(d.X, t.rel.NameOf),
			Right: nameList(d.Y, t.rel.NameOf),
			Error: d.Error,
		})
	}
	return out
}

// UniqueColumnCombinations returns the minimal unique column combinations
// (candidate keys) of the table, smallest first — the §5.4 companion signal
// for picking interesting columns.
func (t *Table) UniqueColumnCombinations() [][]string {
	res := ucc.Discover(t.rel, ucc.Options{})
	out := make([][]string, len(res.UCCs))
	for i, u := range res.UCCs {
		out[i] = nameList(u.List(), t.rel.NameOf)
	}
	return out
}

func (t *Table) colList(names []string) (attr.List, error) {
	out := make(attr.List, len(names))
	for i, n := range names {
		id, err := t.colID(n)
		if err != nil {
			return nil, err
		}
		out[i] = id
	}
	return out, nil
}

// Stream maintains discovered dependencies over a table that grows at
// runtime — the paper's future-work scenario. Dependencies can only die
// under row appends, so a batch that kills nothing costs a handful of
// order checks instead of a re-discovery; after a batch that kills or
// breaks something the minimal set can gain new members, and the stream
// re-discovers.
type Stream struct {
	m       *Maintainer
	columns []string
}

// Maintainer is the incremental engine behind Stream.
type Maintainer = incremental.Maintainer

// StreamReport summarizes what one append falsified.
type StreamReport struct {
	DiedOCDs        []OCD
	DiedODs         []OD
	BrokenConstants []string
	BrokenGroups    [][]string
	Checks          int64
}

// NewStream starts incremental maintenance from initial rows: it runs one
// discovery and tracks the result.
func NewStream(name string, columns []string, rows [][]string, opts Options) (*Stream, error) {
	m, err := incremental.New(name, columns, rows, relation.Options{}, core.Options{
		Workers:       opts.Workers,
		Timeout:       opts.Timeout,
		MaxCandidates: opts.MaxCandidates,
		MaxLevel:      opts.MaxLevel,
	})
	if err != nil {
		return nil, err
	}
	return &Stream{m: m, columns: append([]string(nil), columns...)}, nil
}

// AppendRows adds tuples and reports which tracked facts died.
func (s *Stream) AppendRows(rows [][]string) (*StreamReport, error) {
	rep, err := s.m.AppendRows(rows)
	if err != nil {
		return nil, err
	}
	name := func(a attr.ID) string { return s.columns[a] }
	out := &StreamReport{Checks: rep.Checks}
	for _, d := range rep.DiedOCDs {
		out.DiedOCDs = append(out.DiedOCDs, OCD{Left: nameList(d.X, name), Right: nameList(d.Y, name)})
	}
	for _, d := range rep.DiedODs {
		out.DiedODs = append(out.DiedODs, OD{Left: nameList(d.X, name), Right: nameList(d.Y, name)})
	}
	for _, c := range rep.BrokenConstants {
		out.BrokenConstants = append(out.BrokenConstants, name(c))
	}
	for _, class := range rep.BrokenClasses {
		out.BrokenGroups = append(out.BrokenGroups, nameList(attrListOf(class), name))
	}
	return out, nil
}

// AliveOCDCount returns how many tracked OCDs are still valid.
func (s *Stream) AliveOCDCount() int { return len(s.m.OCDs()) }

// AliveODCount returns how many tracked ODs are still valid.
func (s *Stream) AliveODCount() int { return len(s.m.ODs()) }

// NumRows returns the current size of the streamed table.
func (s *Stream) NumRows() int { return s.m.NumRows() }

// ApproxResult holds ε-approximate discovery output.
type ApproxResult struct {
	// OCDs are the ε-approximate order compatibility dependencies found by
	// the tree traversal, with their measured errors.
	OCDs []ApproxOCD
	// Truncated marks a run stopped by a limit.
	Truncated bool
}

// ApproxOCD is an order compatibility dependency holding on all but
// Error·rows of the instance.
type ApproxOCD struct {
	Left, Right []string
	Error       float64
}

// DiscoverApproximate runs the OCDDISCOVER traversal with ε-tolerant
// checks: a dependency is kept when removing at most eps·rows makes it hold
// exactly. At eps = 0 this coincides with exact discovery (without column
// reduction). The paper's pruning remains sound under approximation because
// the OCD error is monotone under list extension.
func (t *Table) DiscoverApproximate(eps float64, opts Options) (*ApproxResult, error) {
	if t == nil || t.rel == nil {
		return nil, errNilTable
	}
	inner := approx.NewChecker(t.rel).Discover(eps, approx.DiscoverOptions{
		MaxLevel:      opts.MaxLevel,
		MaxCandidates: opts.MaxCandidates,
		Timeout:       opts.Timeout,
	})
	res := &ApproxResult{Truncated: inner.Truncated}
	for _, d := range inner.OCDs {
		res.OCDs = append(res.OCDs, ApproxOCD{
			Left:  nameList(d.X, t.rel.NameOf),
			Right: nameList(d.Y, t.rel.NameOf),
			Error: d.Error,
		})
	}
	return res, nil
}
