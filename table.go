package ocd

import (
	"context"
	"errors"
	"fmt"
	"io"

	"ocd/internal/attr"
	"ocd/internal/entropy"
	"ocd/internal/queryopt"
	"ocd/internal/relation"
)

// Table is an immutable, typed, rank-encoded relation instance — the input
// to discovery. Load one from CSV or build one from rows.
type Table struct {
	rel *relation.Relation
}

// LoadOption customizes parsing and encoding.
type LoadOption func(*loadConfig)

type loadConfig struct {
	csv relation.CSVOptions
	// ctxErr reports the WithContext context's error, so a stop-aborted
	// load surfaces an error matching errors.Is(err, ctx.Err()).
	ctxErr func() error
}

// wrapLoadErr attaches the cancelled context's error to a stop-aborted
// ingestion error, so callers can match errors.Is(err, context.Canceled)
// the same way they do for DiscoverContext.
func (c *loadConfig) wrapLoadErr(err error) error {
	if err == nil || c.ctxErr == nil {
		return err
	}
	if ctxErr := c.ctxErr(); ctxErr != nil && errors.Is(err, relation.ErrStopped) {
		return fmt.Errorf("%w: %w", ctxErr, err)
	}
	return err
}

// ForceString disables type inference: every column is ordered
// lexicographically, the behaviour the paper attributes to FASTOD
// (Section 5.2.2). By default types are inferred and numeric columns use
// natural ordering.
func ForceString() LoadOption {
	return func(c *loadConfig) { c.csv.ForceString = true }
}

// NullTokens replaces the default set of raw strings treated as SQL NULL
// ("", "NULL", "null", "?").
func NullTokens(tokens ...string) LoadOption {
	return func(c *loadConfig) { c.csv.NullTokens = tokens }
}

// Delimiter sets the CSV field separator (default ',').
func Delimiter(r rune) LoadOption {
	return func(c *loadConfig) { c.csv.Comma = r }
}

// NoHeader marks the first CSV record as data; columns are then named
// A, B, C, … .
func NoHeader() LoadOption {
	return func(c *loadConfig) { c.csv.NoHeader = true }
}

// WithTrace records the load phases (CSV "parse", then "rank-encode") as
// child spans of parent — typically the same Tracer root later passed to
// Options.Trace, so one trace covers the whole pipeline.
func WithTrace(parent *Span) LoadOption {
	return func(c *loadConfig) { c.csv.Trace = parent }
}

// WithContext makes loading cooperative: the context is polled during CSV
// parsing and rank encoding, and a cancelled context aborts ingestion
// promptly with an error wrapping ctx.Err(). Long discovery services use
// this so a cancelled or deleted job stops paying for its input parse.
func WithContext(ctx context.Context) LoadOption {
	return func(c *loadConfig) {
		c.csv.Stop = func() bool { return ctx.Err() != nil }
		c.ctxErr = ctx.Err
	}
}

func buildConfig(opts []LoadOption) loadConfig {
	var c loadConfig
	for _, o := range opts {
		o(&c)
	}
	return c
}

// LoadCSVFile reads a CSV file into a Table. The first record is the header
// unless NoHeader is given.
func LoadCSVFile(path string, opts ...LoadOption) (*Table, error) {
	c := buildConfig(opts)
	rel, err := relation.ReadCSVFile(path, c.csv)
	if err != nil {
		return nil, c.wrapLoadErr(err)
	}
	return &Table{rel: rel}, nil
}

// LoadCSV reads CSV data from r into a Table named name. Ingestion streams:
// records are encoded as they are read, so peak memory holds a few batches
// of raw records, one int32 per cell and one arena of distinct values'
// bytes per non-integer column, not the whole file as strings and not one
// string per value. Unquoted input is split at the byte level; from the
// first quote or carriage return on, encoding/csv reads the rest, so
// quoting rules and error messages are encoding/csv's. A column of
// integers in canonical spelling within int32 range is stored as its
// values, with no dictionary; type inference is otherwise unchanged
// (INTEGER, then REAL, then TEXT). When r reports its size (a Len method,
// as bytes.Reader has, or a regular *os.File) the per-cell codes are
// allocated once from an estimate of the row count.
func LoadCSV(r io.Reader, name string, opts ...LoadOption) (*Table, error) {
	c := buildConfig(opts)
	rel, err := relation.ReadCSV(r, name, c.csv)
	if err != nil {
		return nil, c.wrapLoadErr(err)
	}
	return &Table{rel: rel}, nil
}

// NewTable builds a Table from raw string rows (row-major) with the given
// column names. Types are inferred per column unless ForceString is given.
func NewTable(name string, columns []string, rows [][]string, opts ...LoadOption) (*Table, error) {
	c := buildConfig(opts)
	rel, err := relation.FromStrings(name, columns, rows, c.csv.Options)
	if err != nil {
		return nil, c.wrapLoadErr(err)
	}
	return &Table{rel: rel}, nil
}

// fromRelation wraps an internal relation; used by the examples, the
// experiment harness and tests inside this module.
func fromRelation(rel *relation.Relation) *Table { return &Table{rel: rel} }

// Name returns the table's name (dataset label).
func (t *Table) Name() string { return t.rel.Name }

// NumRows returns the number of tuples.
func (t *Table) NumRows() int { return t.rel.NumRows() }

// NumCols returns the number of attributes.
func (t *Table) NumCols() int { return t.rel.NumCols() }

// Columns returns the column names in schema order.
func (t *Table) Columns() []string {
	return append([]string(nil), t.rel.ColNames...)
}

// ColumnType returns the inferred SQL-ish type name of a column
// ("INTEGER", "REAL" or "TEXT").
func (t *Table) ColumnType(column string) (string, error) {
	id, err := t.colID(column)
	if err != nil {
		return "", err
	}
	return t.rel.Kinds[id].String(), nil
}

// Project returns a new Table with only the named columns, in that order.
func (t *Table) Project(columns ...string) (*Table, error) {
	ids := make([]attr.ID, len(columns))
	for i, c := range columns {
		id, err := t.colID(c)
		if err != nil {
			return nil, err
		}
		ids[i] = id
	}
	return &Table{rel: t.rel.Project(ids)}, nil
}

// Head returns a new Table with only the first n rows.
func (t *Table) Head(n int) *Table {
	return &Table{rel: t.rel.HeadRows(n)}
}

// Entropy returns the value-distribution entropy of a column (Definition
// 5.1): 0 for constants, log(rows) for keys.
func (t *Table) Entropy(column string) (float64, error) {
	id, err := t.colID(column)
	if err != nil {
		return 0, err
	}
	return entropy.Entropy(t.rel, id), nil
}

// TopEntropyColumns returns the n most diverse columns, highest entropy
// first — the paper's Section 5.4 heuristic for choosing which columns to
// profile when a full run is intractable.
func (t *Table) TopEntropyColumns(n int) []string {
	ids := entropy.TopColumns(t.rel, n)
	out := make([]string, len(ids))
	for i, id := range ids {
		out[i] = t.rel.ColName(id)
	}
	return out
}

// SimplifyOrderBy returns the shortest prefix of the given ORDER BY column
// list that still implies the full ordering on this instance (the §1 query
// rewrite: income, bracket, tax ⇒ income).
func (t *Table) SimplifyOrderBy(columns ...string) ([]string, error) {
	ids := make(attr.List, len(columns))
	for i, c := range columns {
		id, err := t.colID(c)
		if err != nil {
			return nil, err
		}
		ids[i] = id
	}
	simplified, _ := queryopt.New(t.rel).Simplify(ids)
	out := make([]string, len(simplified))
	for i, id := range simplified {
		out[i] = t.rel.ColName(id)
	}
	return out, nil
}

func (t *Table) colID(name string) (attr.ID, error) {
	id, ok := t.rel.ColIndex(name)
	if !ok {
		return 0, fmt.Errorf("ocd: table %s has no column %q", t.rel.Name, name)
	}
	return id, nil
}

var errNilTable = errors.New("ocd: nil table")
