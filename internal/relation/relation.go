// Package relation implements the relational substrate for order-dependency
// discovery: typed columns, CSV ingestion with type inference, SQL NULL
// semantics and an order-preserving dictionary ("rank") encoding.
//
// Every column is encoded as int32 codes such that for any two rows p, q and
// column A: code(p, A) < code(q, A) iff p_A precedes q_A under the column's
// natural order, and code equality coincides with value equality. NULL is
// assigned code 0, which realises the paper's NULL handling (Section 4.3):
// "NULL equals NULL, and NULLS FIRST for sorting". After encoding, every
// comparison the discovery algorithms perform is a single integer compare.
package relation

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"strconv"

	"ocd/internal/attr"
	"ocd/internal/obs"
)

// ErrStopped is the sentinel wrapped into ingestion errors when
// Options.Stop reported true mid-parse or mid-encode. Use errors.Is to
// distinguish a cooperative abort from malformed input.
var ErrStopped = errors.New("relation: ingestion stopped")

// stopEvery is the row cadence of Options.Stop polls inside the parse and
// encode loops: frequent enough that a cancel lands within microseconds on
// wide rows, cheap enough to vanish against the per-row work.
const stopEvery = 1024

// Kind is the inferred type of a column.
type Kind int

const (
	// KindInt columns hold 64-bit integers ordered numerically.
	KindInt Kind = iota
	// KindFloat columns hold floating-point numbers ordered numerically.
	KindFloat
	// KindString columns are ordered lexicographically (byte-wise).
	KindString
)

// String returns the SQL-ish name of the kind.
func (k Kind) String() string {
	switch k {
	case KindInt:
		return "INTEGER"
	case KindFloat:
		return "REAL"
	default:
		return "TEXT"
	}
}

// NullCode is the rank code assigned to NULL in every column. It is the
// smallest code, so sorting ascending by code yields NULLS FIRST, and two
// NULLs compare equal, per the paper's SQL semantics.
const NullCode int32 = 0

// Options control parsing and encoding of a relation.
type Options struct {
	// ForceString disables type inference and orders every column
	// lexicographically, mimicking the behaviour the paper reports for
	// FASTOD ("considers all columns as if they contain data of type
	// String"). Off by default: like ORDER and OCDDISCOVER we infer types
	// and use natural ordering for numbers.
	ForceString bool
	// NullTokens are the raw strings treated as NULL. When nil, the
	// default set {"", "NULL", "null", "?"} is used ("?" is the missing-
	// value marker of the UCI datasets HEPATITIS and HORSE).
	NullTokens []string
	// Trace, when non-nil, is the parent span under which loading records
	// its "parse" (CSV read and dictionary encoding) and "rank-encode"
	// (type inference, ranking and the code rewrite) phase spans. Nil
	// disables tracing.
	Trace *obs.Span
	// Stop, when non-nil, is polled periodically during CSV parsing and
	// rank encoding; when it reports true, ingestion aborts promptly with
	// an error wrapping ErrStopped. A cancelled or deleted job must not
	// keep parsing a multi-gigabyte CSV it will never use. Typically
	// derived from a context: func() bool { return ctx.Err() != nil }.
	Stop func() bool
}

func (o Options) nullSet() map[string]bool {
	toks := o.NullTokens
	if toks == nil {
		toks = []string{"", "NULL", "null", "?"}
	}
	m := make(map[string]bool, len(toks))
	for _, t := range toks {
		m[t] = true
	}
	return m
}

// Relation is an immutable table instance with rank-encoded columns.
// Storage is column-major: Codes[c][row].
type Relation struct {
	// Name labels the relation (dataset name) for reports.
	Name string
	// ColNames holds one name per column.
	ColNames []string
	// Kinds holds the inferred type of each column.
	Kinds []Kind
	// Codes holds the rank-encoded values, column-major.
	Codes [][]int32
	// display maps, per column, a code to the representative raw string of
	// that value (display[c][code]); code 0 is NULL.
	display [][]string
	// distinct counts distinct non-NULL values per column.
	distinct []int
	// hasNull records, per column, whether any NULL occurs.
	hasNull []bool
	rows    int
	// twins is the number of original columns when the relation carries
	// reversed twins (column twins+a reverses column a), else 0.
	twins int
}

// NumRows returns the number of tuples.
func (r *Relation) NumRows() int { return r.rows }

// NumCols returns the number of attributes.
func (r *Relation) NumCols() int { return len(r.Codes) }

// Attrs returns the full attribute set {0..NumCols-1} as a slice.
func (r *Relation) Attrs() []attr.ID {
	out := make([]attr.ID, r.NumCols())
	for i := range out {
		out[i] = attr.ID(i)
	}
	return out
}

// Code returns the rank code of column c at the given row.
func (r *Relation) Code(row int, c attr.ID) int32 { return r.Codes[c][row] }

// Col returns the full code slice of column c (shared, do not mutate).
func (r *Relation) Col(c attr.ID) []int32 { return r.Codes[c] }

// Value returns the display string of the value at (row, c); NULL renders as
// "NULL".
func (r *Relation) Value(row int, c attr.ID) string {
	code := r.Codes[c][row]
	return r.display[c][code]
}

// Twin returns the reversed twin of column c, or c's original when c is a
// twin; on a relation without twins it returns c.
func (r *Relation) Twin(c attr.ID) attr.ID {
	switch n := attr.ID(r.twins); {
	case n == 0:
		return c
	case c < n:
		return c + n
	default:
		return c - n
	}
}

// WithReversedTwins returns the relation with, after its n columns, a
// reversed twin per column: column n+a, named "a DESC", orders the rows as
// column a read descending with NULLS FIRST. A non-NULL code v of column a
// becomes max+1−v, where max is a's largest code, NULL keeps code 0, and
// every row displays the same value in both. Row slices keep the twins.
func (r *Relation) WithReversedTwins() *Relation {
	out := &Relation{
		Name:     r.Name,
		ColNames: slices.Clone(r.ColNames),
		Kinds:    slices.Concat(r.Kinds, r.Kinds),
		Codes:    slices.Clone(r.Codes),
		display:  slices.Clone(r.display),
		distinct: slices.Concat(r.distinct, r.distinct),
		hasNull:  slices.Concat(r.hasNull, r.hasNull),
		rows:     r.rows,
		twins:    r.NumCols(),
	}
	for c, codes := range r.Codes {
		hi := NullCode
		for _, v := range codes {
			hi = max(hi, v)
		}
		twin := make([]int32, len(codes))
		for i, v := range codes {
			if v != NullCode {
				twin[i] = hi + 1 - v
			}
		}
		disp := make([]string, hi+1)
		disp[0] = r.display[c][0]
		for v := int32(1); v <= hi; v++ {
			disp[v] = r.display[c][hi+1-v]
		}
		out.ColNames = append(out.ColNames, r.ColNames[c]+" DESC")
		out.Codes = append(out.Codes, twin)
		out.display = append(out.display, disp)
	}
	return out
}

// ColName returns the name of column c.
func (r *Relation) ColName(c attr.ID) string { return r.ColNames[c] }

// NameOf is a naming function suitable for attr.List.Format.
func (r *Relation) NameOf(c attr.ID) string { return r.ColNames[c] }

// Distinct returns the number of distinct non-NULL values in column c.
func (r *Relation) Distinct(c attr.ID) int { return r.distinct[c] }

// HasNull reports whether column c contains any NULL.
func (r *Relation) HasNull(c attr.ID) bool { return r.hasNull[c] }

// DistinctClasses returns the number of equivalence classes of column c,
// counting all NULLs as a single class (NULL = NULL). This is the class
// count used by the entropy definition (Definition 5.1).
func (r *Relation) DistinctClasses(c attr.ID) int {
	n := r.distinct[c]
	if r.hasNull[c] {
		n++
	}
	return n
}

// IsConstant reports whether column c is constant over the instance: all
// tuples agree on its value (a single equivalence class, counting NULL=NULL).
// Constant columns are ordered by every attribute list (Section 4.1).
func (r *Relation) IsConstant(c attr.ID) bool {
	return r.rows == 0 || r.DistinctClasses(c) == 1
}

// ColIndex returns the attribute with the given column name.
func (r *Relation) ColIndex(name string) (attr.ID, bool) {
	for i, n := range r.ColNames {
		if n == name {
			return attr.ID(i), true
		}
	}
	return 0, false
}

// FromStrings builds a relation from row-major raw string data, inferring a
// type for each column (unless opts.ForceString) and rank-encoding it.
// Every row must have exactly len(colNames) fields. The rows go through the
// same streaming encoder as ReadCSV's records.
func FromStrings(name string, colNames []string, rows [][]string, opts Options) (*Relation, error) {
	span := opts.Trace.StartChild("rank-encode")
	defer span.End()
	span.SetAttr("rows", int64(len(rows)))
	span.SetAttr("cols", int64(len(colNames)))
	nc := len(colNames)
	for i, row := range rows {
		if len(row) != nc {
			// Row numbers in errors are 1-based data rows.
			return nil, fmt.Errorf("relation %s: row %d has %d fields, want %d", name, i+1, len(row), nc)
		}
	}
	enc := newEncoder(nc, opts.nullSet(), opts.ForceString)
	enc.presize(len(rows))
	for i, row := range rows {
		if opts.Stop != nil && i%stopEvery == 0 && opts.Stop() {
			enc.close()
			return nil, fmt.Errorf("relation %s: rank-encode row %d: %w", name, i+1, ErrStopped)
		}
		enc.addStrings(row)
	}
	return enc.finish(name, colNames, opts)
}

// FromIntsErr builds a relation directly from integer data (row-major),
// a convenience for synthetic datasets. Column names default to
// "A", "B", … when nil. It reports an error for ragged rows or an empty
// relation without a schema.
func FromIntsErr(name string, colNames []string, rows [][]int) (*Relation, error) {
	if len(rows) == 0 && colNames == nil {
		return nil, fmt.Errorf("relation %s: need column names for an empty relation", name)
	}
	nc := 0
	if len(rows) > 0 {
		nc = len(rows[0])
	} else {
		nc = len(colNames)
	}
	if colNames == nil {
		colNames = make([]string, nc)
		for i := range colNames {
			colNames[i] = defaultColName(i)
		}
	}
	raw := make([][]string, len(rows))
	for i, row := range rows {
		if len(row) != nc {
			return nil, fmt.Errorf("relation %s: row %d has %d fields, want %d", name, i+1, len(row), nc)
		}
		sr := make([]string, nc)
		for j, v := range row {
			sr[j] = strconv.Itoa(v)
		}
		raw[i] = sr
	}
	return FromStrings(name, colNames, raw, Options{})
}

// FromInts is the panicking form of FromIntsErr, kept as a terse
// constructor for tests and the synthetic-data generators where
// malformed input is a programming error.
func FromInts(name string, colNames []string, rows [][]int) *Relation {
	r, err := FromIntsErr(name, colNames, rows)
	if err != nil {
		// lint:allow panic — convenience wrapper; FromIntsErr is the
		// error-returning library API.
		panic(err)
	}
	return r
}

// defaultColName names columns A..Z, then AA, AB, … like spreadsheets.
func defaultColName(i int) string {
	name := ""
	for {
		name = string(rune('A'+i%26)) + name
		i = i/26 - 1
		if i < 0 {
			break
		}
	}
	return name
}

// cmpFloat orders float64 values totally: NaN sorts first and all NaNs
// compare equal. ParseFloat accepts "NaN", so without a total order the
// sort comparator would be inconsistent and rank codes would depend on
// map iteration order — the same CSV would encode differently across
// runs (found by FuzzRankEncode).
func cmpFloat(a, b float64) int {
	an, bn := math.IsNaN(a), math.IsNaN(b)
	switch {
	case an && bn:
		return 0
	case an:
		return -1
	case bn:
		return 1
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

// inferKind picks the narrowest kind that parses every non-NULL value:
// INTEGER ⊂ REAL ⊂ TEXT.
func inferKind(raw []string, nulls map[string]bool) Kind {
	kind := KindInt
	sawValue := false
	for _, s := range raw {
		if nulls[s] {
			continue
		}
		sawValue = true
		if kind == KindInt {
			if _, err := strconv.ParseInt(s, 10, 64); err == nil {
				continue
			}
			kind = KindFloat
		}
		if kind == KindFloat {
			if _, err := strconv.ParseFloat(s, 64); err == nil {
				continue
			}
			kind = KindString
			break
		}
	}
	if !sawValue {
		return KindString
	}
	return kind
}

// Project returns a new relation containing only the given columns, in the
// given order, sharing the underlying code slices. It is the column-sampling
// primitive of the scalability experiments (Section 5.3.2).
func (r *Relation) Project(cols []attr.ID) *Relation {
	out := &Relation{
		Name:     r.Name,
		ColNames: make([]string, len(cols)),
		Kinds:    make([]Kind, len(cols)),
		Codes:    make([][]int32, len(cols)),
		display:  make([][]string, len(cols)),
		distinct: make([]int, len(cols)),
		hasNull:  make([]bool, len(cols)),
		rows:     r.rows,
	}
	for i, c := range cols {
		out.ColNames[i] = r.ColNames[c]
		out.Kinds[i] = r.Kinds[c]
		out.Codes[i] = r.Codes[c]
		out.display[i] = r.display[c]
		out.distinct[i] = r.distinct[c]
		out.hasNull[i] = r.hasNull[c]
	}
	return out
}

// HeadRows returns a new relation with only the first n rows (all rows when
// n exceeds the row count). Distinct counts are recomputed.
func (r *Relation) HeadRows(n int) *Relation {
	if n > r.rows {
		n = r.rows
	}
	out := &Relation{
		Name:     r.Name,
		ColNames: r.ColNames,
		Kinds:    r.Kinds,
		Codes:    make([][]int32, r.NumCols()),
		display:  r.display,
		distinct: make([]int, r.NumCols()),
		hasNull:  make([]bool, r.NumCols()),
		rows:     n,
		twins:    r.twins,
	}
	for c := range r.Codes {
		out.Codes[c] = r.Codes[c][:n]
		out.distinct[c], out.hasNull[c] = recount(out.Codes[c])
	}
	return out
}

// SelectRows returns a new relation containing the rows at the given
// indices, in order. It is the row-sampling primitive of Figure 2.
func (r *Relation) SelectRows(idx []int) *Relation {
	out := &Relation{
		Name:     r.Name,
		ColNames: r.ColNames,
		Kinds:    r.Kinds,
		Codes:    make([][]int32, r.NumCols()),
		display:  r.display,
		distinct: make([]int, r.NumCols()),
		hasNull:  make([]bool, r.NumCols()),
		rows:     len(idx),
		twins:    r.twins,
	}
	for c := range r.Codes {
		col := make([]int32, len(idx))
		src := r.Codes[c]
		for i, ri := range idx {
			col[i] = src[ri]
		}
		out.Codes[c] = col
		out.distinct[c], out.hasNull[c] = recount(col)
	}
	return out
}

func recount(codes []int32) (distinct int, hasNull bool) {
	seen := make(map[int32]struct{}, 16)
	for _, v := range codes {
		if v == NullCode {
			hasNull = true
			continue
		}
		seen[v] = struct{}{}
	}
	return len(seen), hasNull
}

// Row returns the display strings of one tuple, for debugging and examples.
func (r *Relation) Row(i int) []string {
	out := make([]string, r.NumCols())
	for c := range out {
		out[c] = r.Value(i, attr.ID(c))
	}
	return out
}
