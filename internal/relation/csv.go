package relation

import (
	"encoding/csv"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
)

// CSVOptions control CSV ingestion.
type CSVOptions struct {
	// Comma is the field separator; ',' when zero.
	Comma rune
	// NoHeader indicates the first record is data, not column names; in
	// that case columns are named A, B, C, … .
	NoHeader bool
	// Relation options (type inference, NULL tokens).
	Options
}

// ReadCSV parses CSV data into a relation in one streaming pass: each record
// is dictionary-encoded as it is read, so memory holds a few batches of raw
// records, one int32 per cell and each column's distinct values, never the
// whole file as strings. When opts.Stop is set it is polled every few
// hundred records, so a cancelled caller (a deleted discovery job, a closed
// connection) aborts ingestion promptly instead of parsing input it will
// never use; the error then wraps ErrStopped.
func ReadCSV(src io.Reader, name string, opts CSVOptions) (*Relation, error) {
	span := opts.Trace.StartChild("parse")
	header, enc, err := parseCSV(src, name, opts)
	if err != nil {
		enc.close()
		span.End()
		return nil, err
	}
	span.SetAttr("records", int64(enc.rows))
	span.End()

	rank := opts.Trace.StartChild("rank-encode")
	defer rank.End()
	rank.SetAttr("rows", int64(enc.rows))
	rank.SetAttr("cols", int64(len(header)))
	return enc.finish(name, header, opts.Options)
}

// parseCSV reads the header and feeds every data record to an encoder. On
// error the encoder, if any, is returned still open.
func parseCSV(src io.Reader, name string, opts CSVOptions) ([]string, *encoder, error) {
	cr := csv.NewReader(src)
	if opts.Comma != 0 {
		cr.Comma = opts.Comma
	}
	cr.FieldsPerRecord = -1 // validated below with a clearer error
	cr.ReuseRecord = true
	var header []string
	var enc *encoder
	for records := 0; ; records++ {
		if opts.Stop != nil && records%stopEvery == 0 && opts.Stop() {
			return nil, enc, fmt.Errorf("read csv %s: after %d records: %w", name, records, ErrStopped)
		}
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			if enc == nil {
				return nil, nil, fmt.Errorf("read csv %s: %w", name, err)
			}
			return nil, enc, fmt.Errorf("read csv %s: row %d: %w", name, enc.rows+1, err)
		}
		if enc == nil {
			if opts.NoHeader {
				header = make([]string, len(rec))
				for i := range header {
					header[i] = defaultColName(i)
				}
			} else {
				header = append([]string(nil), rec...) // rec is reused by the reader
			}
			enc = newEncoder(len(header), opts.nullSet(), true, 0)
			if !opts.NoHeader {
				continue
			}
		}
		if len(rec) != len(header) {
			return nil, enc, fmt.Errorf("read csv %s: row %d has %d fields, want %d", name, enc.rows+1, len(rec), len(header))
		}
		enc.add(rec)
	}
	if enc == nil {
		return nil, nil, fmt.Errorf("read csv %s: empty input", name)
	}
	return header, enc, nil
}

// ReadCSVFile parses the CSV file at path; the relation is named after the
// file's base name without extension.
func ReadCSVFile(path string, opts CSVOptions) (*Relation, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	base := filepath.Base(path)
	name := strings.TrimSuffix(base, filepath.Ext(base))
	return ReadCSV(f, name, opts)
}

// WriteCSV writes the relation (display values, with header) as CSV.
// NULL values are written as empty fields.
func (r *Relation) WriteCSV(dst io.Writer) error {
	w := csv.NewWriter(dst)
	if err := w.Write(r.ColNames); err != nil {
		return err
	}
	row := make([]string, r.NumCols())
	for i := 0; i < r.rows; i++ {
		for c := 0; c < r.NumCols(); c++ {
			if r.Codes[c][i] == NullCode {
				row[c] = ""
			} else {
				row[c] = r.display[c][r.Codes[c][i]]
			}
		}
		if err := w.Write(row); err != nil {
			return err
		}
	}
	w.Flush()
	return w.Error()
}
