package relation

import (
	"bytes"
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"unicode/utf8"
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

// ReadCSV parses CSV data into a relation in one streaming pass, with
// encoding/csv's grammar and errors. Each record is encoded as it is read,
// so memory holds a few batches of raw records, one int32 per cell and the
// distinct values of the non-integer columns, never the whole file as
// strings. Input without quotes or carriage returns and with a one-byte
// Comma is split at the byte level, and its cells reach the encoder as
// bytes; from the first line that has either, or from the start for a
// multi-byte Comma, encoding/csv reads the rest. A column whose cells are
// all integers spelled as strconv.FormatInt prints them, in int32 range, is
// stored as its values and ranked without a dictionary; any other cell
// moves its column to a dictionary of distinct values, whose kind is
// inferred at the end. When opts.Stop is set it is polled every few
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
	sp := newSplitter(src, opts.Comma)
	var header []string
	var enc *encoder
	for records := 0; ; records++ {
		if opts.Stop != nil && records%stopEvery == 0 && opts.Stop() {
			return nil, enc, fmt.Errorf("read csv %s: after %d records: %w", name, records, ErrStopped)
		}
		rec, err := sp.read()
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
			header = make([]string, len(rec))
			for i, cell := range rec {
				if opts.NoHeader {
					header[i] = defaultColName(i)
				} else {
					header[i] = string(cell)
				}
			}
			enc = newEncoder(len(header), opts.nullSet(), opts.ForceString, 0)
			if !opts.NoHeader {
				continue
			}
		}
		if len(rec) != len(header) {
			return nil, enc, fmt.Errorf("read csv %s: row %d has %d fields, want %d", name, enc.rows+1, len(rec), len(header))
		}
		enc.addBytes(rec)
	}
	if enc == nil {
		return nil, nil, fmt.Errorf("read csv %s: empty input", name)
	}
	return header, enc, nil
}

// readBuf is the splitter's initial buffer, the size of encoding/csv's
// bufio.Reader; it doubles whenever a line does not fit.
const readBuf = 4 << 10

// splitter reads CSV records. Lines without '"' or '\r' are split on a
// one-byte comma in place; the first line with either, a multi-byte comma
// or a read error hands the rest of the stream to encoding/csv, so quoting,
// line endings and errors are encoding/csv's own.
type splitter struct {
	src   io.Reader
	comma byte
	buf   []byte
	r, w  int   // buf[r:w] is read and not yet split
	plain int   // buf[r:plain] has no '"' or '\r'
	err   error // the read error that ended src, io.EOF at its end
	lines int   // lines split so far, empty ones included
	rec   [][]byte

	cr    *csv.Reader // set once encoding/csv reads the rest
	cells []byte      // the bytes rec refers to after the handoff
}

func newSplitter(src io.Reader, comma rune) *splitter {
	if comma == 0 {
		comma = ','
	}
	s := &splitter{src: src}
	if comma < utf8.RuneSelf && comma != '"' && comma != '\r' && comma != '\n' {
		s.comma = byte(comma)
		s.buf = make([]byte, readBuf)
	} else {
		s.handoff(comma)
	}
	return s
}

// read returns the next record. Its cells stay valid until the next call.
func (s *splitter) read() ([][]byte, error) {
	for s.cr == nil {
		i := bytes.IndexByte(s.buf[s.r:s.w], '\n')
		if i < 0 && s.err == nil {
			s.fill()
			continue
		}
		end, next := s.r+i, s.r+i+1
		if i < 0 {
			if s.err != io.EOF {
				break // encoding/csv reports the read error
			}
			if s.r == s.w {
				return nil, io.EOF
			}
			end, next = s.w, s.w
		}
		if s.plain < end {
			break
		}
		line := s.buf[s.r:end]
		s.r = next
		s.lines++
		if len(line) == 0 {
			continue // encoding/csv skips empty lines
		}
		s.rec = s.rec[:0]
		for {
			j := bytes.IndexByte(line, s.comma)
			if j < 0 {
				break
			}
			s.rec = append(s.rec, line[:j])
			line = line[j+1:]
		}
		return append(s.rec, line), nil
	}
	if s.cr == nil {
		s.handoff(rune(s.comma))
	}
	rec, err := s.cr.Read()
	var pe *csv.ParseError
	if errors.As(err, &pe) {
		pe.StartLine += s.lines
		pe.Line += s.lines
	}
	s.rec, s.cells = s.rec[:0], s.cells[:0]
	for _, f := range rec {
		s.cells = append(s.cells, f...)
	}
	start := 0
	for _, f := range rec {
		s.rec = append(s.rec, s.cells[start:start+len(f)])
		start += len(f)
	}
	return s.rec, err
}

// fill reads more input behind buf[r:w], moving it to the front of buf.
func (s *splitter) fill() {
	buf := s.buf
	if s.w-s.r == len(buf) {
		buf = make([]byte, 2*len(buf))
	}
	n := copy(buf, s.buf[s.r:s.w])
	s.buf, s.plain, s.r, s.w = buf, s.plain-s.r, 0, n
	// Like bufio, give up on a reader that keeps returning nothing.
	for empty := 0; s.w == n && s.err == nil; empty++ {
		if empty == 100 {
			s.err = io.ErrNoProgress
			break
		}
		m, err := s.src.Read(s.buf[s.w:])
		s.w += m
		s.err = err
	}
	if s.plain == n {
		s.plain += plainLen(s.buf[n:s.w])
	}
}

// plainLen returns the length of b's prefix without '"' or '\r'.
func plainLen(b []byte) int {
	n := len(b)
	for _, c := range []byte{'"', '\r'} {
		if i := bytes.IndexByte(b[:n], c); i >= 0 {
			n = i
		}
	}
	return n
}

// handoff makes encoding/csv read the rest of the input: the unsplit
// bytes, then src or the error src failed with.
func (s *splitter) handoff(comma rune) {
	rest := []io.Reader{bytes.NewReader(s.buf[s.r:s.w])}
	switch {
	case s.err == nil:
		rest = append(rest, s.src)
	case s.err != io.EOF:
		rest = append(rest, errReader{s.err})
	}
	s.cr = csv.NewReader(io.MultiReader(rest...))
	s.cr.Comma = comma
	s.cr.FieldsPerRecord = -1 // parseCSV checks the field count with a clearer error
	s.cr.ReuseRecord = true
}

// errReader fails every read with err.
type errReader struct{ err error }

func (r errReader) Read([]byte) (int, error) { return 0, r.err }

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
