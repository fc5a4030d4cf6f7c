package relation

import (
	"bytes"
	"encoding/binary"
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"math/bits"
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
// so memory holds a few batches of raw records, one int32 per cell and,
// for each non-integer column, one arena of its distinct values' bytes,
// never the whole file as strings nor one string per value. Input without
// quotes or carriage returns and with a one-byte Comma is split at the
// byte level, and its lines reach the encoder as bytes: past the first
// batch, whole lines of the header's cell count are split eight bytes at
// a time and copied into the encoders' batch at once; from the first line
// that has a quote or carriage return, or from the start for a multi-byte
// Comma, encoding/csv reads the rest. The encoder goroutines own columns
// by their cost on the first batch. A column whose cells are all integers
// spelled as strconv.FormatInt prints them, in int32 range, is stored as
// its values and ranked without a dictionary; any other cell moves its
// column to a dictionary of distinct values, whose kind is inferred at the
// end. The columns are then ranked on as many goroutines as encoded them,
// each claiming the column with the most distinct values left, so the
// costliest column never waits behind a static share. When src reports
// its size (a Len method, or a regular *os.File), the code slices are
// sized once from the first records' bytes per record. When opts.Stop is
// set it is polled every few hundred records, so a cancelled caller (a
// deleted discovery job, a closed connection) aborts ingestion promptly
// instead of parsing input it will never use; the error then wraps
// ErrStopped.
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
	size := inputSize(src)
	sp := newSplitter(src, opts.Comma, size)
	var header []string
	var enc *encoder
	for records := 0; ; records++ {
		if opts.Stop != nil && records%stopEvery == 0 && opts.Stop() {
			return nil, enc, fmt.Errorf("read csv %s: after %d records: %w", name, records, ErrStopped)
		}
		if enc != nil && enc.feeds != nil {
			// Plain lines go straight into the encoders' batch, up to the
			// batch's end or the next Stop poll, whichever comes first.
			b := enc.batch()
			room := batchRows - len(b.ends)/len(header)
			if n := sp.scan(b, len(header), min(room, stopEvery-records%stopEvery)); n > 0 {
				enc.took(n)
				records += n - 1
				continue
			}
		}
		rec, line, err := sp.read()
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
			enc = newEncoder(len(header), opts.nullSet(), opts.ForceString)
			if !opts.NoHeader {
				continue
			}
		}
		if len(rec) != len(header) {
			return nil, enc, fmt.Errorf("read csv %s: row %d has %d fields, want %d", name, enc.rows+1, len(rec), len(header))
		}
		if enc.rows == batchRows && size > 0 {
			enc.presize(estimateRows(enc.rows, len(header), sp.offset(), size))
		}
		enc.addLine(line, rec)
	}
	if enc == nil {
		return nil, nil, fmt.Errorf("read csv %s: empty input", name)
	}
	return header, enc, nil
}

// inputSize returns the bytes left in src, or -1 when src does not tell:
// a reader with a Len method (bytes.Reader, strings.Reader, bytes.Buffer)
// reports them, and a regular file has its size less its offset left.
func inputSize(src io.Reader) int64 {
	switch r := src.(type) {
	case interface{ Len() int }:
		return int64(r.Len())
	case *os.File:
		fi, err := r.Stat()
		if err != nil || !fi.Mode().IsRegular() {
			return -1
		}
		off, err := r.Seek(0, io.SeekCurrent)
		if err != nil {
			return -1
		}
		return fi.Size() - off
	}
	return -1
}

// estimateRows expects the rows records that took the first used of size
// input bytes to go on at the same bytes per record, and returns that
// record count plus a tenth. It counts at most what the rest could hold,
// each record taking one byte per cell at least (its separators and
// newline), so a short head never sizes the code slices past four bytes
// per input byte.
func estimateRows(rows, cols int, used, size int64) int {
	est := int64(rows) * size / used
	est += est / 10
	return int(min(est, int64(rows)+(size-used)/int64(max(cols, 1))+1))
}

// readBuf is the splitter's initial buffer for an input of unknown size or
// of at least readBuf bytes; it doubles whenever a line does not fit. A line
// that crosses its end is left to read, so it holds hundreds of typical
// lines for each one that scan does not take. A shorter input starts with
// at most smallBuf, the size of encoding/csv's bufio.Reader.
const (
	readBuf  = 64 << 10
	smallBuf = 4 << 10
)

// splitter reads CSV records. Lines without '"' or '\r' are split on a
// one-byte comma in place: by scan, a word at a time, once the encoders
// run, and one record at a time by read for the lines scan leaves; the
// first line with either, a multi-byte comma or a read error hands the
// rest of the stream to encoding/csv, so quoting, line endings and errors
// are encoding/csv's own.
type splitter struct {
	src   io.Reader
	comma byte
	buf   []byte
	r, w  int   // buf[r:w] is read and not yet split
	base  int64 // the input offset of buf[0]
	plain int   // buf[r:plain] has no '"' or '\r'
	err   error // the read error that ended src, io.EOF at its end
	lines int   // lines split so far, empty ones included
	rec   [][]byte

	cr    *csv.Reader // set once encoding/csv reads the rest
	at    int64       // the input offset where encoding/csv took over
	cells []byte      // the line rec refers to after the handoff
}

// newSplitter returns a splitter of src, whose size is that many bytes,
// or unknown when negative.
func newSplitter(src io.Reader, comma rune, size int64) *splitter {
	if comma == 0 {
		comma = ','
	}
	s := &splitter{src: src}
	if comma < utf8.RuneSelf && comma != '"' && comma != '\r' && comma != '\n' {
		s.comma = byte(comma)
		n := readBuf
		if size >= 0 && size < readBuf {
			n = int(min(size+1, smallBuf)) // room to see the end of the input
		}
		s.buf = make([]byte, n)
	} else {
		s.handoff(comma)
	}
	return s
}

// read returns the next record, and the line that holds its cells back to
// back, each followed by one separator byte. Both stay valid until the next
// call.
func (s *splitter) read() ([][]byte, []byte, error) {
	for s.cr == nil {
		i := bytes.IndexByte(s.buf[s.r:s.w], '\n')
		if i < 0 {
			if s.err == nil {
				s.fill()
				continue
			}
			if s.err != io.EOF || s.plain < s.w {
				break // encoding/csv reads the rest, or reports the read error
			}
			if s.r == s.w {
				return nil, nil, io.EOF
			}
			// The last line has no newline; give it one, so that its last
			// cell too is followed by a separator byte.
			s.buf = append(s.buf[:s.w], '\n')
			s.w++
			s.plain++
			i = s.w - 1 - s.r
		}
		end := s.r + i
		if s.plain < end {
			break
		}
		line := s.buf[s.r : end+1]
		s.r = end + 1
		s.lines++
		if len(line) == 1 {
			continue // encoding/csv skips empty lines
		}
		s.rec = s.rec[:0]
		rest := line[:len(line)-1]
		for {
			j := bytes.IndexByte(rest, s.comma)
			if j < 0 {
				break
			}
			s.rec = append(s.rec, rest[:j])
			rest = rest[j+1:]
		}
		s.rec = append(s.rec, rest)
		return s.rec, line, nil
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
	s.cells, s.rec = layOut(s.cells, s.rec, rec)
	return s.rec, s.cells, err
}

// Words of eight bytes find separators without a call per cell: a byte of
// w^(lowBits·c) is zero exactly where w's byte is c.
const (
	lowBits = 0x0101010101010101
	low7    = 0x7f7f7f7f7f7f7f7f
)

// zeroBytes sets the high bit of each zero byte of x and clears every other
// bit. No carry crosses a byte, so unlike (x−lowBits)&^x it marks exactly
// the zero bytes, not also the ones above the first.
func zeroBytes(x uint64) uint64 {
	return ^((x&low7 + low7) | x | low7)
}

// scan takes up to limit whole lines of ncols cells from the plain bytes
// buf[r:plain] into b and returns how many it took. It finds every comma
// and newline eight bytes at a time, writes each cell's end into b.ends,
// and copies the lines it took into b.buf with one append: a line's cells
// are already back to back, each followed by one separator byte. It stops
// before the first line it cannot take: one not whole in buf[r:plain]
// (more input is due, or it holds a '"' or '\r'), or one of another cell
// count, as an empty line is. read takes that line, so encoding/csv's
// records and errors stay the contract. A one-column file is left to
// read, which skips empty lines that scan would take as empty cells.
func (s *splitter) scan(b *batch, ncols, limit int) int {
	if s.cr != nil || ncols < 2 {
		return 0
	}
	buf := s.buf[s.r:s.plain]
	ends := b.ends
	base := len(b.buf) // where buf[0] lands in b.buf
	commas, newlines := lowBits*uint64(s.comma), lowBits*uint64('\n')
	rows, taken, mark := 0, 0, len(ends) // buf[:taken] holds the lines taken, ends[:mark] their cells
words:
	for i := 0; i < len(buf); i += 8 {
		var w uint64
		if i+8 <= len(buf) {
			w = binary.LittleEndian.Uint64(buf[i:])
		} else {
			// Zero padding matches neither separator: the comma is never 0.
			var tail [8]byte
			copy(tail[:], buf[i:])
			w = binary.LittleEndian.Uint64(tail[:])
		}
		nl := zeroBytes(w ^ newlines)
		for m := zeroBytes(w^commas) | nl; m != 0; m &= m - 1 {
			j := i + bits.TrailingZeros64(m)>>3
			ends = append(ends, base+j)
			cells := len(ends) - mark
			if nl&m&-m == 0 { // a comma
				if cells < ncols {
					continue
				}
				break words // a cell too many
			}
			if cells != ncols {
				break words
			}
			rows, taken, mark = rows+1, j+1, len(ends)
			if rows == limit {
				break words
			}
		}
	}
	b.buf = append(b.buf, buf[:taken]...)
	b.ends = ends[:mark]
	s.r += taken
	s.lines += rows
	return rows
}

// offset returns how many bytes of the input the records read so far take.
func (s *splitter) offset() int64 {
	if s.cr != nil {
		return s.at + s.cr.InputOffset()
	}
	return s.base + int64(s.r)
}

// fill reads more input behind buf[r:w], moving it to the front of buf.
func (s *splitter) fill() {
	buf := s.buf
	if s.w-s.r == len(buf) {
		buf = make([]byte, 2*len(buf))
	}
	n := copy(buf, s.buf[s.r:s.w])
	s.base += int64(s.r)
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
	s.at = s.base + int64(s.r)
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
