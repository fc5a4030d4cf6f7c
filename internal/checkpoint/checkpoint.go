// Package checkpoint implements the durable snapshot format that makes
// long discovery runs resumable.
//
// OCDDISCOVER's BFS over the candidate tree is level-synchronous, so a
// completed level barrier is a consistent cut of the whole computation:
// the column reduction, every validated OCD and OD-valid prune, and the
// frontier of candidates for the next level fully determine the rest of
// the run. A Snapshot captures exactly that cut, plus a fingerprint of
// the input relation so a snapshot is never replayed against different
// data.
//
// The on-disk format is a single human-inspectable header line followed
// by a JSON payload:
//
//	OCDCKPT <version> <payload-bytes> <sha256-hex>\n
//	{ ... }
//
// The payload holds the engine's state in the engine's own types:
// attribute ids as JSON numbers, and the frontier as the flat Rows a level
// is built in, written as base64.
//
// The header carries the payload length and checksum, so a torn write —
// truncated payload, bit rot, a concatenated double write — is always
// detected: Decode either returns a fully verified snapshot or an error,
// never a partial state. Write is atomic on POSIX filesystems: the
// snapshot is written to a temp file, fsynced, then renamed over the
// destination (and the directory fsynced), so the file at CheckpointPath
// is always either the previous complete snapshot or the new one.
package checkpoint

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"ocd/internal/attr"
	"ocd/internal/faultinject"
	"ocd/internal/obs"
	"ocd/internal/relation"
)

// FormatVersion is the current snapshot format version. Decode refuses
// snapshots written by a different version; resumability is not promised
// across format changes.
const FormatVersion = 2

// magic is the first header field; it doubles as a file-type sniff.
const magic = "OCDCKPT"

// maxPayload bounds the payload length accepted by Decode, and with
// maxHeader the size of a file Load reads into memory.
const maxPayload = 1 << 30

// maxHeader bounds the header line: magic + version + length + sha256 hex
// fit comfortably in 96 bytes.
const maxHeader = 128

// ErrCorrupt is wrapped into every Decode error caused by damaged bytes
// (bad magic, truncated payload, checksum mismatch, invalid structure) —
// as opposed to I/O errors reading the file.
var ErrCorrupt = errors.New("checkpoint: corrupt or torn snapshot")

// ErrVersion is wrapped into Decode errors for well-formed snapshots
// written by an unsupported format version.
var ErrVersion = errors.New("checkpoint: unsupported snapshot version")

// ErrMismatch is wrapped into Fingerprint.Verify errors: the snapshot was
// taken on a different relation instance than the one being resumed.
var ErrMismatch = errors.New("checkpoint: dataset fingerprint mismatch")

// Fingerprint identifies the relation instance a snapshot belongs to. Rows,
// Cols and the per-column digests of the rank codes must match exactly for
// a resume to proceed; Path is informational (the dataset may have been
// copied or regenerated — identical content still resumes).
type Fingerprint struct {
	// Path is the input path or relation name the snapshot was taken from.
	Path string `json:"path,omitempty"`
	// Rows and Cols are the relation's dimensions.
	Rows int `json:"rows"`
	Cols int `json:"cols"`
	// ColDigests holds one 64-bit FNV-1a digest per column, computed over
	// the column's rank codes (hex-encoded: JSON numbers cannot carry a
	// full uint64). The digest captures exactly what discovery sees: two
	// inputs with the same order structure match even across respellings
	// ("1.0" vs "1.00") or order-preserving value edits — for which the
	// discovered dependencies are provably identical — while any reorder,
	// tie change, or type change alters at least one digest.
	ColDigests []string `json:"col_digests"`
}

// FingerprintOf computes the fingerprint of a relation instance. path
// labels the origin (use the input file path, or the relation name).
func FingerprintOf(r *relation.Relation, path string) Fingerprint {
	f := Fingerprint{
		Path: path,
		Rows: r.NumRows(),
		Cols: r.NumCols(),
	}
	f.ColDigests = make([]string, r.NumCols())
	for c := range f.ColDigests {
		f.ColDigests[c] = fmt.Sprintf("%016x", digestCodes(r.Col(attr.ID(c))))
	}
	return f
}

// digestCodes is FNV-1a 64 over the little-endian bytes of the codes.
func digestCodes(codes []int32) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for _, c := range codes {
		u := uint32(c)
		h = (h ^ uint64(u&0xff)) * prime
		h = (h ^ uint64((u>>8)&0xff)) * prime
		h = (h ^ uint64((u>>16)&0xff)) * prime
		h = (h ^ uint64(u>>24)) * prime
	}
	return h
}

// Verify checks the fingerprint against a relation instance, returning an
// error wrapping ErrMismatch naming the first divergence (dimension or
// column) when the snapshot was not taken on this exact data.
func (f Fingerprint) Verify(r *relation.Relation) error {
	if r.NumRows() != f.Rows || r.NumCols() != f.Cols {
		return fmt.Errorf("%w: snapshot was taken on %d rows x %d columns, input has %d x %d",
			ErrMismatch, f.Rows, f.Cols, r.NumRows(), r.NumCols())
	}
	if len(f.ColDigests) != f.Cols {
		return fmt.Errorf("%w: snapshot carries %d column digests for %d columns",
			ErrMismatch, len(f.ColDigests), f.Cols)
	}
	for c := 0; c < f.Cols; c++ {
		got := fmt.Sprintf("%016x", digestCodes(r.Col(attr.ID(c))))
		if got != f.ColDigests[c] {
			return fmt.Errorf("%w: column %d (%s) digest %s, snapshot has %s — the input data changed since the snapshot",
				ErrMismatch, c+1, r.ColName(attr.ID(c)), got, f.ColDigests[c])
		}
	}
	return nil
}

// Stats carries the execution counters accumulated up to the snapshot's
// level barrier; a resumed run adds its own counters on top so the totals
// match an uninterrupted run.
type Stats struct {
	Checks         int64 `json:"checks"`
	Candidates     int64 `json:"candidates"`
	Prunes         int64 `json:"prunes,omitempty"`
	Levels         int   `json:"levels"`
	MemoryReleases int   `json:"memory_releases,omitempty"`
}

// Snapshot is a consistent cut of a discovery run at a completed level
// barrier: everything needed to restart the BFS at the frontier's level.
type Snapshot struct {
	// Fingerprint pins the snapshot to one relation instance.
	Fingerprint Fingerprint `json:"fingerprint"`
	// DisableColumnReduction records the reduction setting of the original
	// run; resuming with a different setting would change the output.
	DisableColumnReduction bool `json:"disable_column_reduction,omitempty"`
	// Universe is the pre-reduction attribute set the run considered (all
	// columns, or the Options.Columns restriction).
	Universe []attr.ID `json:"universe"`
	// Reduced is the post-reduction working set: constants removed, one
	// representative per order-equivalence class.
	Reduced []attr.ID `json:"reduced"`
	// Constants and EquivClasses are the reduction-phase outputs.
	Constants    []attr.ID   `json:"constants,omitempty"`
	EquivClasses [][]attr.ID `json:"equiv_classes,omitempty"`
	// OCDs and ODs are the dependencies validated on completed levels. The
	// ODs double as the OD-valid prunes of Algorithm 3: their subtrees were
	// not expanded and will not be re-expanded after a resume.
	OCDs []attr.Pair `json:"ocds,omitempty"`
	ODs  []attr.Pair `json:"ods,omitempty"`
	// Frontier holds the deduplicated candidates of the next level, whose
	// tree level |X|+|Y| is Frontier.K(); the initial level of singleton
	// pairs is 2. An empty frontier means the run completed; resuming it
	// re-emits the full result without performing any checks.
	Frontier Rows `json:"-"`
	// Stats are the counters at the barrier.
	Stats Stats `json:"stats"`
	// ElapsedNanos is the cumulative wall-clock time at the barrier,
	// including the prior elapsed time of runs this one itself resumed
	// from; a resumed run surfaces it as Stats.PriorElapsed. Zero in
	// snapshots written before the field existed.
	ElapsedNanos int64 `json:"elapsed_ns,omitempty"`
	// Metrics is the observability registry snapshot at the barrier, when
	// the original run carried a registry. Restoring it before re-entering
	// the traversal makes crash + resume metrics dumps match an
	// uninterrupted run's. Nil when the run had no registry (or the
	// snapshot predates the field).
	Metrics *obs.Snapshot `json:"metrics,omitempty"`
}

// wire is a Snapshot's JSON form: its fields, with the frontier's slices
// as little-endian bytes, which encoding/json writes as base64. Decoding
// them as plain fields, not through an Unmarshaler, keeps encoding/json
// to one scan of them.
type wire struct {
	*Snapshot
	Frontier struct {
		Level int    `json:"level"`
		IDs   []byte `json:"ids,omitempty"`
		Split []byte `json:"split,omitempty"`
	} `json:"frontier"`
}

// Complete reports whether the snapshot captures a finished traversal
// (empty frontier): resuming it re-emits the final result directly.
func (s *Snapshot) Complete() bool { return s.Frontier.Len() == 0 }

// Encode writes the snapshot to w in the versioned, checksummed format.
func (s *Snapshot) Encode(w io.Writer) error {
	j := wire{Snapshot: s}
	j.Frontier.Level, j.Frontier.IDs, j.Frontier.Split = s.Frontier.k, toBytes(s.Frontier.ids), toBytes(s.Frontier.split)
	payload, err := json.Marshal(j)
	if err != nil {
		return fmt.Errorf("checkpoint: encode: %w", err)
	}
	sum := sha256.Sum256(payload)
	if _, err := fmt.Fprintf(w, "%s %d %d %s\n", magic, FormatVersion, len(payload), hex.EncodeToString(sum[:])); err != nil {
		return err
	}
	_, err = w.Write(payload)
	return err
}

// Decode fully verifies the snapshot file data: header shape, version,
// payload length, SHA-256 checksum, absence of trailing bytes, JSON
// structure, and structural validity of the state (attribute ids in range,
// well-formed pairs and rows). Damaged input of any kind returns an error
// wrapping ErrCorrupt (or ErrVersion); Decode never panics and never
// returns a partially filled snapshot. Its allocations do not grow with
// the frontier: each of the frontier's slices is decoded in one.
func Decode(data []byte) (*Snapshot, error) {
	nl := bytes.IndexByte(data, '\n')
	if nl < 0 {
		return nil, fmt.Errorf("%w: missing header", ErrCorrupt)
	}
	if nl+1 > maxHeader {
		return nil, fmt.Errorf("%w: header too long", ErrCorrupt)
	}
	header, payload := string(data[:nl+1]), data[nl+1:]
	var gotMagic, sumHex string
	var version, length int
	if n, err := fmt.Sscanf(header, "%s %d %d %s\n", &gotMagic, &version, &length, &sumHex); n != 4 || err != nil {
		return nil, fmt.Errorf("%w: malformed header %q", ErrCorrupt, trim(header))
	}
	if gotMagic != magic {
		return nil, fmt.Errorf("%w: not a checkpoint file (magic %q)", ErrCorrupt, trim(gotMagic))
	}
	if version != FormatVersion {
		return nil, fmt.Errorf("%w: snapshot is version %d, this build reads version %d", ErrVersion, version, FormatVersion)
	}
	if length < 0 || length > maxPayload {
		return nil, fmt.Errorf("%w: implausible payload length %d", ErrCorrupt, length)
	}
	if !isLowerHex(sumHex) {
		return nil, fmt.Errorf("%w: malformed checksum", ErrCorrupt)
	}
	want, err := hex.DecodeString(sumHex)
	if err != nil || len(want) != sha256.Size {
		return nil, fmt.Errorf("%w: malformed checksum", ErrCorrupt)
	}
	if len(payload) < length {
		return nil, fmt.Errorf("%w: payload truncated (%d of %d bytes)", ErrCorrupt, len(payload), length)
	}
	if len(payload) > length {
		return nil, fmt.Errorf("%w: trailing bytes after payload", ErrCorrupt)
	}
	sum := sha256.Sum256(payload)
	if !bytes.Equal(sum[:], want) {
		return nil, fmt.Errorf("%w: checksum mismatch", ErrCorrupt)
	}
	// json.Unmarshal rather than a Decoder: a Decoder copies the payload
	// into a buffer it grows by doubling, one allocation per doubling.
	var s Snapshot
	w := wire{Snapshot: &s}
	if err := json.Unmarshal(payload, &w); err != nil {
		return nil, fmt.Errorf("%w: payload: %v", ErrCorrupt, err)
	}
	f := &w.Frontier
	if len(f.IDs)%2 != 0 || len(f.Split)%2 != 0 {
		return nil, fmt.Errorf("%w: frontier has an odd byte count", ErrCorrupt)
	}
	s.Frontier = Rows{k: f.Level, ids: fromBytes(f.IDs), split: fromBytes(f.Split)}
	if err := s.validate(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	return &s, nil
}

// isLowerHex reports whether s is entirely lowercase hex digits — the
// canonical spelling Encode produces. Decode refuses case variants so a
// given snapshot has exactly one on-disk checksum representation.
func isLowerHex(s string) bool {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// trim shortens hostile strings quoted in error messages.
func trim(s string) string {
	if len(s) > 40 {
		return s[:40] + "..."
	}
	return s
}

// validate checks the structural invariants that make a snapshot safe to
// hand to the engine: every attribute id indexes the fingerprinted schema,
// pairs are non-empty and disjoint-sided, and the counters are sane. It
// exists so hostile bytes with a valid checksum still cannot drive the
// engine into a panic.
func (s *Snapshot) validate() error {
	cols := s.Fingerprint.Cols
	if s.Fingerprint.Rows < 0 || cols < 0 {
		return fmt.Errorf("negative dimensions %dx%d", s.Fingerprint.Rows, cols)
	}
	if len(s.Fingerprint.ColDigests) != cols {
		return fmt.Errorf("%d column digests for %d columns", len(s.Fingerprint.ColDigests), cols)
	}
	for _, d := range s.Fingerprint.ColDigests {
		if len(d) != 16 || !isLowerHex(d) {
			return fmt.Errorf("column digest %q is not 16 lowercase hex chars", trim(d))
		}
	}
	checkIDs := func(field string, ids []attr.ID) error {
		for _, id := range ids {
			if id < 0 || int(id) >= cols {
				return fmt.Errorf("%s: attribute id %d out of range [0,%d)", field, id, cols)
			}
		}
		return nil
	}
	if err := checkIDs("universe", s.Universe); err != nil {
		return err
	}
	if err := checkIDs("reduced", s.Reduced); err != nil {
		return err
	}
	if err := checkIDs("constants", s.Constants); err != nil {
		return err
	}
	for i, class := range s.EquivClasses {
		if len(class) < 2 {
			return fmt.Errorf("equivalence class %d has %d members, want >= 2", i, len(class))
		}
		if err := checkIDs("equivalence class", class); err != nil {
			return err
		}
	}
	// One set serves every pair and row: each check leaves it empty.
	var seen attr.Set
	checkPairs := func(field string, pairs []attr.Pair) error {
		for i, p := range pairs {
			if len(p.X) == 0 || len(p.Y) == 0 {
				return fmt.Errorf("%s %d: empty side", field, i)
			}
			if err := distinct(&seen, cols, p.X, p.Y); err != nil {
				return fmt.Errorf("%s %d: %v", field, i, err)
			}
		}
		return nil
	}
	if err := checkPairs("ocd", s.OCDs); err != nil {
		return err
	}
	if err := checkPairs("od", s.ODs); err != nil {
		return err
	}
	if err := s.Frontier.validate(cols, &seen); err != nil {
		return err
	}
	if s.Stats.Checks < 0 || s.Stats.Candidates < 0 || s.Stats.Prunes < 0 || s.Stats.Levels < 0 || s.Stats.MemoryReleases < 0 {
		return fmt.Errorf("negative stats counter")
	}
	if s.ElapsedNanos < 0 {
		return fmt.Errorf("negative elapsed time")
	}
	// Metrics needs no structural validation: obs.Registry.Restore bounds-
	// checks histogram shapes itself, and counter values never index
	// anything in the engine.
	return nil
}

// Write atomically persists the snapshot at path: encode into a temp file
// in the same directory, fsync it, rename over path, fsync the directory.
// A crash at any point leaves path either absent, holding the previous
// snapshot, or holding the new one — never a torn file (a stale .tmp may
// remain; it is overwritten by the next Write and never loaded).
func Write(path string, s *Snapshot) error {
	// PointErr so chaos runs can fail the write with a plain error (a full
	// or read-only checkpoint disk) and pin that discovery merely degrades
	// to un-checkpointed; panic/exit rules at this point still fire as such.
	if err := faultinject.PointErr("checkpoint.write"); err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	if err := s.Encode(f); err != nil {
		f.Close() // the encode error is the one to report
		os.Remove(tmp)
		return fmt.Errorf("checkpoint: write %s: %w", tmp, err)
	}
	if err := f.Sync(); err != nil {
		f.Close() // the sync error is the one to report
		os.Remove(tmp)
		return fmt.Errorf("checkpoint: sync %s: %w", tmp, err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("checkpoint: close %s: %w", tmp, err)
	}
	faultinject.Point("checkpoint.write.rename")
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("checkpoint: %w", err)
	}
	// Make the rename itself durable. Directory fsync is best-effort: some
	// filesystems refuse it, and the rename is already atomic.
	if d, err := os.Open(filepath.Dir(path)); err == nil {
		d.Sync() // best-effort directory durability
		d.Close()
	}
	return nil
}

// Load reads and verifies the snapshot at path. The error distinguishes a
// missing file (os.IsNotExist), damaged bytes (errors.Is ErrCorrupt /
// ErrVersion) and plain I/O failures.
func Load(path string) (*Snapshot, error) {
	st, err := os.Stat(path)
	if err != nil {
		return nil, err
	}
	if st.Size() > maxHeader+maxPayload {
		return nil, fmt.Errorf("load checkpoint %s: %w: %d bytes is larger than any snapshot", path, ErrCorrupt, st.Size())
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	s, err := Decode(data)
	if err != nil {
		return nil, fmt.Errorf("load checkpoint %s: %w", path, err)
	}
	return s, nil
}
