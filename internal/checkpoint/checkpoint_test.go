package checkpoint

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime/debug"
	"strings"
	"testing"

	"ocd/internal/attr"
	"ocd/internal/obs"
	"ocd/internal/relation"
)

// randomSnapshot builds a structurally valid snapshot from a seeded PRNG:
// random dimensions, random reduction output, random dependency sets and a
// random frontier at a consistent level. It is the generator for the
// round-trip property tests.
func randomSnapshot(rng *rand.Rand) *Snapshot {
	cols := 2 + rng.Intn(12)
	s := &Snapshot{
		Fingerprint: Fingerprint{
			Path: fmt.Sprintf("data-%d.csv", rng.Intn(1000)),
			Rows: rng.Intn(10000),
			Cols: cols,
		},
		DisableColumnReduction: rng.Intn(4) == 0,
	}
	s.Fingerprint.ColDigests = make([]string, cols)
	for c := range s.Fingerprint.ColDigests {
		s.Fingerprint.ColDigests[c] = fmt.Sprintf("%016x", rng.Uint64())
	}
	for c := 0; c < cols; c++ {
		s.Universe = append(s.Universe, attr.ID(c))
	}
	// Partition a few columns off as constants; the rest stay reduced.
	for _, c := range s.Universe {
		if rng.Intn(8) == 0 {
			s.Constants = append(s.Constants, c)
		} else {
			s.Reduced = append(s.Reduced, c)
		}
	}
	if len(s.Reduced) >= 2 && rng.Intn(2) == 0 {
		s.EquivClasses = append(s.EquivClasses, []attr.ID{s.Reduced[0], s.Reduced[1]})
	}
	// randomPair picks disjoint, duplicate-free sides over the reduced set.
	randomPair := func(level int) (attr.Pair, bool) {
		if len(s.Reduced) < level {
			return attr.Pair{}, false
		}
		perm := rng.Perm(len(s.Reduced))
		nx := 1 + rng.Intn(level-1)
		var p attr.Pair
		for i := 0; i < level; i++ {
			id := s.Reduced[perm[i]]
			if i < nx {
				p.X = append(p.X, id)
			} else {
				p.Y = append(p.Y, id)
			}
		}
		return p, true
	}
	for i := rng.Intn(20); i > 0; i-- {
		if p, ok := randomPair(2 + rng.Intn(3)); ok {
			s.OCDs = append(s.OCDs, p)
		}
	}
	for i := rng.Intn(10); i > 0; i-- {
		if p, ok := randomPair(2 + rng.Intn(3)); ok {
			s.ODs = append(s.ODs, p)
		}
	}
	s.Frontier = randomRows(rng, s.Reduced, 2+rng.Intn(4), 1+rng.Intn(30))
	s.Stats = Stats{
		Checks:         rng.Int63n(1 << 40),
		Candidates:     rng.Int63n(1 << 30),
		Levels:         rng.Intn(20),
		MemoryReleases: rng.Intn(3),
	}
	s.ElapsedNanos = rng.Int63n(1 << 50)
	if rng.Intn(2) == 0 {
		s.Metrics = &obs.Snapshot{
			Counters: map[string]int64{"discover.checks": rng.Int63n(1 << 40)},
			Gauges:   map[string]int64{"discover.level": int64(rng.Intn(10))},
			Histograms: map[string]obs.HistogramSnapshot{
				"discover.check_latency_ns": {
					Bounds: []int64{1000, 4000},
					Counts: []int64{rng.Int63n(100), rng.Int63n(100), rng.Int63n(100)},
					Sum:    rng.Int63n(1 << 30),
					Count:  rng.Int63n(300),
				},
			},
		}
	}
	return s
}

// randomRows builds up to n rows of level k over attrs, each a random
// duplicate-free permutation prefix split at a random |X|; none when
// attrs has fewer than k attributes.
func randomRows(rng *rand.Rand, attrs []attr.ID, k, n int) Rows {
	r := Rows{k: k}
	if len(attrs) < k {
		return r
	}
	for ; n > 0; n-- {
		for _, i := range rng.Perm(len(attrs))[:k] {
			r.ids = append(r.ids, uint16(attrs[i]))
		}
		r.split = append(r.split, uint16(1+rng.Intn(k-1)))
	}
	return r
}

// TestValidateRejectsNegativeElapsed: hostile elapsed times never load.
func TestValidateRejectsNegativeElapsed(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	s := randomSnapshot(rng)
	s.ElapsedNanos = -1
	var buf bytes.Buffer
	if err := s.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := Decode(buf.Bytes()); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("negative elapsed decoded: %v", err)
	}
}

// TestRoundTripProperty: Encode then Decode is the identity on randomized
// valid snapshots, across many seeds.
func TestRoundTripProperty(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		want := randomSnapshot(rng)
		var buf bytes.Buffer
		if err := want.Encode(&buf); err != nil {
			t.Fatalf("seed %d: encode: %v", seed, err)
		}
		got, err := Decode(buf.Bytes())
		if err != nil {
			t.Fatalf("seed %d: decode: %v", seed, err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("seed %d: round trip changed the snapshot:\nwant %+v\ngot  %+v", seed, want, got)
		}
	}
}

// TestDecodeAllocsIndependentOfFrontier: Decode allocates as often for a
// frontier of 100,000 pairs as for one of 1,000, since each of the
// frontier's slices is decoded in one allocation. A sync.Pool refill (fmt
// keeps its scan state in one) only adds allocations, so the test keeps
// the collector, which empties pools, off and takes the least of ten
// single runs, since the race detector makes pools drop items at random.
func TestDecodeAllocsIndependentOfFrontier(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	allocs := func(pairs int) float64 {
		rng := rand.New(rand.NewSource(5))
		s := randomSnapshot(rng)
		s.Frontier = randomRows(rng, s.Reduced, 3, pairs)
		if s.Frontier.Len() != pairs {
			t.Fatalf("snapshot has %d reduced columns, too few for level 3", len(s.Reduced))
		}
		var buf bytes.Buffer
		if err := s.Encode(&buf); err != nil {
			t.Fatal(err)
		}
		least := math.Inf(1)
		for range 10 {
			least = min(least, testing.AllocsPerRun(1, func() {
				if _, err := Decode(buf.Bytes()); err != nil {
					t.Fatal(err)
				}
			}))
		}
		return least
	}
	if small, large := allocs(1000), allocs(100000); small != large {
		t.Fatalf("Decode allocates %v times for 1,000 frontier pairs, %v for 100,000", small, large)
	}
}

// TestTornSnapshotsNeverLoad: every strict prefix of a valid snapshot file
// (the state a torn write leaves behind) must fail to decode.
func TestTornSnapshotsNeverLoad(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	s := randomSnapshot(rng)
	var buf bytes.Buffer
	if err := s.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for cut := 0; cut < len(full); cut++ {
		if _, err := Decode(full[:cut]); err == nil {
			t.Fatalf("truncation at %d/%d bytes decoded successfully", cut, len(full))
		} else if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("truncation at %d: error %v does not wrap ErrCorrupt", cut, err)
		}
	}
}

// TestBitFlipsNeverLoad: single-byte corruption anywhere in the file is
// rejected (header damage or checksum mismatch, both wrap ErrCorrupt —
// except a flip inside the version digits, which may wrap ErrVersion).
func TestBitFlipsNeverLoad(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	s := randomSnapshot(rng)
	var buf bytes.Buffer
	if err := s.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for i := 0; i < len(full); i += 1 + i/16 { // sample positions, denser early
		mut := append([]byte(nil), full...)
		mut[i] ^= 0x20
		got, err := Decode(mut)
		if err == nil {
			t.Fatalf("bit flip at byte %d decoded successfully: %+v", i, got)
		}
		if !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrVersion) {
			t.Fatalf("bit flip at byte %d: error %v wraps neither ErrCorrupt nor ErrVersion", i, err)
		}
	}
}

// TestTrailingGarbageRejected: a duplicated payload (torn double write,
// appended junk) must not load even though the first copy checksums.
func TestTrailingGarbageRejected(t *testing.T) {
	s := randomSnapshot(rand.New(rand.NewSource(3)))
	var buf bytes.Buffer
	if err := s.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	buf.WriteString("junk")
	if _, err := Decode(buf.Bytes()); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("trailing garbage: err = %v, want ErrCorrupt", err)
	}
}

// v1Snapshot is a snapshot file of format version 1, whose frontier was a
// JSON list of pair records; its checksum is the SHA-256 of "{}".
const v1Snapshot = "OCDCKPT 1 2 44136fa355b3678a1146ad16f7e8649e94fb4fc21fe77e8310c060f61caaff8a\n{}"

// TestVersionRefused: snapshots of an older or a future format version are
// refused with ErrVersion, not misparsed.
func TestVersionRefused(t *testing.T) {
	s := randomSnapshot(rand.New(rand.NewSource(9)))
	var buf bytes.Buffer
	if err := s.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	bumped := strings.Replace(buf.String(), "OCDCKPT 2 ", "OCDCKPT 3 ", 1)
	for name, data := range map[string]string{"version 1": v1Snapshot, "version 3": bumped} {
		if _, err := Decode([]byte(data)); !errors.Is(err, ErrVersion) {
			t.Errorf("%s: err = %v, want ErrVersion", name, err)
		}
	}
}

// TestValidationRejectsHostileState: payloads that checksum correctly but
// describe dangerous states (out-of-range attribute ids, overlapping pair
// sides, wrong frontier level) are refused by the structural validator.
func TestValidationRejectsHostileState(t *testing.T) {
	// base is a valid snapshot of at least 4 columns, room for every
	// frontier case below.
	base := func() *Snapshot {
		for seed := int64(11); ; seed++ {
			if s := randomSnapshot(rand.New(rand.NewSource(seed))); s.Fingerprint.Cols >= 4 {
				return s
			}
		}
	}
	cases := []struct {
		name   string
		mutate func(*Snapshot)
		want   string // in the error, so each case fails for its own reason
	}{
		{"id out of range", func(s *Snapshot) { s.Universe = append(s.Universe, attr.ID(s.Fingerprint.Cols)) }, "universe: attribute id"},
		{"negative id", func(s *Snapshot) { s.Reduced = append(s.Reduced, -1) }, "reduced: attribute id -1"},
		{"digest count mismatch", func(s *Snapshot) { s.Fingerprint.ColDigests = s.Fingerprint.ColDigests[:1] }, "column digests"},
		{"non-hex digest", func(s *Snapshot) { s.Fingerprint.ColDigests[0] = "zzzzzzzzzzzzzzzz" }, "not 16 lowercase hex"},
		{"empty pair side", func(s *Snapshot) { s.OCDs = append(s.OCDs, attr.Pair{X: nil, Y: attr.List{0}}) }, "empty side"},
		{"overlapping sides", func(s *Snapshot) { s.OCDs = append(s.OCDs, attr.Pair{X: attr.List{0}, Y: attr.List{0}}) }, "occurs twice"},
		{"repeated attribute", func(s *Snapshot) { s.ODs = append(s.ODs, attr.Pair{X: attr.List{0, 0}, Y: attr.List{1}}) }, "occurs twice"},
		{"tiny equivalence class", func(s *Snapshot) { s.EquivClasses = append(s.EquivClasses, []attr.ID{0}) }, "members"},
		{"frontier level below 2", func(s *Snapshot) { s.Frontier = Rows{k: 1} }, "frontier level 1"},
		{"frontier level above cols", func(s *Snapshot) {
			s.Frontier = Rows{k: s.Fingerprint.Cols + 1, split: []uint16{1}}
			for a := 0; a <= s.Fingerprint.Cols; a++ {
				s.Frontier.ids = append(s.Frontier.ids, uint16(a))
			}
		}, "exceeds"},
		{"frontier id >= cols", func(s *Snapshot) {
			s.Frontier = Rows{k: 2, ids: []uint16{0, uint16(s.Fingerprint.Cols)}, split: []uint16{1}}
		}, "out of range"},
		{"frontier split 0", func(s *Snapshot) { s.Frontier = Rows{k: 2, ids: []uint16{0, 1}, split: []uint16{0}} }, "|X| = 0"},
		{"frontier split k", func(s *Snapshot) { s.Frontier = Rows{k: 2, ids: []uint16{0, 1}, split: []uint16{2}} }, "|X| = 2"},
		{"frontier length not k per pair", func(s *Snapshot) {
			s.Frontier = Rows{k: 2, ids: []uint16{0, 1, 0}, split: []uint16{1}}
		}, "3 ids for 1 pairs"},
		{"frontier repeated id", func(s *Snapshot) { s.Frontier = Rows{k: 3, ids: []uint16{0, 1, 1}, split: []uint16{1}} }, "occurs twice"},
		{"frontier X/Y overlap", func(s *Snapshot) { s.Frontier = Rows{k: 2, ids: []uint16{1, 1}, split: []uint16{1}} }, "occurs twice"},
		{"negative stats", func(s *Snapshot) { s.Stats.Checks = -1 }, "negative stats"},
	}
	for _, tc := range cases {
		s := base()
		tc.mutate(s)
		var buf bytes.Buffer
		if err := s.Encode(&buf); err != nil {
			t.Fatalf("%s: encode: %v", tc.name, err)
		}
		_, err := Decode(buf.Bytes())
		if !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want ErrCorrupt naming %q", tc.name, err, tc.want)
		}
	}
}

// TestFingerprintVerify: same data matches regardless of spelling; any
// value, order, row-count or column-count change is a mismatch.
func TestFingerprintVerify(t *testing.T) {
	mk := func(rows [][]string) *relation.Relation {
		r, err := relation.FromStrings("t", []string{"a", "b"}, rows, relation.Options{})
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	orig := mk([][]string{{"1", "x"}, {"2", "y"}, {"3", "x"}})
	f := FingerprintOf(orig, "orig.csv")
	if err := f.Verify(orig); err != nil {
		t.Fatalf("self-verify failed: %v", err)
	}
	// Same values, different spelling: rank codes are canonical.
	respelled := mk([][]string{{"01", "x"}, {"2", "y"}, {"3", "x"}})
	if err := f.Verify(respelled); err != nil {
		t.Fatalf("respelled numerics should still match: %v", err)
	}
	// An order-preserving value edit (1,2,3 -> 1,2,7) keeps the rank codes
	// and therefore matches: the discovered dependencies are identical, so
	// the resume is sound by construction.
	isomorphic := mk([][]string{{"1", "x"}, {"2", "y"}, {"7", "x"}})
	if err := f.Verify(isomorphic); err != nil {
		t.Fatalf("order-isomorphic edit should still match: %v", err)
	}
	for name, other := range map[string]*relation.Relation{
		"tie introduced": mk([][]string{{"1", "x"}, {"2", "y"}, {"2", "x"}}),
		"row swap":       mk([][]string{{"2", "y"}, {"1", "x"}, {"3", "x"}}),
		"row dropped":    mk([][]string{{"1", "x"}, {"2", "y"}}),
	} {
		if err := f.Verify(other); !errors.Is(err, ErrMismatch) {
			t.Errorf("%s: err = %v, want ErrMismatch", name, err)
		}
	}
}

// TestWriteLoadAtomic: Write leaves a loadable file, replaces previous
// snapshots in place, and never leaves the destination torn even when the
// temp file from an earlier attempt is still lying around.
func TestWriteLoadAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "run.ckpt")
	rng := rand.New(rand.NewSource(1))
	first := randomSnapshot(rng)
	if err := Write(path, first); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first, got) {
		t.Fatal("loaded snapshot differs from written one")
	}
	// A stale temp file (crash between write and rename) must not break
	// the next Write, and Load never sees it.
	if err := os.WriteFile(path+".tmp", []byte("torn half-written snapsho"), 0o644); err != nil {
		t.Fatal(err)
	}
	second := randomSnapshot(rng)
	if err := Write(path, second); err != nil {
		t.Fatal(err)
	}
	got, err = Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(second, got) {
		t.Fatal("second Write did not replace the snapshot")
	}
}

// TestLoadMissing: a missing snapshot file surfaces as os.IsNotExist, so
// CLIs can distinguish "no checkpoint yet" from corruption.
func TestLoadMissing(t *testing.T) {
	_, err := Load(filepath.Join(t.TempDir(), "absent.ckpt"))
	if !os.IsNotExist(err) {
		t.Fatalf("err = %v, want not-exist", err)
	}
}

// TestCompleteFlag: only an empty frontier marks a snapshot complete.
func TestCompleteFlag(t *testing.T) {
	s := &Snapshot{}
	if !s.Complete() {
		t.Error("empty frontier should be complete")
	}
	s.Frontier = Rows{k: 2, ids: []uint16{0, 1}, split: []uint16{1}}
	if s.Complete() {
		t.Error("non-empty frontier should not be complete")
	}
}
