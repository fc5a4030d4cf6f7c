package checkpoint

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"
)

// FuzzCheckpointDecode feeds arbitrary bytes to the snapshot loader:
// hostile input must always produce an error, never a panic, and any
// input that does decode must be round-trip stable — re-encoding it and
// decoding again yields the identical snapshot, so whatever state the
// engine resumes from is exactly what the next Write persists.
func FuzzCheckpointDecode(f *testing.F) {
	// Seed with real snapshots of several shapes plus near-miss corruptions.
	for seed := int64(0); seed < 4; seed++ {
		var buf bytes.Buffer
		if err := randomSnapshot(rand.New(rand.NewSource(seed))).Encode(&buf); err != nil {
			f.Fatal(err)
		}
		full := buf.Bytes()
		f.Add(full)
		f.Add(full[:len(full)/2])
		f.Add(append(append([]byte(nil), full...), full...))
	}
	f.Add([]byte("OCDCKPT 2 2 0000000000000000000000000000000000000000000000000000000000000000\n{}"))
	f.Add([]byte(v1Snapshot))
	f.Add([]byte("OCDCKPT 99 0 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855\n"))
	f.Add([]byte("not a checkpoint at all"))
	f.Add([]byte(""))
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := Decode(data)
		if err != nil {
			return // rejecting hostile bytes is the job; panicking is the bug
		}
		var buf bytes.Buffer
		if err := s.Encode(&buf); err != nil {
			t.Fatalf("decoded snapshot failed to re-encode: %v", err)
		}
		s2, err := Decode(buf.Bytes())
		if err != nil {
			t.Fatalf("re-encoded snapshot failed to decode: %v", err)
		}
		if !reflect.DeepEqual(s, s2) {
			t.Fatalf("round trip changed the snapshot:\nfirst:  %+v\nsecond: %+v", s, s2)
		}
	})
}
