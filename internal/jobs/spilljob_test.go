package jobs

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"ocd/internal/datagen"
)

// TestBudgetedJobSpillsAndCompletes pins the jobs-layer leg of the
// degradation ladder: a job squeezed by an absurdly small shared memory
// budget must still complete un-truncated by evicting checker state to its
// per-job spill dir, and the spill segments must be gone once it lands.
// The input is the HORSE replica: the checker caches only the prefixes of
// sides of three or more attributes, which a shallower lattice never
// derives, leaving nothing to spill.
func TestBudgetedJobSpillsAndCompletes(t *testing.T) {
	var horse strings.Builder
	if err := datagen.Horse().WriteCSV(&horse); err != nil {
		t.Fatal(err)
	}
	m := newTestManager(t, Config{MaxActive: 1, MaxMemoryBytes: 1, MaxUploadBytes: 1 << 20})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	m.Start(ctx)
	defer m.Wait()
	defer cancel()

	j := submit(t, m, "spilly", horse.String(), JobOptions{})
	waitState(t, m, j.ID(), StateCompleted)
	doc := resultDoc(t, m, j.ID())
	if doc.TruncateReason == "memory-budget" {
		t.Fatalf("budgeted job truncated by memory budget despite spill dir: %+v", doc)
	}
	if doc.SpillError != "" {
		t.Fatalf("spill_error = %q", doc.SpillError)
	}
	if doc.SpillEvictions == 0 {
		t.Errorf("spill_evictions = 0, want > 0 under a 1-byte budget")
	}
	entries, err := os.ReadDir(spillDirPath(j.dir))
	if err != nil && !os.IsNotExist(err) {
		t.Fatal(err)
	}
	for _, e := range entries {
		t.Errorf("leftover spill file after completion: %s", e.Name())
	}
}

// TestRecoverSweepsOrphanSpillSegments: a crash can leave spill segments in
// a job dir; Open must sweep them (they are cache scoped to the dead
// attempt) while leaving the job's durable files alone.
func TestRecoverSweepsOrphanSpillSegments(t *testing.T) {
	dir := t.TempDir()
	jdir := filepath.Join(dir, "jdeadbeef0000")
	spillDir := spillDirPath(jdir)
	if err := os.MkdirAll(spillDir, 0o755); err != nil {
		t.Fatal(err)
	}
	now := time.Now().UTC()
	man := Manifest{ID: "jdeadbeef0000", Name: "orphan", State: StateCompleted, CreatedAt: now, UpdatedAt: now}
	if err := writeJSONAtomic(manifestPath(jdir), &man); err != nil {
		t.Fatal(err)
	}
	orphan := filepath.Join(spillDir, "seg-3.seg")
	if err := os.WriteFile(orphan, []byte("stale"), 0o644); err != nil {
		t.Fatal(err)
	}

	m := newTestManager(t, Config{Dir: dir})
	if _, err := os.Stat(orphan); !os.IsNotExist(err) {
		t.Errorf("orphan spill segment survived recovery: stat err = %v", err)
	}
	if _, err := m.Status("jdeadbeef0000"); err != nil {
		t.Errorf("recovered job lost: %v", err)
	}
	if _, err := os.Stat(manifestPath(jdir)); err != nil {
		t.Errorf("manifest touched by sweep: %v", err)
	}
}
