package jobs

import (
	"context"
	"encoding/json"
	"os"
	"runtime"
	"strings"
	"testing"

	"ocd/internal/datagen"
)

func horseCSV(t *testing.T) string {
	t.Helper()
	var horse strings.Builder
	if err := datagen.Horse().WriteCSV(&horse); err != nil {
		t.Fatal(err)
	}
	return horse.String()
}

// startManager opens and starts a manager that is stopped when the test
// ends.
func startManager(t *testing.T, cfg Config) *Manager {
	t.Helper()
	m := newTestManager(t, cfg)
	ctx, cancel := context.WithCancel(context.Background())
	m.Start(ctx)
	t.Cleanup(func() {
		cancel()
		m.Wait()
	})
	return m
}

// TestBudgetedJobTruncatesWithMemoryBudget pins the jobs-layer leg of the
// degradation ladder: a job squeezed by an absurdly small shared memory
// budget releases its caches, then lands completed but truncated with the
// typed memory-budget reason, leaves nothing but its durable files in its
// directory, and does not stop the next submission from completing.
func TestBudgetedJobTruncatesWithMemoryBudget(t *testing.T) {
	m := startManager(t, Config{MaxActive: 1, MaxMemoryBytes: 1, MaxUploadBytes: 1 << 20})

	j := submit(t, m, "squeezed", horseCSV(t), JobOptions{})
	waitState(t, m, j.ID(), StateCompleted)
	doc := resultDoc(t, m, j.ID())
	if !doc.Truncated || doc.TruncateReason != "memory-budget" {
		t.Fatalf("truncated = %v, truncate_reason = %q, want memory-budget", doc.Truncated, doc.TruncateReason)
	}
	entries, err := os.ReadDir(j.dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		switch e.Name() {
		case manifestFile, inputFile, snapshotFile, resultFile, traceFile:
		default:
			t.Errorf("job dir holds an unexpected entry %q", e.Name())
		}
	}

	next := submit(t, m, "next", "a,b\n1,2\n2,3\n", JobOptions{})
	waitState(t, m, next.ID(), StateCompleted)
}

// TestSharedBudgetIsNotSplitPerJob: the engine compares the whole process's
// heap with a job's budget, so each job must get the operator's shared
// budget, not a MaxActive-th share of it. With budget/MaxActive below this
// process's heap, a split budget would truncate the job; the shared 1 GiB
// budget must leave it untruncated, with the result of an unbudgeted
// manager.
func TestSharedBudgetIsNotSplitPerJob(t *testing.T) {
	const budget = 1 << 30
	const maxActive = 1 << 14
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	if ms.HeapAlloc <= budget/maxActive {
		t.Fatalf("heap %d B is within the %d B per-job share; raise maxActive", ms.HeapAlloc, budget/maxActive)
	}
	csv := horseCSV(t)
	run := func(cfg Config) ResultDoc {
		m := startManager(t, cfg)
		j := submit(t, m, "horse", csv, JobOptions{})
		waitState(t, m, j.ID(), StateCompleted)
		return resultDoc(t, m, j.ID())
	}
	got := run(Config{MaxActive: maxActive, MaxMemoryBytes: budget, MaxUploadBytes: 1 << 20})
	if got.Truncated {
		t.Fatalf("shared budget truncated the job: truncate_reason = %q", got.TruncateReason)
	}
	want := run(Config{MaxActive: maxActive})
	if a, b := stableResult(t, got), stableResult(t, want); a != b {
		t.Fatalf("budgeted result differs from the unbudgeted one\ngot  %s\nwant %s", a, b)
	}
}

// stableResult renders the fields of a result document that do not vary
// between runs.
func stableResult(t *testing.T, doc ResultDoc) string {
	t.Helper()
	doc.ID, doc.ElapsedMS, doc.PriorElapsedMS = "", 0, 0
	doc.Resumed, doc.Checkpoints, doc.Attempts = false, 0, 0
	b, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}
